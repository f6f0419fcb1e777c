"""The streaming report path: one fold over the mentions, no mention list.

``build_report`` reads its mentions once, in any order, and builds every
table from counts.  These tests hold its distinct-name dedup to the
list-based ``resolve_unique_experts`` (the reference), its artifacts to
those of the same mentions in another order, the rows ``stats`` folds
straight from the file to the mentions built one by one in memory, and
its memory to the distinct sentences and speakers rather than the
mention count.
"""

import csv
import json
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from newsaudit.cli import EXIT_OK, main
from newsaudit.corpus import load_source_config
from newsaudit.entities import GenderLabel, MergedGender, RawGender, resolve_unique_experts
from newsaudit.extract import Detector
from newsaudit.orglink import OrgLink, OrgRecord, OrgType
from newsaudit.report import (
    AuditConfig,
    ExpertMention,
    _Aggregate,
    _unique_experts,
    build_report,
    fixture_dir,
    load_resources,
    mention_sort_key,
    read_mentions_jsonl,
    run_audit,
    sample_for_labeling,
    write_mentions_jsonl,
)

CORPUS = fixture_dir() / "corpus.jsonl"
SOURCES = fixture_dir() / "sources.json"


@pytest.fixture(scope="module")
def audit():
    return run_audit(CORPUS, SOURCES)


@pytest.fixture(scope="module")
def fixture_lines(audit, tmp_path_factory):
    path = write_mentions_jsonl(audit.mentions, tmp_path_factory.mktemp("m") / "m.jsonl")
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


# ---------------------------------------------------------------------------
# dedup over distinct names equals dedup over the sorted mention list

# aliases of one another at the match threshold, and unrelated names
_NAMES = ["Anthony Fauci", "Anthony Stephen Fauci", "Fauci Anthony", "Deborah Birx",
          "Deborah L. Birx", "Jo Smith", "Jo Smith Lee", "Smith Lee"]
_LABELS = [GenderLabel.from_raw(r) for r in RawGender]


def _mention(article, index, speaker, org, label):
    return ExpertMention(
        article_id=article, source="nyt", sentence_index=index, sentence_text="t",
        sentence_char_length=1, speaker_text=speaker, gender=label, org_text=org,
        org_link=None, detectors=frozenset({Detector.DIRECT_PATTERN}),
    )


# few articles, sentences and orgs, so equal sort keys with different labels occur
_mention_st = st.builds(
    _mention,
    st.sampled_from(["a", "b", "c"]),
    st.integers(0, 2),
    st.sampled_from(_NAMES),
    st.sampled_from(["", "Yale University"]),
    st.sampled_from(_LABELS),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_mention_st, max_size=40), st.sampled_from(["first", "majority"]))
def test_distinct_name_dedup_equals_list_dedup(mentions, gender_mode):
    ordered = sorted(mentions, key=mention_sort_key)  # stable: ties keep input order
    want = resolve_unique_experts(
        [m.speaker_text for m in ordered], [m.gender for m in ordered], gender_mode=gender_mode
    )
    got = _unique_experts(_Aggregate(mentions).speakers, gender_mode)
    assert [(e.canonical_name, e.mention_count, e.aliases, e.gender) for e in got] == [
        (e.canonical_name, e.mention_count, e.aliases, e.gender) for e in want
    ]


# ---------------------------------------------------------------------------
# artifacts do not depend on the order of mentions.jsonl


def _majority_lines(fixture_lines):
    # extra mentions of repeated speakers with the opposite label, in new
    # articles, so that majority and first-mention genders differ
    extra = []
    for i, line in enumerate(fixture_lines[:12]):
        row = json.loads(line)
        flipped = {"male": ("female", "Woman"), "female": ("male", "Man")}.get(row["gender_raw"])
        if flipped:
            for copy in range(2):
                row.update(article_id=f"zz{i:02d}{copy}", gender_raw=flipped[0],
                           gender=flipped[1])
                extra.append(json.dumps(row, sort_keys=True) + "\n")
    return fixture_lines + extra


def _stats(mentions, out, gender_mode):
    code = main(["stats", "--mentions", str(mentions), "--sources", str(SOURCES),
                 "--out", str(out), "--gender-mode", gender_mode])
    assert code == EXIT_OK
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("gender_mode", ["first", "majority"])
@pytest.mark.parametrize("flipped", [False, True], ids=["fixture", "flipped-labels"])
def test_shuffled_mentions_give_identical_artifacts(
    fixture_lines, tmp_path, gender_mode, flipped
):
    lines = _majority_lines(fixture_lines) if flipped else fixture_lines
    shuffled = list(lines)
    random.Random(11).shuffle(shuffled)
    assert shuffled != lines
    (tmp_path / "sorted.jsonl").write_text("".join(lines), encoding="utf-8")
    (tmp_path / "shuffled.jsonl").write_text("".join(shuffled), encoding="utf-8")
    a = _stats(tmp_path / "sorted.jsonl", tmp_path / "a", gender_mode)
    b = _stats(tmp_path / "shuffled.jsonl", tmp_path / "b", gender_mode)
    assert len(a) == 18  # report.json, 12 CSVs, 5 SVGs
    assert a == b


def test_flipped_labels_move_the_majority_genders(fixture_lines, tmp_path):
    # the shuffle test above runs on input where the gender mode matters
    (tmp_path / "m.jsonl").write_text("".join(_majority_lines(fixture_lines)), "utf-8")
    reports = [
        json.loads(_stats(tmp_path / "m.jsonl", tmp_path / mode, mode)["report.json"])
        for mode in ("first", "majority")
    ]
    first, majority = (r["gender_composition"]["unique_experts"]["counts"] for r in reports)
    assert first != majority


# ---------------------------------------------------------------------------
# folding decoded rows equals folding mentions built one by one


def _reference_mention(d):
    """A mention built field by field from a decoded line, nothing shared."""
    link = None
    if d["org_link"] is not None:
        raw = d["org_link"]
        record = OrgRecord(raw["name"], OrgType(raw["org_type"]), raw.get("world_rank"),
                           raw.get("public_health_rank"))
        link = OrgLink(mention_text=d["org_text"], record=record, score=raw["score"])
    return ExpertMention(
        article_id=d["article_id"], source=d["source"], sentence_index=d["sentence_index"],
        sentence_text=d["sentence_text"], sentence_char_length=d["sentence_char_length"],
        speaker_text=d["speaker_text"],
        gender=GenderLabel(raw=RawGender(d["gender_raw"]), merged=MergedGender(d["gender"])),
        org_text=d["org_text"], org_link=link,
        detectors=frozenset(Detector(v) for v in d["detectors"]),
    )


def _link(name, org_type, world=None, health=None, score=100):
    return {"name": name, "org_type": org_type, "world_rank": world,
            "public_health_rank": health, "score": score}


# (org_text, org_link): unlinked, and links whose ranks are equal as numbers
# but int or float, under one name and one org text
_ORGS = [
    ("Mystery Lab", None),
    ("Yale University", None),
    ("Stanford University", _link("Stanford University", "academic", 3, None)),
    ("Stanford University", _link("Stanford University", "academic", 3.0, None)),
    ("Stanford", _link("Stanford University", "academic", 3, 2, score=92)),
    ("Stanford", _link("Stanford University", "academic", 3, 2.0, score=92)),
    ("Harvard University", _link("Harvard University", "academic", 6, 1)),
    ("CDC", _link("Centers for Disease Control and Prevention", "federal")),
    ("Brookings", _link("Brookings Institution", "think_tank", score=95)),
]
_DETECTOR_SETS = [["DirectPattern"], ["AccordingTo"], ["ClausalComplement", "DirectPattern"],
                  sorted(d.value for d in Detector)]


def _line(article, index, source, speaker, raw, org, detectors, length):
    org_text, link = org
    label = GenderLabel.from_raw(raw)
    return json.dumps({
        "article_id": article, "source": source, "sentence_index": index,
        "sentence_text": f"{speaker} of {org_text} said so.", "sentence_char_length": length,
        "speaker_text": speaker, "gender_raw": label.raw.value, "gender": label.merged.value,
        "org_text": org_text, "org_link": link, "detectors": detectors,
    }, sort_keys=True) + "\n"


# few articles, sentences, speakers and orgs, so sort keys repeat
_line_st = st.builds(
    _line,
    st.sampled_from(["a", "b", "c"]),
    st.integers(0, 2),
    st.sampled_from(["nyt", "fox", "breit"]),
    st.sampled_from(_NAMES),
    st.sampled_from(list(RawGender)),
    st.sampled_from(_ORGS),
    st.sampled_from(_DETECTOR_SETS),
    st.integers(1, 300),
)


@pytest.mark.parametrize("gender_mode", ["first", "majority"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_stats_fold_equals_report_of_mentions_in_memory(tmp_path_factory, gender_mode, data):
    lines = data.draw(st.lists(_line_st, min_size=1, max_size=30))
    lines = data.draw(st.permutations(lines))
    path = tmp_path_factory.mktemp("fold") / "m.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    code = main(["stats", "--mentions", str(path), "--sources", str(SOURCES),
                 "--out", str(path.parent), "--formats", "json", "--bootstrap", "20",
                 "--gender-mode", gender_mode])
    assert code == EXIT_OK
    mentions = [ExpertMention.from_dict(json.loads(line)) for line in lines]
    assert mentions == [_reference_mention(json.loads(line)) for line in lines]
    # the reader shares equal values; numbers keep their types, so each
    # mention writes back as it was read
    shared = list(read_mentions_jsonl(path))
    assert shared == mentions
    assert [json.dumps(m.to_dict(), sort_keys=True) + "\n" for m in shared] == lines
    config = AuditConfig(bootstrap_iterations=20, gender_mode=gender_mode)
    want = build_report(mentions, load_source_config(SOURCES), config)
    assert (path.parent / "report.json").read_bytes() == want.to_json().encode("utf-8")


# ---------------------------------------------------------------------------
# the stats path keeps no mention list


def test_reader_is_lazy_and_report_keeps_no_mentions(fixture_lines, tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text("".join(fixture_lines), encoding="utf-8")
    mentions = read_mentions_jsonl(path)
    assert iter(mentions) is mentions
    report = build_report(mentions, load_source_config(SOURCES), AuditConfig())
    assert report.mentions == ()
    assert report.data["totals"]["mentions"] == len(fixture_lines)
    assert next(mentions, None) is None  # read once, to the end


def test_build_report_memory_grows_with_sentences_not_mentions(fixture_lines, tmp_path):
    # every mention in its own sentence: the co-mention map grows with each one
    n = 10_000
    path = tmp_path / "big.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for i in range(n):
            row = json.loads(fixture_lines[i % len(fixture_lines)])
            row.update(article_id=f"g{i // 3:05d}", sentence_index=i % 3)
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    small = tmp_path / "small.jsonl"
    small.write_text("".join(fixture_lines), encoding="utf-8")
    sources, resources, config = load_source_config(SOURCES), load_resources(), AuditConfig()
    # one warm-up run, so that one-off allocations (lazy imports, caches) are not counted
    build_report(read_mentions_jsonl(small), sources, config, resources=resources)
    tracemalloc.start()
    try:
        report = build_report(read_mentions_jsonl(path), sources, config, resources=resources)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.data["totals"]["mentions"] == n
    assert report.data["co_mention"]["sentences_with_mentions"] == n
    assert peak / n < 300, f"{peak / n:.0f} B per mention"


# ---------------------------------------------------------------------------
# mentions of an outlet that sources.json does not configure


def test_unconfigured_source_is_rejected_by_build_report(audit):
    mentions = list(audit.mentions)
    mentions[3] = ExpertMention.from_dict({**mentions[3].to_dict(), "source": "zzz"})
    with pytest.raises(ValueError, match="'zzz' is not in the outlet config"):
        build_report(mentions, load_source_config(SOURCES), AuditConfig())


# ---------------------------------------------------------------------------
# the labeling sheet, read in two streaming passes


def _reference_sample(mentions_path, n, seed, out_path):
    """The labeling sheet drawn from the whole mention list in memory."""
    mentions = list(read_mentions_jsonl(mentions_path))
    article_ids = sorted({m.article_id for m in mentions})
    chosen = set(random.Random(seed).sample(article_ids, n))
    rows = [[m.article_id, m.sentence_index, m.sentence_text, m.speaker_text, m.org_text, ""]
            for m in mentions if m.article_id in chosen]
    rows.sort(key=lambda r: (r[0], r[1], r[3]))
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["article_id", "sentence_index", "sentence_text", "speaker", "org",
                    "correct"])
        w.writerows(rows)
    return out_path


@pytest.mark.parametrize("seed,n", [(0, 5), (7, 5), (8, 12), (21, 1), (3, 19)])
def test_sample_sheet_matches_in_memory_reference(fixture_lines, tmp_path, seed, n):
    path = tmp_path / "m.jsonl"
    shuffled = list(fixture_lines)
    random.Random(seed).shuffle(shuffled)
    path.write_text("".join(shuffled), encoding="utf-8")
    got = sample_for_labeling(path, n, seed, tmp_path / "got.csv")
    want = _reference_sample(path, n, seed, tmp_path / "want.csv")
    assert got.read_bytes() == want.read_bytes()
