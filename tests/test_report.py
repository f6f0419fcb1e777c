"""End-to-end audit assembly checked against the bundled gold fixture.

gold.json was annotated by hand while the fixture corpus was written; these
tests hold the full pipeline (extraction, linking, gender, statistics,
serialization) to exactly those values.
"""

import csv
import dataclasses
import json
import math
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest

from newsaudit import stats
from newsaudit.corpus import load_source_config, parse_article_stream, segment_sentences
from newsaudit.entities import MergedGender, _tokens, classify_gender
from newsaudit.extract import run_detectors
from newsaudit.report import (
    AuditConfig,
    AuditReport,
    ExpertMention,
    _bs_config,
    _bs_dict,
    _csv_tables,
    _ratio_block,
    _write_csv,
    build_report,
    emit,
    extract_mentions,
    fixture_dir,
    load_resources,
    read_mentions_jsonl,
    run_audit,
    sample_for_labeling,
    write_mentions_jsonl,
)

CORPUS = fixture_dir() / "corpus.jsonl"
SOURCES = fixture_dir() / "sources.json"
GOLD = json.loads((fixture_dir() / "gold.json").read_text(encoding="utf-8"))
TOL = 1e-9


@pytest.fixture(scope="module")
def report():
    return run_audit(CORPUS, SOURCES)


@pytest.fixture(scope="module")
def data(report):
    return report.data


def mention_key(m: ExpertMention):
    return (m.article_id, m.sentence_index, m.speaker_text)


def as_gold_row(m: ExpertMention) -> dict:
    link = None
    if m.org_link is not None:
        rec = m.org_link.record
        link = {
            "name": rec.name,
            "org_type": rec.org_type.value,
            "world_rank": rec.world_rank,
            "public_health_rank": rec.public_health_rank,
            "score": m.org_link.score,
        }
    return {
        "article_id": m.article_id,
        "source": m.source,
        "sentence_index": m.sentence_index,
        "speaker_text": m.speaker_text,
        "gender_raw": m.gender.raw.value,
        "gender": m.gender.merged.value,
        "org_text": m.org_text,
        "org_link": link,
        "detectors": sorted(d.value for d in m.detectors),
    }


# ---------------------------------------------------------------------------
# gold recovery


def test_mentions_match_gold_exactly(report):
    got = [as_gold_row(m) for m in sorted(report.mentions, key=mention_key)]
    assert got == GOLD["mentions"]


def test_distractor_sentences_produce_no_candidates():
    resources = load_resources()
    distractors = {tuple(d) for d in GOLD["distractor_sentences"]}
    assert len(distractors) == 10
    seen = set()
    for article in parse_article_stream(CORPUS):
        for sent in segment_sentences(article.body, article.id):
            if (article.id, sent.index) in distractors:
                seen.add((article.id, sent.index))
                assert run_detectors(sent.text, _tokens(sent.text), resources.lexicon) == []
    assert seen == distractors


def test_dropped_sentences_yield_no_mentions(report):
    produced = {(m.article_id, m.sentence_index) for m in report.mentions}
    for entry in GOLD["expected_dropped"]:
        assert (entry["article_id"], entry["sentence_index"]) not in produced


def test_every_mention_has_speaker_and_org(report):
    for m in report.mentions:
        assert m.speaker_text
        assert m.org_text


def test_provenance_matches_gold(data):
    assert data["provenance"]["by_detector"] == GOLD["provenance"]["by_detector"]
    assert data["provenance"]["by_combo"] == GOLD["provenance"]["by_combo"]


# ---------------------------------------------------------------------------
# table sections


def test_corpus_section(data):
    sec = data["corpus"]
    assert sec["sentences"] == GOLD["counts"]["sentences"]
    for key, row in GOLD["by_outlet"].items():
        assert sec["outlets"][key]["articles"] == row["articles"]
        assert sec["outlets"][key]["mentions"] == row["mentions"]
    assert sum(o["articles"] for o in sec["outlets"].values()) == GOLD["counts"]["articles"]
    assert sec["ingest"]["articles"] == GOLD["counts"]["articles"]
    assert sec["ingest"]["skipped_malformed"] == 0


def test_totals_section(data):
    sec = data["totals"]
    assert sec["mentions"] == GOLD["counts"]["mentions"]
    assert sec["unique_experts"] == GOLD["counts"]["unique_experts"]
    assert sec["unknown_fraction_pre_merge"] == pytest.approx(
        GOLD["counts"]["unknown_fraction_pre_merge"], abs=TOL)
    assert sec["unknown_fraction_post_merge"] == pytest.approx(
        GOLD["counts"]["unknown_fraction_post_merge"], abs=TOL)
    wm = sec["women_men"]
    assert wm["n_men"] == GOLD["counts"]["gender_mentions"]["Man"]
    assert wm["n_women"] == GOLD["counts"]["gender_mentions"]["Woman"]
    assert wm["ratio"] == pytest.approx(GOLD["counts"]["women_men_ratio"], abs=TOL)
    assert wm["bootstrap"]["available"]
    assert wm["bootstrap"]["ci_low"] <= wm["ratio"] <= wm["bootstrap"]["ci_high"]


def test_pre_merge_unknown_fraction_weights_repeated_speakers(report):
    # Speakers are classified once each but weighted by their mentions:
    # repeating one pre-merge-unknown speaker must move the fraction.
    names = load_resources().first_names
    unknown = [m for m in report.mentions
               if classify_gender(m.speaker_text, names).merged is MergedGender.UNKNOWN]
    mentions = list(report.mentions) + [unknown[0]] * 5
    expected = sum(
        classify_gender(m.speaker_text, names).merged is MergedGender.UNKNOWN
        for m in mentions
    ) / len(mentions)
    rebuilt = build_report(mentions, load_source_config(SOURCES), AuditConfig())
    assert rebuilt.data["totals"]["unknown_fraction_pre_merge"] == expected


def test_gender_composition_section(data):
    sec = data["gender_composition"]
    assert sec["mentions"]["counts"] == GOLD["counts"]["gender_mentions"]
    assert sec["unique_experts"]["counts"] == GOLD["counts"]["gender_unique"]
    m = sec["mentions"]
    assert m["man_share"] + m["woman_share"] == pytest.approx(1.0, abs=TOL)
    assert m["man_share"] == pytest.approx(20 / 30, abs=TOL)


def test_gender_by_org_type_section(data):
    sec = data["gender_by_org_type"]
    assert sorted(sec.keys()) == sorted(GOLD["gender_by_org_type"].keys())
    for org_type, counts in GOLD["gender_by_org_type"].items():
        block = sec[org_type]
        assert block["counts"] == counts
        n = sum(counts.values())
        assert block["n"] == n
        # shares include the Unknown category and partition to 1
        assert sum(block["shares"].values()) == pytest.approx(1.0, abs=TOL)
        for gender, c in counts.items():
            assert block["shares"][gender] == pytest.approx(c / n, abs=TOL)
            bs = block["bootstrap"][gender]
            if bs["available"]:
                assert bs["ci_low"] - TOL <= c / n <= bs["ci_high"] + TOL


def test_org_type_by_outlet_section(data):
    sec = data["org_type_by_outlet"]
    for outlet, counts in GOLD["org_type_by_outlet"].items():
        assert sec[outlet]["counts"] == counts
        n = sum(counts.values())
        assert sec[outlet]["n_linked"] == n
        for org_type, c in counts.items():
            assert sec[outlet]["shares"][org_type] == pytest.approx(c / n, abs=TOL)


def test_outlet_ratio_section(data):
    sec = data["outlet_ratios"]
    for outlet, row in GOLD["by_outlet"].items():
        block = sec[outlet]
        assert block["n_men"] == row["men"]
        assert block["n_women"] == row["women"]
        assert block["n_unknown"] == row["unknown"]
        assert block["ratio"] == pytest.approx(row["ratio"], abs=TOL)


def test_ideology_ratio_test_section(data):
    sec = data["ideology_ratio_test"]
    assert sec["groups"]["left"] == pytest.approx(GOLD["ideology_ratio_test"]["left"], abs=TOL)
    assert sec["groups"]["right"] == pytest.approx(GOLD["ideology_ratio_test"]["right"], abs=TOL)
    assert sec["h"] == pytest.approx(GOLD["ideology_ratio_test"]["h"], abs=TOL)
    assert sec["df"] == GOLD["ideology_ratio_test"]["df"]
    assert sec["p_value"] == pytest.approx(GOLD["ideology_ratio_test"]["p_value"], abs=TOL)


def nonzero(counts_by_rank: dict) -> dict:
    return {k: v for k, v in counts_by_rank.items() if v}


def test_rank_attention_overall(data):
    sec = data["rank_attention"]["overall"]
    gold = GOLD["rank_stats"]["overall"]
    assert sec["n_institutions"] == gold["n_institutions"]
    assert len(sec["counts_by_rank"]) == gold["n_institutions"]
    assert sec["mentions"] == gold["mentions"]
    assert nonzero(sec["counts_by_rank"]) == GOLD["world_rank_counts"]
    assert sec["gini"] == pytest.approx(gold["gini"], abs=TOL)
    assert sec["spearman"] == pytest.approx(gold["spearman"], abs=TOL)


def test_rank_attention_public_health(data):
    sec = data["rank_attention"]["public_health"]
    gold = GOLD["rank_stats"]["public_health"]
    assert sec["n_institutions"] == gold["n_institutions"]
    assert sec["mentions"] == gold["mentions"]
    assert nonzero(sec["counts_by_rank"]) == GOLD["public_health_rank_counts"]
    assert sec["gini"] == pytest.approx(gold["gini"], abs=TOL)
    assert sec["spearman"] == pytest.approx(gold["spearman"], abs=TOL)


def test_rank_attention_splits(data):
    by_ideo = data["rank_attention"]["by_ideology"]
    by_gender = data["rank_attention"]["by_gender"]
    for key, section in [("left", by_ideo["left"]), ("right", by_ideo["right"]),
                         ("Man", by_gender["Man"]), ("Woman", by_gender["Woman"])]:
        table = (GOLD["world_rank_counts_by_ideology"].get(key)
                 or GOLD["world_rank_counts_by_gender"].get(key))
        gold = GOLD["rank_stats"][key]
        assert nonzero(section["counts_by_rank"]) == table
        assert section["mentions"] == gold["mentions"]
        assert section["gini"] == pytest.approx(gold["gini"], abs=TOL)
        assert section["spearman"] == pytest.approx(gold["spearman"], abs=TOL)


def test_cumulative_attention_by_gender(data):
    sec = data["rank_attention"]["cumulative_by_gender"]
    cuts = sec["cut_points"]
    assert cuts == list(range(5, 101, 5))
    for gender, table in GOLD["world_rank_counts_by_gender"].items():
        counts = {int(r): c for r, c in table.items()}
        expected = stats.cumulative_topn(counts, cuts)
        assert sec[gender]["shares"] == pytest.approx(expected, abs=TOL)
    # spot values derived by hand from the gold counts
    assert sec["Man"]["shares"][1] == pytest.approx(0.5, abs=TOL)      # top 10
    assert sec["Woman"]["shares"][2] == pytest.approx(0.2, abs=TOL)    # top 15
    assert sec["Man"]["shares"][-1] == pytest.approx(1.0, abs=TOL)


def test_binned_attention_by_ideology(data):
    sec = data["rank_attention"]["binned_by_ideology"]
    assert sec["bin_width"] == 10
    left, right = sec["shares"]["left"], sec["shares"]["right"]
    assert len(left) == len(right) == 10
    # hand-derived: ranks 1-10 hold 2 left + 1 right, 11-20 hold 2 left + 3 right
    assert left[0] == pytest.approx(2 / 3, abs=TOL)
    assert left[1] == pytest.approx(0.4, abs=TOL)
    assert left[2] == pytest.approx(1.0, abs=TOL)
    assert left[3] is None and right[3] is None
    for lo, hi in zip(left, right):
        if lo is not None:
            assert lo + hi == pytest.approx(1.0, abs=TOL)


def test_sentence_length_section(data):
    sec = data["sentence_length"]
    gold = GOLD["sentence_length"]
    assert sec["men"]["n"] == gold["men"]["n"]
    assert sec["women"]["n"] == gold["women"]["n"]
    assert sec["men"]["mean_chars"] == pytest.approx(gold["men"]["mean_chars"], abs=TOL)
    assert sec["women"]["mean_chars"] == pytest.approx(gold["women"]["mean_chars"], abs=TOL)
    assert sec["welch"]["t"] == pytest.approx(gold["welch_t"], abs=TOL)
    assert sec["welch"]["df"] == pytest.approx(gold["welch_df"], abs=TOL)
    assert sec["welch"]["p_value"] == pytest.approx(gold["welch_p"], abs=1e-6)


def test_co_mention_section(data):
    sec = data["co_mention"]
    gold = GOLD["co_mention"]
    assert sec["man_sentences"] == gold["man_sentences"]
    assert sec["woman_sentences"] == gold["woman_sentences"]
    assert sec["mixed_sentences"] == gold["mixed_sentences"]
    assert sec["p_man_given_woman_sentence"] == pytest.approx(
        gold["p_man_given_woman_sentence"], abs=TOL)
    assert sec["p_woman_given_man_sentence"] == pytest.approx(
        gold["p_woman_given_man_sentence"], abs=TOL)
    assert sec["consistent"]


def test_mention_totals_are_conserved(report, data):
    assert data["totals"]["mentions"] == len(report.mentions)
    assert data["totals"]["mentions"] == sum(
        o["mentions"] for o in data["corpus"]["outlets"].values())


# ---------------------------------------------------------------------------
# outlet self-mention suppression


def test_no_suppression_is_a_superset(report):
    sources = load_source_config(SOURCES)
    resources = load_resources()
    loose, _ = extract_mentions(CORPUS, sources, resources, outlet_suppression=False)
    strict_keys = {mention_key(m) for m in report.mentions}
    loose_keys = {mention_key(m) for m in loose}
    assert strict_keys < loose_keys
    extra = [as_gold_row(m) for m in sorted(loose, key=mention_key)
             if mention_key(m) not in strict_keys]
    assert extra == GOLD["requires_no_suppression"]
    assert extra[0]["org_text"] == "Fox News"
    assert extra[0]["org_link"] is None


# ---------------------------------------------------------------------------
# bootstrap blocks drawn from binomial counts


def test_report_never_bootstraps_indices(report, monkeypatch):
    # Every report bootstrap draws counts, so B * n resample indices are
    # never drawn: the tables come out the same with stats.bootstrap gone.
    def refuse(*args, **kwargs):
        raise AssertionError("stats.bootstrap called")

    monkeypatch.setattr(stats, "bootstrap", refuse)
    rebuilt = build_report(report.mentions, load_source_config(SOURCES), AuditConfig())
    for section in ("totals", "outlet_ratios", "gender_by_org_type"):
        assert rebuilt.data[section] == report.data[section]
    assert rebuilt.data["totals"]["women_men"]["bootstrap"]["available"]


def test_bootstrap_blocks_use_per_table_seeds(data):
    config = AuditConfig()
    block = data["totals"]["women_men"]
    women, known = block["n_women"], block["n_men"] + block["n_women"]
    expected = stats.bootstrap_counts(
        women, known, lambda c: c / (known - c), _bs_config("totals/women_men", config)
    )
    assert block["bootstrap"] == _bs_dict(expected)
    academic = data["gender_by_org_type"]["academic"]
    n, k = academic["n"], academic["counts"]["Woman"]
    expected = stats.bootstrap_counts(
        k, n, lambda c: c / n, _bs_config("gender_by_org_type/academic/Woman", config)
    )
    assert academic["bootstrap"]["Woman"] == _bs_dict(expected)


def _members(*genders: MergedGender) -> Counter:
    return Counter(genders)


def test_ratio_block_edge_cases():
    config = AuditConfig()
    women_only = _ratio_block(_members(*[MergedGender.WOMAN] * 4), "x", config)
    assert women_only["ratio"] is None
    # every resample has no men, so every replicate is inf
    assert women_only["bootstrap"] == {
        "available": False, "reason": "all bootstrap replicates were non-finite"}
    men_only = _ratio_block(_members(*[MergedGender.MAN] * 4), "x", config)["bootstrap"]
    assert (men_only["mean"], men_only["ci_low"], men_only["ci_high"]) == (0.0, 0.0, 0.0)
    for members in (_members(), _members(MergedGender.UNKNOWN)):
        block = _ratio_block(members, "x", config)
        assert block["bootstrap"] == {"available": False, "reason": "empty sample"}


# ---------------------------------------------------------------------------
# determinism


def test_report_json_is_byte_identical_across_runs(report):
    again = run_audit(CORPUS, SOURCES)
    assert again.to_json() == report.to_json()


def test_mentions_jsonl_round_trip(report, tmp_path):
    p1 = write_mentions_jsonl(report.mentions, tmp_path / "m1.jsonl")
    p2 = write_mentions_jsonl(report.mentions, tmp_path / "m2.jsonl")
    assert p1.read_bytes() == p2.read_bytes()
    back = read_mentions_jsonl(p1)
    assert [as_gold_row(m) for m in back] == [as_gold_row(m) for m in report.mentions]


def test_read_mentions_shares_equal_values(report, tmp_path):
    p1 = write_mentions_jsonl(report.mentions, tmp_path / "m1.jsonl")
    back = list(read_mentions_jsonl(p1))
    assert write_mentions_jsonl(back, tmp_path / "m2.jsonl").read_bytes() == p1.read_bytes()
    first = {}
    shared_records = 0
    for m in back:
        values = [m.gender, m.detectors]
        if m.org_link is not None:
            values.append(m.org_link.record)
            shared_records += m.org_link.record in first
        for v in values:
            assert first.setdefault(v, v) is v
    assert shared_records > 0


def test_read_mentions_keeps_distinct_records_apart(report, tmp_path):
    base = next(m.to_dict() for m in report.mentions
                if m.org_link is not None and m.org_link.record.world_rank is not None)
    link = base["org_link"]
    variants = [
        link,
        {**link, "world_rank": link["world_rank"] + 1},
        # equal to the first as a number, but written back as a float
        {**link, "world_rank": float(link["world_rank"])},
        {**link, "org_type": "federal", "world_rank": None, "public_health_rank": None},
    ]
    path = tmp_path / "m.jsonl"
    path.write_text(
        "".join(json.dumps({**base, "org_link": v}, sort_keys=True) + "\n" for v in variants * 2),
        encoding="utf-8",
    )
    back = list(read_mentions_jsonl(path))
    records = [m.org_link.record for m in back]
    assert len({id(r) for r in records}) == len(variants)
    assert all(a is b for a, b in zip(records, records[len(variants):]))
    again = write_mentions_jsonl(back, tmp_path / "again.jsonl")
    assert again.read_bytes() == path.read_bytes()


def test_read_mentions_allows_json_whitespace_around_a_line(report, tmp_path):
    # as json.loads does; the blank line is skipped
    path = write_mentions_jsonl(report.mentions, tmp_path / "m.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines()
    padded = tmp_path / "padded.jsonl"
    padded.write_text("".join(f" \t{line} \r\n\n" for line in lines), encoding="utf-8")
    assert list(read_mentions_jsonl(padded)) == list(report.mentions)


def test_mention_to_dict_round_trip(report):
    for m in report.mentions:
        assert ExpertMention.from_dict(m.to_dict()) == m


# ---------------------------------------------------------------------------
# emit


def test_emit_json_only(report, tmp_path):
    written = emit(report, {"json"}, tmp_path)
    assert len(written) == 1
    loaded = json.loads(written[0].read_text(encoding="utf-8"))
    assert loaded == json.loads(report.to_json())


def test_emit_unknown_format_rejected(report, tmp_path):
    with pytest.raises(ValueError):
        emit(report, {"json", "pdf"}, tmp_path)


def test_emit_full_set(report, tmp_path):
    written = emit(report, {"json", "csv", "svg"}, tmp_path)
    names = {p.name for p in written}
    assert "report.json" in names
    svgs = [p for p in written if p.suffix == ".svg"]
    csvs = [p for p in written if p.suffix == ".csv"]
    assert len(svgs) == 5
    assert len(csvs) == 12
    for p in svgs:
        root = ET.parse(p).getroot()
        assert root.tag.endswith("svg")


def test_gender_composition_csv_partitions(report, tmp_path):
    emit(report, {"csv"}, tmp_path)
    with (tmp_path / "gender_composition.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    first = rows[0]
    assert first["scope"] == "mentions"
    assert float(first["man_share"]) + float(first["woman_share"]) == pytest.approx(1.0)
    assert int(first["n_man"]) == GOLD["counts"]["gender_mentions"]["Man"]


def test_rank_attention_csv_matches_gold(report, tmp_path):
    emit(report, {"csv"}, tmp_path)
    with (tmp_path / "rank_attention_counts.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    overall = {r["rank"]: int(r["mentions"]) for r in rows
               if r["scope"] == "overall" and int(r["mentions"]) > 0}
    assert overall == GOLD["world_rank_counts"]


# The CSV emitter as it was before the tables became one spec, kept verbatim
# as the reference the table spec must reproduce byte for byte.


def reference_csv_tables(report: AuditReport, out: Path) -> list[Path]:
    d = report.data
    written = []

    def table(name: str, header, rows) -> None:
        written.append(_write_csv(out / f"{name}.csv", header, rows))

    comp = d.get("gender_composition")
    table(
        "gender_composition",
        ["scope", "man_share", "woman_share", "n_man", "n_woman", "n_unknown"],
        []
        if not comp
        else [
            [
                scope,
                comp[scope]["man_share"],
                comp[scope]["woman_share"],
                comp[scope]["counts"]["Man"],
                comp[scope]["counts"]["Woman"],
                comp[scope]["counts"]["Unknown"],
            ]
            for scope in ("mentions", "unique_experts")
        ],
    )

    gbo = d.get("gender_by_org_type")
    rows = []
    if gbo:
        for org_type, block in gbo.items():
            for gender in ("Man", "Woman", "Unknown"):
                bs = block["bootstrap"][gender]
                rows.append(
                    [
                        org_type,
                        gender,
                        block["n"],
                        block["shares"][gender],
                        bs.get("ci_low"),
                        bs.get("ci_high"),
                    ]
                )
    table(
        "gender_by_org_type",
        ["org_type", "gender", "n", "share", "ci_low", "ci_high"],
        rows,
    )

    obo = d.get("org_type_by_outlet")
    table(
        "org_type_by_outlet",
        ["outlet", "ideology", "n_linked", "academic", "federal", "think_tank"],
        []
        if not obo
        else [
            [
                outlet,
                block["ideology"],
                block["n_linked"],
                block["shares"]["academic"],
                block["shares"]["federal"],
                block["shares"]["think_tank"],
            ]
            for outlet, block in obo.items()
        ],
    )

    ratios = d.get("outlet_ratios")
    table(
        "outlet_ratios",
        ["outlet", "ideology", "n_men", "n_women", "ratio", "ci_low", "ci_high"],
        []
        if not ratios
        else [
            [
                outlet,
                block["ideology"],
                block["n_men"],
                block["n_women"],
                block["ratio"],
                block["bootstrap"].get("ci_low"),
                block["bootstrap"].get("ci_high"),
            ]
            for outlet, block in ratios.items()
        ],
    )

    rank = d.get("rank_attention")
    scatter_rows = []
    summary_rows = []
    if rank:
        scopes = [
            ("overall", rank["overall"]),
            ("left", rank["by_ideology"]["left"]),
            ("right", rank["by_ideology"]["right"]),
            ("man", rank["by_gender"]["Man"]),
            ("woman", rank["by_gender"]["Woman"]),
            ("public_health", rank["public_health"]),
        ]
        for scope, block in scopes:
            summary_rows.append(
                [
                    scope,
                    block["n_institutions"],
                    block["mentions"],
                    block["gini"],
                    block["spearman"],
                ]
            )
            for r, c in block["counts_by_rank"].items():
                scatter_rows.append([scope, int(r), c])
    table(
        "rank_attention_summary",
        ["scope", "n_institutions", "mentions", "gini", "spearman"],
        summary_rows,
    )
    table("rank_attention_counts", ["scope", "rank", "mentions"], scatter_rows)

    cum_rows = []
    if rank:
        cum = rank["cumulative_by_gender"]
        for gender in ("Man", "Woman"):
            shares = cum[gender]["shares"]
            if shares:
                for cut, share in zip(cum["cut_points"], shares):
                    cum_rows.append([gender, cut, share])
    table("cumulative_attention", ["gender", "top_n", "share"], cum_rows)

    bin_rows = []
    if rank and rank["binned_by_ideology"]["shares"]:
        width = rank["binned_by_ideology"]["bin_width"]
        shares = rank["binned_by_ideology"]["shares"]
        n_bins = len(next(iter(shares.values())))
        for i in range(n_bins):
            bin_rows.append(
                [
                    i * width + 1,
                    (i + 1) * width,
                    shares["left"][i],
                    shares["right"][i],
                ]
            )
    table(
        "binned_attention",
        ["rank_from", "rank_to", "left_share", "right_share"],
        bin_rows,
    )

    sl = d.get("sentence_length")
    table(
        "sentence_length",
        ["gender", "n", "mean_chars"],
        []
        if not sl
        else [
            ["Man", sl["men"]["n"], sl["men"]["mean_chars"]],
            ["Woman", sl["women"]["n"], sl["women"]["mean_chars"]],
        ],
    )

    co = d.get("co_mention")
    table(
        "co_mention",
        [
            "man_sentences",
            "woman_sentences",
            "mixed_sentences",
            "p_man_given_woman_sentence",
            "p_woman_given_man_sentence",
        ],
        []
        if not co
        else [
            [
                co["man_sentences"],
                co["woman_sentences"],
                co["mixed_sentences"],
                co["p_man_given_woman_sentence"],
                co["p_woman_given_man_sentence"],
            ]
        ],
    )

    prov = d.get("provenance")
    table(
        "provenance",
        ["combo", "mentions"],
        [] if not prov else sorted(prov["by_combo"].items()),
    )

    totals = d.get("totals")
    table(
        "totals",
        [
            "mentions",
            "unique_experts",
            "unknown_fraction_pre_merge",
            "unknown_fraction_post_merge",
            "women_men_ratio",
        ],
        []
        if not totals
        else [
            [
                totals["mentions"],
                totals["unique_experts"],
                totals["unknown_fraction_pre_merge"],
                totals["unknown_fraction_post_merge"],
                totals["women_men"]["ratio"],
            ]
        ],
    )
    return written


def _report_case(report, case: str) -> AuditReport:
    sources = load_source_config(SOURCES)
    config = AuditConfig(bootstrap_iterations=50)
    resources = load_resources()
    mentions = list(report.mentions)
    if case == "empty":
        mentions = []
    elif case == "men_unranked_orgs":
        # cumulative shares null for both genders; binned shares all None
        mentions = [m for m in mentions if m.gender.merged is MergedGender.MAN
                    and (m.org_link is None or m.org_link.record.world_rank is None)]
    elif case == "no_ranked_population":
        # no world ranks at all: cumulative and binned shares both null
        resources = dataclasses.replace(resources, gazetteers=tuple(
            r for r in resources.gazetteers
            if r.world_rank is None and r.public_health_rank is None))
    return build_report(mentions, sources, config, resources=resources)


@pytest.mark.parametrize(
    "case", ["fixture", "empty", "men_unranked_orgs", "no_ranked_population"]
)
def test_csv_table_spec_matches_reference_emitter(report, tmp_path, case):
    rep = _report_case(report, case)
    rank = rep.data["rank_attention"]
    if case == "men_unranked_orgs":
        assert rank["cumulative_by_gender"]["Man"]["shares"] is None
        assert set(rank["binned_by_ideology"]["shares"]["left"]) == {None}
    if case == "no_ranked_population":
        assert rank["cumulative_by_gender"]["Woman"]["shares"] is None
        assert rank["binned_by_ideology"]["shares"] is None
    (tmp_path / "ref").mkdir()
    (tmp_path / "new").mkdir()
    ref = reference_csv_tables(rep, tmp_path / "ref")
    new = _csv_tables(rep, tmp_path / "new")
    assert [p.name for p in new] == [p.name for p in ref]
    assert len(new) == 12
    for a, b in zip(ref, new):
        assert b.read_bytes() == a.read_bytes(), b.name


# ---------------------------------------------------------------------------
# degenerate corpora


def make_corpus(tmp_path, lines):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    sources = tmp_path / "sources.json"
    sources.write_text(json.dumps({
        "one": {"display_name": "One", "ideology": "left", "self_org_names": ["One Daily"]},
        "two": {"display_name": "Two", "ideology": "right", "self_org_names": ["Two Wire"]},
    }), encoding="utf-8")
    return corpus, sources


def test_empty_corpus_yields_empty_report(tmp_path):
    corpus, sources = make_corpus(tmp_path, [])
    report = run_audit(corpus, sources)
    assert report.empty
    assert report.data["totals"] is None
    assert report.data["rank_attention"] is None
    written = emit(report, {"json", "csv", "svg"}, tmp_path / "out")
    with (tmp_path / "out" / "gender_composition.csv").open(encoding="utf-8") as fh:
        assert len(list(csv.reader(fh))) == 1  # header only
    for p in written:
        if p.suffix == ".svg":
            ET.parse(p)


def test_quotes_without_experts_yield_empty_report(tmp_path):
    corpus, sources = make_corpus(tmp_path, [{
        "id": "x1", "source": "one", "published_at": "2020-03-01T00:00:00Z",
        "title": "t", "body": "The sky stayed clear all day.",
    }])
    report = run_audit(corpus, sources)
    assert report.empty


# ---------------------------------------------------------------------------
# labeling sample


def test_sample_sheet_contents(report, tmp_path):
    mentions_path = write_mentions_jsonl(report.mentions, tmp_path / "m.jsonl")
    out = sample_for_labeling(mentions_path, 5, 7, tmp_path / "sheet.csv")
    with out.open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ids = {r["article_id"] for r in rows}
    assert len(ids) == 5
    assert all(r["correct"] == "" for r in rows)
    # deterministic for a fixed seed
    again = sample_for_labeling(mentions_path, 5, 7, tmp_path / "sheet2.csv")
    assert out.read_bytes() == again.read_bytes()
    different = sample_for_labeling(mentions_path, 5, 8, tmp_path / "sheet3.csv")
    assert out.read_bytes() != different.read_bytes()


def test_sample_sheet_zero_rows(report, tmp_path):
    mentions_path = write_mentions_jsonl(report.mentions, tmp_path / "m.jsonl")
    out = sample_for_labeling(mentions_path, 0, 0, tmp_path / "sheet.csv")
    with out.open(encoding="utf-8") as fh:
        assert len(list(csv.reader(fh))) == 1


def test_sample_sheet_oversample_rejected(report, tmp_path):
    mentions_path = write_mentions_jsonl(report.mentions, tmp_path / "m.jsonl")
    with pytest.raises(ValueError, match="only"):
        sample_for_labeling(mentions_path, 999, 0, tmp_path / "sheet.csv")
    with pytest.raises(ValueError):
        sample_for_labeling(mentions_path, -1, 0, tmp_path / "sheet.csv")


# ---------------------------------------------------------------------------
# gender mode


def test_majority_gender_mode_changes_nothing_here():
    # every fixture expert has a consistent gender across their mentions
    first = run_audit(CORPUS, SOURCES, config=AuditConfig(gender_mode="first"))
    majority = run_audit(CORPUS, SOURCES, config=AuditConfig(gender_mode="majority"))
    assert (first.data["gender_composition"]
            == majority.data["gender_composition"])
