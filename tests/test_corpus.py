"""Tests for article ingestion and sentence segmentation."""

import json
from datetime import timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newsaudit.corpus import (
    Ideology,
    IngestStats,
    Outlet,
    Sentence,
    load_source_config,
    normalize_quotes,
    parse_article_stream,
    segment_sentences,
)


# ---------------------------------------------------------------------------
# ingestion

GOOD = {
    "id": "a1",
    "source": "nyt",
    "published_at": "2020-03-01T00:00:00Z",
    "title": "t",
    "body": "b",
}


def _write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) if isinstance(r, dict) else r for r in records))


def test_parse_single_article(tmp_path):
    f = tmp_path / "c.jsonl"
    _write_jsonl(f, [GOOD])
    arts = list(parse_article_stream(f))
    assert len(arts) == 1
    a = arts[0]
    assert a.id == "a1" and a.source == "nyt"
    assert a.published_at.tzinfo is not None
    assert a.published_at.astimezone(timezone.utc).hour == 0
    assert a.title == "t" and a.body == "b"


def test_parse_empty_file(tmp_path):
    f = tmp_path / "c.jsonl"
    f.write_text("")
    stats = IngestStats()
    assert list(parse_article_stream(f, stats)) == []
    assert stats.articles == 0
    assert stats.skipped_malformed == 0


def test_parse_missing_field_skipped_and_counted(tmp_path):
    f = tmp_path / "c.jsonl"
    bad = {k: v for k, v in GOOD.items() if k != "body"}
    good2 = dict(GOOD, id="a2")
    good3 = dict(GOOD, id="a3")
    _write_jsonl(f, [GOOD, bad, good2, good3])
    stats = IngestStats()
    arts = list(parse_article_stream(f, stats))
    assert [a.id for a in arts] == ["a1", "a2", "a3"]
    assert stats.skipped_missing_fields == 1
    assert stats.articles == 3


def test_parse_malformed_line_skipped(tmp_path):
    f = tmp_path / "c.jsonl"
    _write_jsonl(f, [GOOD, "{not json", json.dumps(dict(GOOD, id="a2"))])
    stats = IngestStats()
    arts = list(parse_article_stream(f, stats))
    assert len(arts) == 2
    assert stats.skipped_malformed == 1


def test_parse_duplicate_id_skipped(tmp_path):
    f = tmp_path / "c.jsonl"
    _write_jsonl(f, [GOOD, dict(GOOD, title="other")])
    stats = IngestStats()
    arts = list(parse_article_stream(f, stats))
    assert len(arts) == 1
    assert arts[0].title == "t"  # first occurrence wins
    assert stats.skipped_duplicate_id == 1


def test_parse_bad_timestamp_skipped(tmp_path):
    f = tmp_path / "c.jsonl"
    _write_jsonl(f, [dict(GOOD, published_at="not-a-date"), dict(GOOD, id="a2")])
    stats = IngestStats()
    arts = list(parse_article_stream(f, stats))
    assert [a.id for a in arts] == ["a2"]
    assert stats.skipped_malformed == 1


def test_parse_non_string_title_or_body_skipped(tmp_path, caplog):
    # str() would audit a null body as the sentence "None", and read a null
    # id as the id "None", so that a later real "None" was a duplicate
    f = tmp_path / "c.jsonl"
    bad = [dict(GOOD, id="n", body=None), dict(GOOD, id="k", body=3),
           dict(GOOD, id="l", title=["t"]), dict(GOOD, id=None), dict(GOOD, id=7),
           dict(GOOD, id="s", source=None), dict(GOOD, id=["a1"], source=1),
           dict(GOOD, id="p", published_at=5), dict(GOOD, id="q", published_at=None, title=1)]
    good = [dict(GOOD, id="a2", title="", body=""), dict(GOOD, id="None", source="None")]
    _write_jsonl(f, bad + good)
    stats = IngestStats()
    with caplog.at_level("WARNING", logger="newsaudit.corpus"):
        arts = list(parse_article_stream(f, stats))
    assert [(a.id, a.source) for a in arts] == [("a2", "nyt"), ("None", "None")]
    assert stats.skipped_malformed == 9 and stats.articles == 2
    assert stats.skipped_duplicate_id == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"{f}:1: skipping record whose body is not a string",
        f"{f}:2: skipping record whose body is not a string",
        f"{f}:3: skipping record whose title is not a string",
        f"{f}:4: skipping record whose id is not a string",
        f"{f}:5: skipping record whose id is not a string",
        f"{f}:6: skipping record whose source is not a string",
        f"{f}:7: skipping record whose id and source are not strings",
        f"{f}:8: skipping record whose published_at is not a string",
        f"{f}:9: skipping record whose published_at and title are not strings",
    ]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
# a record whose fields may be missing, mistyped or nested; ids repeat
_RECORDS = st.fixed_dictionaries(
    {},
    optional={
        "id": st.sampled_from(["a1", "a2", ""]) | _JSON,
        "source": st.just("nyt") | _JSON,
        "published_at": st.just(GOOD["published_at"]) | st.text(max_size=25) | _JSON,
        "title": st.just("t") | _JSON,
        "body": st.just("b") | _JSON,
        "extra": _JSON,
    },
)
_LINES = st.lists(
    st.text(st.characters(exclude_categories=("Cs",)), max_size=30)
    | _JSON.map(json.dumps)
    | _RECORDS.map(json.dumps),
    max_size=8,
)


@given(lines=_LINES)
@example(lines=["[" * 200_000, '{"id": ' + "1" * 5000 + "}", "{}", "[]", "null"])
@example(lines=[json.dumps(GOOD), json.dumps(dict(GOOD, body=["x", {"y": 1}]))])
@settings(max_examples=200, deadline=None)
def test_parse_article_stream_fuzz(tmp_path_factory, lines):
    f = tmp_path_factory.mktemp("fuzz") / "c.jsonl"
    f.write_text("\n".join(lines), encoding="utf-8")
    stats = IngestStats()
    arts = list(parse_article_stream(f, stats))
    assert len(arts) == stats.articles
    assert len({a.id for a in arts}) == len(arts)
    assert all(a.id and isinstance(a.body, str) for a in arts)
    assert stats.total_lines == (
        stats.articles + stats.skipped_malformed
        + stats.skipped_missing_fields + stats.skipped_duplicate_id
    )


def test_parse_missing_file_fatal(tmp_path):
    with pytest.raises(FileNotFoundError):
        list(parse_article_stream(tmp_path / "absent.jsonl"))


def test_parse_is_lazy(tmp_path):
    f = tmp_path / "c.jsonl"
    _write_jsonl(f, [GOOD])
    gen = parse_article_stream(f)
    assert iter(gen) is gen


def test_parse_normalizes_curly_quotes(tmp_path):
    f = tmp_path / "c.jsonl"
    body = "“Stay home,” said Dr. Smith."
    _write_jsonl(f, [dict(GOOD, body=body)])
    (a,) = parse_article_stream(f)
    assert a.body == '"Stay home," said Dr. Smith.'


def test_normalize_quotes_only_touches_double_curly():
    assert normalize_quotes("“x” y’s") == '"x" y’s'


# ---------------------------------------------------------------------------
# source config

def test_load_source_config(tmp_path):
    f = tmp_path / "sources.json"
    f.write_text(json.dumps({
        "nyt": {"display_name": "New York Times", "ideology": "left",
                "self_org_names": ["New York Times", "The Times"]},
        "fox": {"display_name": "Fox News", "ideology": "right",
                "self_org_names": ["Fox News"]},
    }))
    cfg = load_source_config(f)
    assert cfg.get("nyt").ideology is Ideology.LEFT
    assert cfg.get("fox").ideology is Ideology.RIGHT
    assert "fox" in cfg and cfg.get("cnn") is None
    assert cfg.get("nyt").self_org_names == ("New York Times", "The Times")


def test_load_source_config_rejects_unknown_ideology(tmp_path):
    f = tmp_path / "sources.json"
    f.write_text(json.dumps({
        "x": {"display_name": "X", "ideology": "center", "self_org_names": ["X"]},
    }))
    with pytest.raises(ValueError, match="ideology"):
        load_source_config(f)


def test_outlet_requires_self_org_names():
    with pytest.raises(ValueError):
        Outlet(key="x", display_name="X", ideology=Ideology.LEFT, self_org_names=())


# ---------------------------------------------------------------------------
# segmentation

def texts(body):
    return [s.text for s in segment_sentences(body, "a")]


def test_segment_empty():
    assert segment_sentences("") == []
    assert segment_sentences("   \n ") == []


def test_segment_single_sentence():
    assert texts("Masks work.") == ["Masks work."]


def test_segment_two_plain_sentences():
    assert texts("Masks work. Experts agree.") == ["Masks work.", "Experts agree."]


def test_segment_abbreviations_do_not_split():
    assert texts("Dr. Smith spoke. Mr. Jones left.") == [
        "Dr. Smith spoke.", "Mr. Jones left."]
    assert texts("He met Gov. Whitmer. She waved.") == [
        "He met Gov. Whitmer.", "She waved."]
    assert texts("Cases rose in the U.S. More tests came.") == [
        "Cases rose in the U.S. More tests came."]
    assert texts("Witness No. 5 spoke.") == ["Witness No. 5 spoke."]


def test_segment_abbreviation_needs_word_boundary():
    # "SGov." ends with the listed string but inside a longer word.
    assert texts("They fled SGov. Then they hid.") == [
        "They fled SGov.", "Then they hid."]


def test_segment_initials_do_not_split():
    assert texts("Gen. Gustave F. Perna spoke to senators.") == [
        "Gen. Gustave F. Perna spoke to senators."]
    assert texts("George W. Bush attended.") == ["George W. Bush attended."]
    # A capital at the end of a real word still terminates.
    assert texts("They sat in row AB. Then they left.") == [
        "They sat in row AB.", "Then they left."]


def test_segment_quoted_region_protects_terminators():
    body = 'He said, "Masks work. Wear one," and left for lunch.'
    assert texts(body) == [body]


def test_segment_boundary_moves_past_closing_quote():
    assert texts('"Stay home." He nodded.') == ['"Stay home."', "He nodded."]


def test_segment_quoted_terminators_stay_inside():
    body = 'Dr. Smith said, "Stay home. Wash hands." Then he left.'
    assert texts(body) == ['Dr. Smith said, "Stay home. Wash hands."', "Then he left."]


def test_segment_attribution_tail_not_split():
    # Lowercase continuation after the closing quote stays attached.
    body = '"Stop!" he shouted from the porch.'
    assert texts(body) == [body]


def test_segment_unbalanced_quote_disables_protection():
    assert texts('She said "go now. Stay calm.') == ['She said "go now.', "Stay calm."]


def test_segment_lowercase_follow_does_not_split():
    assert texts("It rose. then fell.") == ["It rose. then fell."]


def test_segment_decimal_not_split():
    assert texts("It rose 3.5 percent. Then it fell.") == [
        "It rose 3.5 percent.", "Then it fell."]


def test_segment_question_and_exclamation():
    assert texts("Will it work? Experts say yes!") == [
        "Will it work?", "Experts say yes!"]
    assert texts("What?! Now.") == ["What?!", "Now."]


def test_segment_split_before_opening_quote():
    assert texts('He paused. "Go home," she said.') == [
        "He paused.", '"Go home," she said.']


def test_segment_offsets_match_body():
    body = '  Dr. Smith spoke. "Stay. Home." Then he left.  '
    sents = segment_sentences(body, "a7")
    assert all(s.article_ref == "a7" for s in sents)
    assert [s.index for s in sents] == list(range(len(sents)))
    for s in sents:
        assert body[s.span[0]:s.span[1]] == s.text
    for prev, cur in zip(sents, sents[1:]):
        assert prev.span[1] <= cur.span[0]


_SEG_ALPHABET = 'abcd efg ABCD.!?" \n,’-'


@st.composite
def bodies(draw):
    return draw(st.text(alphabet=_SEG_ALPHABET, max_size=200))


@given(bodies())
@example('He said, "Masks work. Wear one," and left. Then: "Go." Now.')
@example('A. B." C?! d. E "f. G"')
@settings(max_examples=300)
def test_segment_reconstruction_property(body):
    sents = segment_sentences(body, "x")
    covered = [False] * len(body)
    for s in sents:
        lo, hi = s.span
        assert body[lo:hi] == s.text
        assert s.text == s.text.strip()
        for k in range(lo, hi):
            covered[k] = True
    for k, c in enumerate(covered):
        if not c:
            assert body[k].isspace(), f"uncovered non-space at {k}: {body[k]!r}"


@given(bodies())
@settings(max_examples=300)
def test_segment_idempotence_property(body):
    for s in segment_sentences(body, "x"):
        again = segment_sentences(s.text, "x")
        assert len(again) == 1
        assert again[0].text == s.text


@given(bodies())
@settings(max_examples=300)
def test_segment_spans_increasing_property(body):
    sents = segment_sentences(body, "x")
    assert [s.index for s in sents] == list(range(len(sents)))
    for prev, cur in zip(sents, sents[1:]):
        assert prev.span[1] <= cur.span[0]
        assert prev.span[0] < prev.span[1]


@given(bodies())
@settings(max_examples=300)
def test_segment_balanced_quote_regions_stay_whole_property(body):
    # Pair up straight quotes in order of appearance; every balanced pair
    # must land entirely inside a single sentence span, never across a
    # boundary.
    positions = [i for i, c in enumerate(body) if c == '"']
    regions = [(positions[k], positions[k + 1])
               for k in range(0, len(positions) - 1, 2)]
    spans = [s.span for s in segment_sentences(body, "x")]
    for open_, close in regions:
        holders = [sp for sp in spans if sp[0] <= open_ and close < sp[1]]
        assert len(holders) == 1, (
            f"quote region ({open_}, {close}) not contained in one sentence")