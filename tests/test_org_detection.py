"""Organization detection with the gazetteer and the outlet names indexed apart.

``find_org_mentions`` takes the gazetteer names and the publishing
outlet's own names as two inputs, so one index of the gazetteer serves
every outlet, and it trims a run by index.  The reference below is the
earlier function, which matched a run against one concatenated name list
and trimmed by popping tokens; it is kept verbatim except that the name
match is a plain scan over the names.  A run matches the concatenation
exactly when it matches one of its parts, so the two must agree on every
sentence.
"""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from newsaudit import entities, orglink, synth
from newsaudit.corpus import load_source_config
from newsaudit.entities import (
    _CUES_WITH_PLURALS,
    _ORG_GAP,
    ORG_CONNECTORS,
    OrgMention,
    _gap,
    _is_cap,
    _tokens,
    find_org_mentions,
)
from newsaudit.orglink import MATCH_THRESHOLD, token_set_similarity
from newsaudit.report import extract_mentions, load_resources


def _reference_matches(text, names):
    return any(token_set_similarity(text, n) >= MATCH_THRESHOLD for n in names)


def reference_find_org_mentions(sentence, toks, gazetteer_names, exclude_spans=()):
    text = getattr(sentence, "text", sentence)
    names_t = tuple(gazetteer_names)
    mentions = []
    run = []

    def _covered(tok):
        return any(tok.start < hi and lo < tok.end for lo, hi in exclude_spans)

    def flush():
        nonlocal run
        items = list(run)
        run = []
        while True:
            before = len(items)
            while items and _covered(items[0]):
                items.pop(0)
            while items and items[0].text.casefold() in ORG_CONNECTORS:
                items.pop(0)
            if len(items) == before:
                break
        while items and items[-1].text.casefold() in ORG_CONNECTORS:
            items.pop()
        if not items:
            return
        if not (_is_cap(items[0].text) and _is_cap(items[-1].text)):
            return
        mention_text = text[items[0].start:items[-1].end]
        if len(mention_text.strip()) < 3:
            return
        if not (
            any(t.text in _CUES_WITH_PLURALS for t in items)
            or _reference_matches(mention_text, names_t)
        ):
            return
        mentions.append(
            OrgMention(text=mention_text, span=(items[0].start, items[-1].end))
        )

    for tok in toks:
        joins = _is_cap(tok.text) or tok.text in ORG_CONNECTORS
        if run:
            if joins and _gap(text, run[-1], tok, _ORG_GAP):
                run.append(tok)
                continue
            flush()
        if _is_cap(tok.text):
            run.append(tok)
    flush()
    return mentions


GAZETTEER = ("Harvard University", "Centers for Disease Control and Prevention",
             "Hoover Institution", "Brookings Institution", "Johns Hopkins University",
             "Food and Drug Administration", "RAND Corporation")
OUTLETS = ("Fox News", "The Daily Ledger", "Daily Ledger", "CNN", "Cable News Network")

_WORDS = (
    "Harvard", "University", "Universities", "of", "the", "The", "for", "and", "at",
    "on", "de", "la", "Centers", "Disease", "Control", "Prevention", "Fox", "News",
    "Daily", "Ledger", "Cable", "Network", "CNN", "Hoover", "Institution", "Brookings",
    "Johns", "Hopkins", "Food", "Drug", "Administration", "RAND", "Corporation",
    "Jane", "Doe", "Dr", "John", "Marsh", "said", "virus", "Yale", "AB", "X", "Of",
)
_SEPARATORS = (" ", " ", " ", " ", "-", ". ", ", ", ".", "  ", " - ")


@st.composite
def sentences(draw):
    words = draw(st.lists(st.sampled_from(_WORDS), max_size=18))
    text = ""
    for word in words:
        text += draw(st.sampled_from(_SEPARATORS)) + word if text else word
    n = len(text)
    spans = draw(st.lists(
        st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)).map(sorted).map(tuple),
        max_size=3,
    ))
    gazetteer = draw(st.lists(st.sampled_from(GAZETTEER), max_size=4, unique=True))
    outlet = draw(st.lists(st.sampled_from(OUTLETS), max_size=3, unique=True))
    return text, spans, gazetteer, outlet


@settings(max_examples=500, deadline=None)
@given(sentences())
def test_find_org_mentions_matches_concatenated_reference(case):
    text, spans, gazetteer, outlet = case
    toks = _tokens(text)
    assert (find_org_mentions(text, toks, gazetteer, exclude_spans=spans, outlet_names=outlet)
            == reference_find_org_mentions(text, toks, gazetteer + outlet, spans))


def test_find_org_mentions_cases_against_reference():
    cases = [
        ("Dr. Jane Doe of the Food and Drug Administration said so.", [(0, 12)]),
        ("John Marsh of Yale University and the Daily Ledger agreed.", [(0, 10)]),
        ("The Daily Ledger reported it.", []),
        ("Fox News - Harvard University, of the CNN on", [(0, 3), (20, 30)]),
        ("Of the Of", [(0, 2)]),
    ]
    for text, spans in cases:
        toks = _tokens(text)
        got = find_org_mentions(text, toks, GAZETTEER, exclude_spans=spans, outlet_names=OUTLETS)
        assert got == reference_find_org_mentions(text, toks, GAZETTEER + OUTLETS, spans)
    # an outlet's own name is detected through the outlet names only
    text = "The Daily Ledger reported it."
    assert [m.text for m in find_org_mentions(text, _tokens(text), GAZETTEER)] == []
    assert [m.text for m in find_org_mentions(
        text, _tokens(text), GAZETTEER, outlet_names=OUTLETS)] == ["Daily Ledger"]


def _rekeyed_planted_corpus(tmp_path: Path, n_outlets: int) -> "tuple[Path, Path]":
    """The seed-7 planted corpus with its articles dealt round-robin over
    ``n_outlets`` outlets, each with its own self names."""
    synth.make_planted_corpus(tmp_path, n_articles=300, seed=7)
    lines = (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    corpus = tmp_path / "rekeyed.jsonl"
    with corpus.open("w", encoding="utf-8") as fh:
        for i, line in enumerate(lines):
            record = json.loads(line)
            record["source"] = f"o{i % n_outlets:02d}"
            fh.write(json.dumps(record) + "\n")
    base = list(synth.OUTLETS.values())
    sources = tmp_path / "rekeyed_sources.json"
    sources.write_text(json.dumps({
        f"o{k:02d}": {
            "display_name": f"{base[k % len(base)][0]} {k}",
            "ideology": base[k % len(base)][1],
            "self_org_names": [*base[k % len(base)][2], f"Outlet Number {k}"],
        }
        for k in range(n_outlets)
    }), encoding="utf-8")
    return corpus, sources


def test_gazetteer_is_indexed_once_per_run_across_interleaved_outlets(tmp_path, monkeypatch):
    corpus, sources_path = _rekeyed_planted_corpus(tmp_path, 20)
    resources = load_resources()
    sources = load_source_config(sources_path)
    full = len(resources.gazetteers)
    sizes = []
    build = orglink.NameIndex.__init__

    def counting_init(self, names=()):
        names = list(names)
        sizes.append(len(names))
        build(self, names)

    monkeypatch.setattr(orglink.NameIndex, "__init__", counting_init)
    monkeypatch.setattr(orglink, "_LINK_INDEXES", [])
    entities._name_index.cache_clear()
    entities._index_matches.cache_clear()
    mentions, counts = extract_mentions(corpus, sources, resources)
    assert len(counts.articles_by_outlet) == 20 and len(mentions) == 600
    # one index to link, one to detect; every outlet's own index is small
    assert sum(size >= full for size in sizes) <= 2
    assert max(size for size in sizes if size < full) <= 3
