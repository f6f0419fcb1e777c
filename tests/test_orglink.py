"""Tests for name matching and gazetteer linking."""

import logging
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsaudit.orglink import (
    MATCH_THRESHOLD,
    OrgLink,
    OrgRecord,
    OrgType,
    default_gazetteer_dir,
    levenshtein,
    link_org,
    load_gazetteers,
    score_at_least,
    token_set_similarity,
)


# ---------------------------------------------------------------------------
# levenshtein

def test_levenshtein_basics():
    assert levenshtein("", "") == 0
    assert levenshtein("abc", "") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("flaw", "lawn") == 2
    assert levenshtein("same", "same") == 0


@given(st.text(max_size=30), st.text(max_size=30))
def test_levenshtein_symmetric_and_bounded(a, b):
    d = levenshtein(a, b)
    assert d == levenshtein(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


@given(st.text(max_size=20), st.text(max_size=20), st.text(max_size=20))
@settings(max_examples=50)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# ---------------------------------------------------------------------------
# token-set similarity

def test_similarity_identical_strings():
    assert token_set_similarity("Harvard University", "Harvard University") == 100


def test_similarity_word_order_irrelevant():
    assert token_set_similarity("University Harvard", "Harvard University") == 100


def test_similarity_case_and_punctuation_folded():
    assert token_set_similarity("HARVARD UNIVERSITY", "harvard-university") == 100


def test_similarity_token_subset_scores_100():
    # One name containing all of the other's tokens is a perfect match,
    # which is what lets "The University of Maryland - College Park"
    # match "The University of Maryland".
    a = "The University of Maryland - College Park"
    b = "The University of Maryland"
    assert token_set_similarity(a, b) == 100
    assert token_set_similarity(b, a) == 100


def test_similarity_possessive_suffix_scores_100():
    # "'s" tokenizes to a stray "s" token on one side only.
    assert token_set_similarity("Harvard University's", "Harvard University") == 100


def test_similarity_abbreviation_stays_low():
    assert token_set_similarity("CDC", "Centers for Disease Control and Prevention") < MATCH_THRESHOLD


def test_similarity_unrelated_names_low():
    assert token_set_similarity("Stanford University", "Brookings Institution") < 50


def test_similarity_close_variant_above_threshold():
    s = token_set_similarity("Johns Hopkins University", "John Hopkins University")
    assert s >= MATCH_THRESHOLD


def test_similarity_empty_vs_empty():
    assert token_set_similarity("", "") == 100
    assert token_set_similarity("...", "") == 100  # no tokens on either side


def test_similarity_degenerate_empty_side():
    # With no tokens on one side, the intersection and that side collapse
    # to the same empty string and the best pair scores 100.  Linking is
    # protected by the minimum mention length, not by the scorer.
    assert token_set_similarity("", "Harvard") == 100


_name_st = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" -."),
    max_size=40,
)


@given(_name_st, _name_st)
def test_similarity_symmetric_and_in_range(a, b):
    s = token_set_similarity(a, b)
    assert s == token_set_similarity(b, a)
    assert 0 <= s <= 100


@given(_name_st)
def test_similarity_reflexive(a):
    assert token_set_similarity(a, a) == 100


@given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"]),
                min_size=1, max_size=5, unique=True))
def test_similarity_subset_always_100(tokens):
    whole = " ".join(tokens)
    part = " ".join(tokens[: max(1, len(tokens) - 1)])
    assert token_set_similarity(whole, part) == 100


# ---------------------------------------------------------------------------
# linking

_GAZ = [
    OrgRecord("Harvard University", OrgType.ACADEMIC, world_rank=6),
    OrgRecord("The University of Maryland", OrgType.ACADEMIC, world_rank=99),
    OrgRecord("Centers for Disease Control and Prevention", OrgType.FEDERAL),
    OrgRecord("Brookings Institution", OrgType.THINK_TANK),
]


def test_link_exact_name():
    link = link_org("Harvard University", _GAZ)
    assert link is not None
    assert link.record.name == "Harvard University"
    assert link.score == 100


def test_link_qualified_variant():
    link = link_org("The University of Maryland - College Park", _GAZ)
    assert link is not None
    assert link.record.world_rank == 99


def test_link_abbreviation_rejected():
    assert link_org("CDC", _GAZ) is None


def test_link_short_mention_rejected():
    # Anything under three alphanumeric characters is noise.
    assert link_org("AP", _GAZ) is None
    assert link_org(" s ", _GAZ) is None


def test_link_punctuation_fragment_rejected():
    # "''s" would subset-match any record with an 's' token (possessives
    # tokenize that way); the length filter must count letters, not quotes.
    gaz = [OrgRecord("King's College London", OrgType.ACADEMIC, world_rank=27)]
    assert link_org("''s", gaz) is None
    assert link_org("King's College London", gaz) is not None


def test_link_below_threshold_rejected():
    assert link_org("Entirely Unrelated Name", _GAZ) is None


def test_link_accepts_object_with_text_attribute():
    class Mention:
        text = "Brookings Institution"

    link = link_org(Mention(), _GAZ)
    assert link is not None
    assert link.record.org_type is OrgType.THINK_TANK


def test_link_rejects_non_string():
    with pytest.raises(TypeError):
        link_org(42, _GAZ)


def test_link_tie_break_is_order_independent():
    """Equal scores resolve by org type then name, not list position."""
    a = OrgRecord("Alpha Beta Institute", OrgType.THINK_TANK)
    b = OrgRecord("Alpha Beta Agency", OrgType.FEDERAL)
    l1 = link_org("Alpha Beta", [a, b])
    l2 = link_org("Alpha Beta", [b, a])
    assert l1 is not None and l2 is not None
    assert l1.record == l2.record
    assert l1.record.org_type is OrgType.FEDERAL  # federal outranks think tank


def test_link_same_type_tie_breaks_lexicographically():
    a = OrgRecord("Zeta Health Agency", OrgType.FEDERAL)
    b = OrgRecord("Beta Health Agency", OrgType.FEDERAL)
    link = link_org("Health Agency", [a, b])
    assert link is not None
    assert link.record.name == "Beta Health Agency"


def test_link_empty_gazetteer():
    assert link_org("Harvard University", []) is None


# ---------------------------------------------------------------------------
# record and link invariants

def test_record_rejects_rank_on_non_academic():
    with pytest.raises(ValueError):
        OrgRecord("FDA", OrgType.FEDERAL, world_rank=3)


def test_record_rejects_blank_name():
    with pytest.raises(ValueError):
        OrgRecord("   ", OrgType.FEDERAL)


def test_record_rejects_rank_below_one():
    with pytest.raises(ValueError):
        OrgRecord("X University", OrgType.ACADEMIC, world_rank=0)


def test_link_rejects_sub_threshold_score():
    rec = OrgRecord("Harvard University", OrgType.ACADEMIC, world_rank=6)
    with pytest.raises(ValueError):
        OrgLink("harvard", rec, 80)


# ---------------------------------------------------------------------------
# gazetteer loading

def _write_gazetteers(d: Path, universities, public_health, federal, thinktanks):
    (d / "universities.csv").write_text(
        "# comment line\nrank,name\n" + "".join(f"{r},{n}\n" for r, n in universities)
    )
    (d / "public_health.csv").write_text(
        "rank,name\n" + "".join(f"{r},{n}\n" for r, n in public_health)
    )
    (d / "federal.txt").write_text("# agencies\n" + "".join(f"{n}\n" for n in federal))
    (d / "thinktanks.csv").write_text(
        "name,region\n" + "".join(f"{n},US\n" for n in thinktanks)
    )


def test_load_gazetteers_round_trip(tmp_path):
    _write_gazetteers(
        tmp_path,
        universities=[(1, "Harvard University"), (2, "Yale University")],
        public_health=[(1, "Harvard University")],
        federal=["Food And Drug Administration"],
        thinktanks=["Brookings Institution"],
    )
    records = load_gazetteers(tmp_path)
    by_name = {r.name: r for r in records}
    assert len(records) == 4
    assert by_name["Harvard University"].world_rank == 1
    assert by_name["Harvard University"].public_health_rank == 1
    assert by_name["Yale University"].public_health_rank is None
    assert by_name["Food And Drug Administration"].org_type is OrgType.FEDERAL
    assert by_name["Brookings Institution"].org_type is OrgType.THINK_TANK


def test_load_gazetteers_unmatched_public_health_kept(tmp_path, caplog):
    _write_gazetteers(
        tmp_path,
        universities=[(1, "Harvard University")],
        public_health=[(5, "Tulane University")],
        federal=["Food And Drug Administration"],
        thinktanks=["Brookings Institution"],
    )
    # expected for standalone schools (Tulane has no world-rank entry), so
    # the note is informational rather than a warning
    with caplog.at_level(logging.INFO):
        records = load_gazetteers(tmp_path)
    tulane = next(r for r in records if r.name == "Tulane University")
    assert tulane.org_type is OrgType.ACADEMIC
    assert tulane.world_rank is None
    assert tulane.public_health_rank == 5
    assert any("matches no ranked university" in m for m in caplog.messages)


def test_load_gazetteers_duplicate_university_kept_first(tmp_path, caplog):
    _write_gazetteers(
        tmp_path,
        universities=[(1, "Harvard University"), (2, "harvard university")],
        public_health=[],
        federal=["Food And Drug Administration"],
        thinktanks=["Brookings Institution"],
    )
    with caplog.at_level(logging.WARNING):
        records = load_gazetteers(tmp_path)
    harvards = [r for r in records if r.name.casefold() == "harvard university"]
    assert len(harvards) == 1
    assert harvards[0].world_rank == 1
    assert any("duplicate university" in m for m in caplog.messages)


def test_load_gazetteers_keeps_the_first_of_each_duplicate(tmp_path, caplog):
    # federal agencies and think tanks each have their own name set
    _write_gazetteers(
        tmp_path,
        universities=[(1, "Harvard University"), (2, "HARVARD UNIVERSITY")],
        public_health=[(3, "Tulane University"), (4, "tulane university")],
        federal=["Food And Drug Administration", "food and drug administration",
                 "Brookings Institution"],
        thinktanks=["Brookings Institution", "", "brookings institution"],
    )
    with caplog.at_level(logging.WARNING):
        records = load_gazetteers(tmp_path)
    assert [(r.name, r.org_type, r.world_rank, r.public_health_rank) for r in records] == [
        ("Harvard University", OrgType.ACADEMIC, 1, None),
        ("Tulane University", OrgType.ACADEMIC, None, 3),
        ("Food And Drug Administration", OrgType.FEDERAL, None, None),
        ("Brookings Institution", OrgType.FEDERAL, None, None),
        ("Brookings Institution", OrgType.THINK_TANK, None, None),
    ]
    assert caplog.messages == [
        "duplicate university 'HARVARD UNIVERSITY' ignored",
        # the standalone school joined the index, so its repeat matches it
        "university 'Tulane University' already has a public-health rank;"
        " 'tulane university' ignored",
        "duplicate federal agency 'food and drug administration' ignored",
        "duplicate think tank 'brookings institution' ignored",
    ]


def test_load_gazetteers_missing_file_is_fatal(tmp_path):
    _write_gazetteers(tmp_path, [(1, "Harvard University")], [], ["FDA Agency"], ["Brookings Institution"])
    (tmp_path / "federal.txt").unlink()
    with pytest.raises(FileNotFoundError):
        load_gazetteers(tmp_path)


def test_load_gazetteers_second_public_health_match_ignored(tmp_path, caplog):
    _write_gazetteers(
        tmp_path,
        universities=[(1, "Harvard University")],
        public_health=[(1, "Harvard University"), (2, "Harvard University School")],
        federal=["Food And Drug Administration"],
        thinktanks=["Brookings Institution"],
    )
    with caplog.at_level(logging.WARNING):
        records = load_gazetteers(tmp_path)
    harvard = next(r for r in records if r.name == "Harvard University")
    assert harvard.public_health_rank == 1


# ---------------------------------------------------------------------------
# shipped data

def test_shipped_gazetteers_load():
    records = load_gazetteers(default_gazetteer_dir())
    academics = [r for r in records if r.org_type is OrgType.ACADEMIC]
    ranked = [r for r in academics if r.world_rank is not None]
    federal = [r for r in records if r.org_type is OrgType.FEDERAL]
    tanks = [r for r in records if r.org_type is OrgType.THINK_TANK]
    assert len(ranked) == 100
    assert sorted(r.world_rank for r in ranked) == list(range(1, 101))
    assert len(federal) >= 50
    assert len(tanks) >= 100
    assert any(r.public_health_rank is not None for r in academics)


def test_shipped_university_names_self_link():
    """Every ranked university must link back to its own record."""
    records = load_gazetteers(default_gazetteer_dir())
    ranked = [r for r in records if r.world_rank is not None]
    for rec in ranked:
        link = link_org(rec.name, records)
        assert link is not None, rec.name
        assert link.record.name == rec.name, f"{rec.name} linked to {link.record.name}"


def test_shipped_gazetteers_have_no_near_duplicates():
    # Cross-record similarity at or above the threshold would make
    # linking ambiguous, so the shipped lists must keep names apart.
    records = load_gazetteers(default_gazetteer_dir())
    names = [r.name for r in records]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert not score_at_least(a, b, MATCH_THRESHOLD), (a, b, token_set_similarity(a, b))
