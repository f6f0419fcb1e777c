"""Person/org mention finding, gender labels, and expert dedup."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsaudit.entities import (
    GenderLabel,
    MergedGender,
    OrgMention,
    PersonMention,
    RawGender,
    UniqueExpert,
    _tokens,
    classify_gender,
    find_org_mentions,
    find_person_mentions,
    load_gender_dict,
    load_honorifics,
    load_overrides,
    load_stoplist,
    person_exclusion_spans,
    resolve_unique_experts,
)
from newsaudit.extract import REQUIRED_VERBS, load_reporting_verbs


@pytest.fixture(scope="module")
def gd():
    return load_gender_dict()


@pytest.fixture(scope="module")
def ov():
    return load_overrides()


@pytest.fixture(scope="module")
def hon():
    return load_honorifics()


@pytest.fixture(scope="module")
def stop():
    return load_stoplist()


_GAZ = (
    "Harvard University",
    "The White House",
    "Centers for Disease Control and Prevention",
    "National Institutes of Health",
    "Heritage Foundation",
    "Fox News",
)


# ---------------------------------------------------------------------------
# loaders


def test_gender_dict_loads_required_names(gd):
    assert gd["anthony"] is RawGender.MALE
    assert gd["deborah"] is RawGender.FEMALE
    assert gd["kerry"] is RawGender.ANDY
    assert "zuri" not in gd
    assert len(gd) > 400


def test_honorifics_strip_trailing_period(hon):
    assert "Dr" in hon and "Dr." not in hon
    assert "President" in hon


def test_stoplist_is_casefolded(stop):
    assert "saturday" in stop
    assert "april" in stop
    assert all(s == s.casefold() for s in stop)


@pytest.mark.parametrize(
    "loader, column",
    [(load_gender_dict, "name"), (load_overrides, "full_name")],
    ids=["gender_dict", "overrides"],
)
def test_malformed_gender_row_rejected(tmp_path, loader, column):
    p = tmp_path / "bad.tsv"
    p.write_text("# comment\n\nalice female\n")  # space, not tab
    with pytest.raises(ValueError) as exc:
        loader(p)
    assert str(exc.value) == f"{p}:3: expected {column}<TAB>label"


def test_comment_and_blank_lines_are_skipped(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("# comment\n\n  Dr.  \n  # indented comment\nNot\n")
    assert load_honorifics(words) == {"Dr", "Not"}
    assert load_stoplist(words) == {"dr.", "not"}
    verbs = tmp_path / "verbs.txt"
    verbs.write_text("# comment\n\n" + "\n".join(sorted(REQUIRED_VERBS)) + "\n  # x\n warned \n")
    assert load_reporting_verbs(verbs).verbs == REQUIRED_VERBS | {"warned"}


def test_unknown_label_rejected(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("alice\tfem\n")
    with pytest.raises(ValueError):
        load_gender_dict(p)


def test_overrides_have_full_name_keys(ov):
    assert ov["Trump"] is RawGender.MALE
    assert ov["Pelosi"] is RawGender.FEMALE


# ---------------------------------------------------------------------------
# person mentions


def _persons(text, gd, stop, hon):
    return find_person_mentions(text, _tokens(text), gd, stop, hon)


def test_person_honorific_trigger(gd, stop, hon):
    got = _persons('Dr. Zuri Okafor spoke first.', gd, stop, hon)
    assert [m.text for m in got] == ["Zuri Okafor"]
    assert got[0].first_token == "Zuri"


def test_person_dict_trigger(gd, stop, hon):
    got = _persons('Later Anthony Fauci presented the data.', gd, stop, hon)
    assert [m.text for m in got] == ["Anthony Fauci"]


def test_person_honorific_excluded_from_text(gd, stop, hon):
    (m,) = _persons('Gov. Whitmer ordered a review.', gd, stop, hon)
    assert m.text == "Whitmer"
    assert m.first_token == "Whitmer"


def test_person_middle_initial_continues_run(gd, stop, hon):
    (m,) = _persons('Gen. Gustave F. Perna briefed the panel.', gd, stop, hon)
    assert m.text == "Gustave F. Perna"


def test_person_run_capped_at_four_tokens(gd, stop, hon):
    got = _persons('Anthony Stephen Fauci Junior spoke.', gd, stop, hon)
    assert [m.text for m in got] == ["Anthony Stephen Fauci Junior"]
    # one token longer and the whole run is rejected, not truncated
    got = _persons('Anthony Stephen Fauci Junior Third spoke.', gd, stop, hon)
    assert got == []


def test_person_run_with_org_head_word_rejected(gd, stop, hon):
    # founder-named institutions start with dictionary first names
    assert _persons('The Russell Sage Foundation funded it.', gd, stop, hon) == []
    assert _persons('She left George Washington University.', gd, stop, hon) == []


def test_person_sentence_initial_stoplist_blocked(gd, stop, hon):
    assert _persons('April Showers resigned.', gd, stop, hon) == []
    # the same token mid-sentence is a normal dictionary trigger
    (m,) = _persons('Then April Showers resigned.', gd, stop, hon)
    assert m.text == "April Showers"


def test_person_sentence_initial_non_stoplist_allowed(gd, stop, hon):
    (m,) = _persons('Kerry Alvarez disagreed.', gd, stop, hon)
    assert m.text == "Kerry Alvarez"


def test_person_honorific_terminates_run(gd, stop, hon):
    # a trailing title never gets swallowed into the preceding name
    got = _persons('Board member Emily Stone Dr. Reyes praised.', gd, stop, hon)
    assert got[0].text == "Emily Stone"


def test_person_chained_honorifics(gd, stop, hon):
    (m,) = _persons('Vice President Kamala Harris spoke.', gd, stop, hon)
    assert m.text == "Kamala Harris"


def test_person_comma_breaks_run(gd, stop, hon):
    got = _persons('Speakers included Anthony, Deborah, and others.', gd, stop, hon)
    assert [m.text for m in got] == ["Anthony", "Deborah"]


def test_person_lowercase_stops_run(gd, stop, hon):
    (m,) = _persons('There Emily spoke of change.', gd, stop, hon)
    assert m.text == "Emily"


def test_person_spans_index_sentence(gd, stop, hon):
    text = '"We must act," said Anthony Fauci of the agency.'
    (m,) = _persons(text, gd, stop, hon)
    assert text[m.span[0]:m.span[1]] == m.text


def test_person_accepts_sentence_objects(gd, stop, hon):
    class Sent:
        text = 'Dr. Robert Redfield agreed.'

    (m,) = find_person_mentions(Sent(), _tokens(Sent.text), gd, stop, hon)
    assert m.text == "Robert Redfield"


def test_person_none_found(gd, stop, hon):
    assert _persons('The outbreak spread quickly.', gd, stop, hon) == []
    assert _persons('', gd, stop, hon) == []


# ---------------------------------------------------------------------------
# org mentions


def _orgs(text, names, exclude_spans=()):
    return find_org_mentions(text, _tokens(text), names, exclude_spans)


def test_org_cue_qualifies():
    got = _orgs('He was a virologist at Harvard University then.', _GAZ)
    assert [m.text for m in got] == ["Harvard University"]


def test_org_connectors_span_run():
    text = 'Contact tracers at the Centers for Disease Control and Prevention concurred.'
    got = _orgs(text, _GAZ)
    assert [m.text for m in got] == ["Centers for Disease Control and Prevention"]


def test_org_capitalized_prefix_joins_run():
    # A capitalized sentence opener followed by a connector rides along;
    # token-subset scoring still links the result to the right record, so
    # trimming is the linker's concern rather than the detector's.
    got = _orgs('Researchers at Harvard University replied.', _GAZ)
    assert [m.text for m in got] == ["Researchers at Harvard University"]


def test_org_plural_cue():
    got = _orgs('The National Institutes of Health funded it.', _GAZ)
    assert [m.text for m in got] == ["National Institutes of Health"]


def test_org_fuzzy_qualifies_without_cue():
    got = _orgs('Two fellows at the Heritage Foundation dissented.', _GAZ)
    assert [m.text for m in got] == ["Heritage Foundation"]
    got = _orgs('He spoke to Fox News on the record.', _GAZ)
    assert [m.text for m in got] == ["Fox News"]


def test_org_leading_article_trimmed():
    (m,) = _orgs('Reporters pressed aides at the White House today.', _GAZ)
    assert m.text == "White House"


def test_org_unqualified_run_dropped():
    assert _orgs('The Outbreak Report drew criticism.', _GAZ) == []


def test_org_comma_breaks_run():
    text = 'Teams visited Harvard University, and Columbia University responded.'
    got = _orgs(text, _GAZ)
    assert [m.text for m in got] == ["Harvard University", "Columbia University"]


def test_org_exclude_spans_masks_person(gd, stop, hon):
    text = 'Anthony Fauci of the National Institutes of Health said so.'
    persons = _persons(text, gd, stop, hon)
    got = _orgs(text, _GAZ, exclude_spans=[p.span for p in persons])
    assert [m.text for m in got] == ["National Institutes of Health"]


def test_org_without_mask_swallows_person(gd, stop, hon):
    # the masking parameter exists precisely because of this failure mode
    text = 'Rochelle Walensky University officials met.'
    got = _orgs(text, _GAZ)
    assert got and got[0].text.startswith("Rochelle")


def test_org_inner_person_span_does_not_split_run(gd, stop, hon):
    # Virginia is a first name; the exclusion span must not punch a hole
    # in the institution name
    text = '"The data are clear," said John Marsh of the University of Virginia.'
    persons = _persons(text, gd, stop, hon)
    assert "Virginia" in {p.text for p in persons}
    spans = person_exclusion_spans(text, _tokens(text), persons, hon)
    got = _orgs(text, ["University of Virginia"], exclude_spans=spans)
    assert [m.text for m in got] == ["University of Virginia"]


def test_org_exclusion_spans_widen_over_honorific(gd, stop, hon):
    text = 'Dr. Jane Doe of the Food and Drug Administration agreed.'
    persons = _persons(text, gd, stop, hon)
    spans = person_exclusion_spans(text, _tokens(text), persons, hon)
    got = _orgs(text, _GAZ, exclude_spans=spans)
    assert [m.text for m in got] == ["Food and Drug Administration"]


def test_org_connector_on_joins_run():
    got = _orgs(
        'Staff left the Council on Foreign Relations early.',
        ["Council on Foreign Relations"],
    )
    assert [m.text for m in got] == ["Council on Foreign Relations"]


def test_org_spans_index_sentence():
    text = 'A report from the Heritage Foundation circulated widely.'
    (m,) = _orgs(text, _GAZ)
    assert text[m.span[0]:m.span[1]] == m.text


def test_org_short_mention_rejected():
    with pytest.raises(ValueError):
        OrgMention(text="UN", span=(0, 2))


def test_org_single_cue_token_is_a_mention():
    (m,) = _orgs('Hospitals filled within days.', _GAZ)
    assert m.text == "Hospitals"


def test_org_none_found():
    assert _orgs('the quiet before the storm', _GAZ) == []
    assert _orgs('', _GAZ) == []


# ---------------------------------------------------------------------------
# gender


def test_gender_first_token_lookup(gd, ov):
    assert classify_gender("Deborah Birx", gd, ov).merged is MergedGender.WOMAN
    assert classify_gender("anthony fauci", gd, ov).merged is MergedGender.MAN


def test_gender_override_beats_dict(gd, ov):
    assert classify_gender("Trump", gd, ov).merged is MergedGender.MAN
    # overrides key on the exact surface string
    assert classify_gender("trump", gd, ov).merged is MergedGender.UNKNOWN


def test_gender_andy_merges_to_unknown(gd, ov):
    lbl = classify_gender("Kerry Alvarez", gd, ov)
    assert lbl.raw is RawGender.ANDY
    assert lbl.merged is MergedGender.UNKNOWN


def test_gender_missing_name_unknown(gd, ov):
    lbl = classify_gender("Zuri Okafor", gd, ov)
    assert lbl.raw is RawGender.UNKNOWN
    assert lbl.merged is MergedGender.UNKNOWN


def test_gender_empty_name_rejected(gd, ov):
    with pytest.raises(ValueError):
        classify_gender("", gd, ov)
    with pytest.raises(ValueError):
        classify_gender("   ", gd, ov)


def test_gender_no_overrides_mapping(gd):
    assert classify_gender("Trump", gd, None).merged is MergedGender.UNKNOWN


@pytest.mark.parametrize(
    "raw,merged",
    [
        (RawGender.MALE, MergedGender.MAN),
        (RawGender.FEMALE, MergedGender.WOMAN),
        (RawGender.ANDY, MergedGender.UNKNOWN),
        (RawGender.UNKNOWN, MergedGender.UNKNOWN),
    ],
)
def test_gender_merge_invariant(raw, merged):
    assert GenderLabel.from_raw(raw).merged is merged


def test_gender_label_inconsistent_pair_rejected():
    with pytest.raises(ValueError):
        GenderLabel(raw=RawGender.MALE, merged=MergedGender.WOMAN)


# ---------------------------------------------------------------------------
# unique experts


def _lbl(raw: RawGender) -> GenderLabel:
    return GenderLabel.from_raw(raw)


def test_experts_exact_repeats_fold():
    ex = resolve_unique_experts(["Anthony Fauci", "Anthony Fauci"])
    assert len(ex) == 1
    assert ex[0].mention_count == 2
    assert ex[0].aliases == []


def test_experts_alias_folds_and_is_recorded():
    ex = resolve_unique_experts(["Anthony Fauci", "Anthony Stephen Fauci"])
    assert len(ex) == 1
    assert ex[0].canonical_name == "Anthony Fauci"
    assert ex[0].aliases == ["Anthony Stephen Fauci"]


def test_experts_canonical_is_first_seen():
    ex = resolve_unique_experts(["Anthony Stephen Fauci", "Anthony Fauci"])
    assert ex[0].canonical_name == "Anthony Stephen Fauci"


def test_experts_distinct_names_stay_apart():
    ex = resolve_unique_experts(["Anthony Fauci", "Deborah Birx", "Rochelle Walensky"])
    assert len(ex) == 3
    assert all(e.mention_count == 1 for e in ex)


def test_experts_join_first_earlier_match():
    # "Jo Smith Lee" is a superset of both earlier names; it must join the
    # first-founded expert, not the best-scoring one
    ex = resolve_unique_experts(["Smith Lee", "Jo Smith", "Jo Smith Lee"])
    assert len(ex) == 2
    assert ex[0].mention_count == 2
    assert ex[0].aliases == ["Jo Smith Lee"]


def test_experts_mention_counts_sum():
    names = ["A B", "A B", "C D", "A B C", "E F"]
    ex = resolve_unique_experts(names)
    assert sum(e.mention_count for e in ex) == len(names)


def test_experts_gender_from_first_mention(gd, ov):
    labels = [_lbl(RawGender.UNKNOWN), _lbl(RawGender.MALE)]
    ex = resolve_unique_experts(["Fauci Anthony", "Anthony Fauci"], labels)
    assert len(ex) == 1
    assert ex[0].gender.merged is MergedGender.UNKNOWN


def test_experts_gender_majority_mode():
    labels = [_lbl(RawGender.UNKNOWN), _lbl(RawGender.MALE), _lbl(RawGender.MALE)]
    ex = resolve_unique_experts(
        ["Fauci Anthony", "Anthony Fauci", "Anthony Fauci"], labels,
        gender_mode="majority",
    )
    assert ex[0].gender.merged is MergedGender.MAN


def test_experts_gender_majority_tie_keeps_founder():
    labels = [_lbl(RawGender.UNKNOWN), _lbl(RawGender.MALE)]
    ex = resolve_unique_experts(
        ["Fauci Anthony", "Anthony Fauci"], labels, gender_mode="majority"
    )
    assert ex[0].gender.merged is MergedGender.UNKNOWN


def test_experts_label_length_mismatch():
    with pytest.raises(ValueError):
        resolve_unique_experts(["A B"], [])


def test_experts_invalid_gender_mode():
    with pytest.raises(ValueError):
        resolve_unique_experts(["A B"], gender_mode="median")


def test_experts_empty_input():
    assert resolve_unique_experts([]) == []


# Clusters built from disjoint rare-token pairs: variants inside a cluster
# are token-subsets of each other (similarity 100) while names from
# different clusters share no tokens.
_CLUSTER_BASES = [
    ("Zebulon", "Quixote"),
    ("Marmalade", "Flotilla"),
    ("Obsidian", "Tambourine"),
    ("Juniper", "Kaleidoscope"),
    ("Vermilion", "Ratchet"),
]


def _variants(base: tuple[str, str]) -> list[str]:
    a, b = base
    return [f"{a} {b}", f"{b} {a}", f"{a} {b} Jr"]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
def test_experts_partition_size_order_independent(k, rng):
    names = []
    for base in _CLUSTER_BASES[:k]:
        names.extend(_variants(base) * 2)
    rng.shuffle(names)
    ex = resolve_unique_experts(names)
    assert len(ex) == k
    assert sum(e.mention_count for e in ex) == len(names)
    assert all(e.mention_count == 6 for e in ex)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.sampled_from([f"{a} {b}" for a, b in _CLUSTER_BASES]),
        min_size=0,
        max_size=30,
    )
)
def test_experts_counts_always_sum(names):
    ex = resolve_unique_experts(names)
    assert sum(e.mention_count for e in ex) == len(names)
    canon = [e.canonical_name for e in ex]
    assert len(set(canon)) == len(canon)


def test_expert_dataclass_shape():
    e = UniqueExpert(
        canonical_name="A B", mention_count=1, gender=_lbl(RawGender.MALE)
    )
    assert e.aliases == []
