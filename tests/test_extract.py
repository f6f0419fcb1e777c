"""Detector and union behavior for quote-candidate extraction."""

from __future__ import annotations

import pytest

from newsaudit.corpus import Sentence
from newsaudit.entities import (
    _tokens,
    find_org_mentions,
    find_person_mentions,
    load_gender_dict,
    load_honorifics,
    load_stoplist,
    person_exclusion_spans,
)
from newsaudit.extract import (
    Detector,
    QuoteCandidate,
    ReportingVerbLexicon,
    detect_according_to,
    detect_clausal_complement,
    detect_direct_pattern,
    load_reporting_verbs,
    run_detectors,
    union_candidates,
)

_GAZ = (
    "Harvard University",
    "The White House",
    "Centers for Disease Control and Prevention",
    "National Institutes of Health",
    "Hoover Institution",
    "Fox News",
)


@pytest.fixture(scope="module")
def lex():
    return load_reporting_verbs()


@pytest.fixture(scope="module")
def resources():
    return load_gender_dict(), load_stoplist(), load_honorifics()


def _entities(text, resources, extra_names=()):
    gd, stop, hon = resources
    toks = _tokens(text)
    persons = find_person_mentions(text, toks, gd, stop, hon)
    orgs = find_org_mentions(
        text,
        toks,
        list(_GAZ) + list(extra_names),
        exclude_spans=person_exclusion_spans(text, toks, persons, hon),
    )
    return persons, orgs


def _pipeline(text, lex, resources, outlet_names=(), suppress=True):
    persons, orgs = _entities(text, resources, outlet_names)
    return union_candidates(
        run_detectors(text, _tokens(text), lex),
        persons,
        orgs,
        outlet_names=outlet_names,
        suppress_outlet_names=suppress,
    )


# ---------------------------------------------------------------------------
# lexicon


def test_lexicon_ships_at_target_size(lex):
    assert len(lex) >= 262


def test_lexicon_required_verbs(lex):
    for verb in ("said", "say", "says", "told", "tell", "explains",
                 "report", "reported", "acclaim"):
        assert verb in lex


def test_lexicon_multiword_phrases(lex):
    assert "pointed out" in lex


def test_lexicon_excludes_plain_narration_verbs(lex):
    # these appear in ordinary event copy and would flood the detector
    for verb in ("state", "states", "reached", "prepared", "fell", "visited",
                 "returned", "remained", "drew", "missed", "climbed"):
        assert verb not in lex


def test_lexicon_missing_required_verb_rejected():
    with pytest.raises(ValueError):
        ReportingVerbLexicon(verbs=frozenset({"said", "says"}))


def test_lexicon_uppercase_entry_rejected():
    base = {"said", "say", "says", "told", "tell", "explains",
            "report", "reported", "acclaim"}
    with pytest.raises(ValueError):
        ReportingVerbLexicon(verbs=frozenset(base | {"Announced"}))


# ---------------------------------------------------------------------------
# DirectPattern


def test_direct_basic_said():
    text = '"We must act now," said Anthony Fauci of the National Institutes of Health.'
    c = detect_direct_pattern(text)
    assert c is not None
    assert c.rverb == "said"
    assert text[slice(*c.rspeech_span)] == "We must act now,"
    assert text[slice(*c.window_span)].strip() == (
        "Anthony Fauci of the National Institutes of Health."
    )
    assert c.rspeech_quoted
    assert c.detectors == frozenset({Detector.DIRECT_PATTERN})


def test_direct_says_variant():
    c = detect_direct_pattern('"Numbers are rising," says Deborah Birx.')
    assert c is not None and c.rverb == "says"


def test_direct_no_quoted_span():
    assert detect_direct_pattern("He said nothing happened.") is None


def test_direct_comma_outside_quote():
    text = '"We must act", said Jane Doe of Yale University.'
    c = detect_direct_pattern(text)
    assert c is not None
    assert text[slice(*c.rspeech_span)] == "We must act"


def test_direct_requires_comma():
    assert detect_direct_pattern('"We must act." said Jane Doe.') is None


def test_direct_requires_two_word_chars():
    assert detect_direct_pattern('"A," said Jane Doe.') is None


def test_direct_requires_canonical_verb():
    assert detect_direct_pattern('"We must act," shouted Jane Doe.') is None


def test_direct_first_match_wins():
    text = '"First quote," said Ann Alpha. "Second quote," said Bob Beta.'
    c = detect_direct_pattern(text)
    assert text[slice(*c.rspeech_span)] == "First quote,"


# ---------------------------------------------------------------------------
# ClausalComplement


def test_clausal_told_reporters_with_affiliation(lex):
    text = "Dr. Robert Redfield of the CDC told reporters the agency would expand testing."
    c = detect_clausal_complement(text, _tokens(text), lex)
    assert c is not None
    assert c.rverb == "told"
    assert text[slice(*c.window_span)] == "Dr. Robert Redfield of the CDC "
    assert text[slice(*c.rspeech_span)] == "the agency would expand testing"
    assert not c.rspeech_quoted


def test_clausal_no_lexicon_verb(lex):
    text = "The virus spread quickly overnight."
    assert detect_clausal_complement(text, _tokens(text), lex) is None


def test_clausal_verb_inside_quotes_ignored(lex):
    text = '"They told us to wait," the memo noted they.'
    assert detect_clausal_complement(text, _tokens(text), lex) is None


def test_clausal_requires_capitalized_subject(lex):
    text = "he told reporters the plan failed."
    assert detect_clausal_complement(text, _tokens(text), lex) is None


def test_clausal_prefers_quoted_span(lex):
    text = (
        '"The government took a very important step, but they waited too long '
        'for this decision," Dr. Jose Luis Vargas Segura, a pulmonologist, told Fox News.'
    )
    c = detect_clausal_complement(text, _tokens(text), lex)
    assert c is not None
    assert c.rspeech_quoted
    assert text[slice(*c.rspeech_span)].startswith("The government took")


def test_clausal_addressee_word_skipped(lex):
    text = "Maria Gonzalez told reporters that the ban would lift."
    c = detect_clausal_complement(text, _tokens(text), lex)
    assert text[slice(*c.rspeech_span)] == "the ban would lift"


def test_clausal_capitalized_addressee_run_skipped(lex):
    text = "Maria Gonzalez told The Daily Bugle the ban would lift."
    c = detect_clausal_complement(text, _tokens(text), lex)
    assert text[slice(*c.rspeech_span)] == "the ban would lift"


def test_clausal_multiword_phrase(lex):
    text = "Jane Doe pointed out the data lagged badly."
    c = detect_clausal_complement(text, _tokens(text), lex)
    assert c is not None and c.rverb == "pointed out"
    assert text[slice(*c.rspeech_span)] == "the data lagged badly"


def test_clausal_clause_start_after_quote(lex):
    text = '"Stay home," she said, and Maria Gonzalez added the rest would follow.'
    c = detect_clausal_complement(text, _tokens(text), lex)
    assert c is not None
    assert c.rverb == "added"
    # with a balanced quote in the sentence, reported speech is that span
    assert text[slice(*c.rspeech_span)] == "Stay home,"
    assert text[slice(*c.window_span)].lstrip() == "she said, and Maria Gonzalez "


def test_clausal_verb_at_end(lex):
    text = "That is what Jane Doe said."
    c = detect_clausal_complement(text, _tokens(text), lex)
    assert c is not None
    assert c.rspeech_span[0] == c.rspeech_span[1]


# ---------------------------------------------------------------------------
# AccordingTo


def test_according_mid_sentence():
    text = (
        "Cases doubled last week, according to the Centers for Disease "
        "Control and Prevention."
    )
    c = detect_according_to(text)
    assert c is not None
    assert c.rverb == "according to"
    assert text[slice(*c.rspeech_span)] == "Cases doubled last week"
    assert text[slice(*c.window_span)] == (
        "the Centers for Disease Control and Prevention"
    )


def test_according_at_start():
    text = "According to Dr. Smith of Yale University, masks reduce transmission."
    c = detect_according_to(text)
    assert text[slice(*c.window_span)] == "Dr. Smith of Yale University"
    assert text[slice(*c.rspeech_span)] == "masks reduce transmission"


def test_according_plan_candidate_emitted(lex, resources):
    text = "Everything went according to plan."
    assert detect_according_to(text) is not None
    assert _pipeline(text, lex, resources) == []


def test_according_absent():
    assert detect_according_to("The plan was accordingly to be revised.") is None


def test_according_tail_stops_at_clause_boundary():
    text = "Cases fell, according to Jane Doe of Yale University; others disagreed."
    c = detect_according_to(text)
    assert text[slice(*c.window_span)] == "Jane Doe of Yale University"


def test_according_at_start_without_comma():
    text = "According to the National Institutes of Health"
    c = detect_according_to(text)
    assert text[slice(*c.window_span)] == "the National Institutes of Health"
    assert c.rspeech_span[0] == c.rspeech_span[1]


# ---------------------------------------------------------------------------
# union


def test_union_merges_overlapping_detections(lex, resources):
    text = (
        '"Cases are rising fast," said Dr. Rochelle Walensky of the Centers '
        "for Disease Control and Prevention, who told reporters the trend "
        "was alarming."
    )
    cands = run_detectors(text, _tokens(text), lex)
    assert len(cands) == 2
    final = _pipeline(text, lex, resources)
    assert len(final) == 1
    assert final[0].detectors == frozenset(
        {Detector.DIRECT_PATTERN, Detector.CLAUSAL_COMPLEMENT}
    )
    assert final[0].rverb == "said"  # primary fields from the direct match
    assert final[0].speaker_text == "Rochelle Walensky"
    assert final[0].org_text == "Centers for Disease Control and Prevention"


def test_union_two_speakers_two_records(lex, resources):
    text = (
        "Indoor risk is rising, according to Linsey Marr of the Georgia "
        'Institute of Technology, and "outdoor gatherings are far safer," '
        "said Joseph Allen of Harvard University."
    )
    final = _pipeline(text, lex, resources)
    assert [(c.speaker_text, c.org_text) for c in final] == [
        ("Linsey Marr", "Georgia Institute of Technology"),
        ("Joseph Allen", "Harvard University"),
    ]
    assert final[0].detectors == frozenset({Detector.ACCORDING_TO})
    assert final[1].detectors == frozenset({Detector.DIRECT_PATTERN})


def test_union_drops_candidate_without_person(lex, resources):
    text = (
        "Cases doubled last week, according to the Centers for Disease "
        "Control and Prevention."
    )
    assert len(run_detectors(text, _tokens(text), lex)) == 1
    assert _pipeline(text, lex, resources) == []


def test_union_drops_candidate_without_org(lex, resources):
    text = '"We must act now," said Anthony Fauci.'
    assert _pipeline(text, lex, resources) == []


def test_union_outlet_suppression_drops_candidate(lex, resources):
    text = (
        '"The government took a very important step, but they waited too long '
        'for this decision," Dr. Jose Luis Vargas Segura, a pulmonologist, told Fox News.'
    )
    outlet = ("Fox News", "Fox")
    assert _pipeline(text, lex, resources, outlet_names=outlet, suppress=True) == []
    kept = _pipeline(text, lex, resources, outlet_names=outlet, suppress=False)
    assert [(c.speaker_text, c.org_text) for c in kept] == [
        ("Jose Luis Vargas Segura", "Fox News")
    ]


def test_union_suppression_keeps_other_org(lex, resources):
    text = (
        "Dr. Scott Gottlieb, a fellow at the American Enterprise Institute, "
        "told CNN the winter surge could strain hospitals."
    )
    final = _pipeline(text, lex, resources, outlet_names=("CNN",), suppress=True)
    assert [(c.speaker_text, c.org_text) for c in final] == [
        ("Scott Gottlieb", "American Enterprise Institute")
    ]


def test_union_org_inside_quote_ineligible(lex, resources):
    text = (
        '"The National Institutes of Health moved slowly," said Jane Doe of '
        "Harvard University."
    )
    final = _pipeline(text, lex, resources)
    assert final[0].org_text == "Harvard University"


def test_union_org_falls_back_to_first_by_position(lex, resources):
    text = 'At Harvard University, "masks help," said Jane Doe.'
    final = _pipeline(text, lex, resources)
    assert final[0].speaker_text == "Jane Doe"
    assert final[0].org_text == "Harvard University"


def test_union_monotone_in_detectors(lex, resources):
    sentences = [
        '"We must act now," said Anthony Fauci of the National Institutes of Health.',
        "Dr. Deborah Birx of the White House told reporters the numbers were rising.",
        "Cases doubled, according to Jane Doe of Harvard University.",
        "The virus spread quickly overnight.",
        'At Harvard University, "masks help," said Jane Doe.',
    ]
    for text in sentences:
        persons, orgs = _entities(text, resources)
        direct_only = [c for c in (detect_direct_pattern(text),) if c]
        all_cands = run_detectors(text, _tokens(text), lex)
        n_direct = len(union_candidates(direct_only, persons, orgs))
        n_all = len(union_candidates(all_cands, persons, orgs))
        assert n_all >= n_direct


def test_union_deterministic(lex, resources):
    text = '"We must act now," said Anthony Fauci of the National Institutes of Health.'
    assert _pipeline(text, lex, resources) == _pipeline(text, lex, resources)


def test_union_empty_input():
    assert union_candidates([], [], []) == []


def test_union_accepts_sentence_objects(lex, resources):
    sent = Sentence(
        article_ref="a01",
        index=0,
        span=(0, 10),
        text='"We must act now," said Anthony Fauci of the National Institutes of Health.',
    )
    gd, stop, hon = resources
    toks = _tokens(sent.text)
    persons = find_person_mentions(sent, toks, gd, stop, hon)
    orgs = find_org_mentions(sent, toks, _GAZ, exclude_spans=[p.span for p in persons])
    final = union_candidates(run_detectors(sent, toks, lex), persons, orgs)
    assert final[0].sentence_ref is sent


# ---------------------------------------------------------------------------
# candidate invariants


def test_candidate_requires_detector():
    with pytest.raises(ValueError):
        QuoteCandidate(
            sentence_ref="s",
            rspeech_span=(0, 5),
            rverb="said",
            rverb_span=(6, 10),
            detectors=frozenset(),
            rspeech_quoted=False,
            window_span=(10, 12),
        )


def test_candidate_speaker_disjoint_from_quoted_rspeech():
    with pytest.raises(ValueError):
        QuoteCandidate(
            sentence_ref="s",
            rspeech_span=(0, 10),
            rverb="said",
            rverb_span=(12, 16),
            detectors=frozenset({Detector.DIRECT_PATTERN}),
            rspeech_quoted=True,
            window_span=(16, 30),
            speaker_text="Jane Doe",
            speaker_span=(2, 6),
        )


def test_candidate_speaker_overlap_allowed_when_unquoted():
    c = QuoteCandidate(
        sentence_ref="s",
        rspeech_span=(0, 10),
        rverb="said",
        rverb_span=(12, 16),
        detectors=frozenset({Detector.CLAUSAL_COMPLEMENT}),
        rspeech_quoted=False,
        window_span=(16, 30),
        speaker_text="Jane Doe",
        speaker_span=(2, 6),
    )
    assert c.speaker_text == "Jane Doe"
