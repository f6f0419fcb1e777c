"""Linear-time segmentation and detection against the slow references.

``segment_sentences`` finds candidate boundaries in one compiled scan,
walks the quote regions once in step with it and tests an abbreviation
by one compiled pattern, ``detect_clausal_complement`` reads the phrase
index built once by ``ReportingVerbLexicon`` and tracks the last
capitalized token instead of rescanning the speaker window,
``ReportingVerbLexicon.has_first_word`` lets the extraction loop skip the
clausal scan, the direct and according-to detectors return early on text
that cannot hold their phrase, and the union resolves entities from
mentions sorted once per call.  The references below keep the earlier
per-terminator, per-sentence and per-group scans and the unfiltered
detectors verbatim; the fast code must agree with them exactly.  Fuzz
tests feed arbitrary text, scaling tests guard against the quadratic
region and window scans coming back, and a counting test holds
extraction to one tokenization per sentence.
"""

from __future__ import annotations

import random
import re
import time
from collections import Counter
from dataclasses import replace
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from newsaudit import corpus, entities, extract, report
from newsaudit.corpus import (
    ABBREVIATIONS,
    Sentence,
    _is_abbreviation_period,
    _quote_regions,
    load_source_config,
    parse_article_stream,
    segment_sentences,
)
from newsaudit.entities import (
    _PERSON_GAP,
    _TOKEN_RE,
    _is_cap,
    _matches_any_name,
    _tokens,
    find_org_mentions,
    find_person_mentions,
    load_gender_dict,
    load_honorifics,
    load_stoplist,
    person_exclusion_spans,
)
from newsaudit.extract import (
    _DETECTOR_PRIORITY,
    REQUIRED_VERBS,
    Detector,
    QuoteCandidate,
    ReportingVerbLexicon,
    _clausal_rspeech,
    _eligible,
    _overlaps,
    _trim_end,
    detect_according_to,
    detect_clausal_complement,
    detect_direct_pattern,
    load_reporting_verbs,
    run_detectors,
    union_candidates,
)
from newsaudit.orglink import MATCH_THRESHOLD
from newsaudit.report import extract_mentions, fixture_dir, load_resources

LEXICON = load_reporting_verbs()
GENDER, STOPLIST, HONORIFICS = load_gender_dict(), load_stoplist(), load_honorifics()

# Multiword phrases sharing a first word with each other and with a
# single-word verb, so the longest-first order inside the index matters.
SHARED_LEXICON = ReportingVerbLexicon(
    verbs=frozenset(
        REQUIRED_VERBS
        | {"said in", "said in a statement", "point", "point out", "made clear",
           "told reporters", "go on to say", "go on"}
    )
)

ORG_NAMES = ("Harvard University", "Centers for Disease Control and Prevention",
             "Fox News", "Hoover Institution")
OUTLET_NAMES = ("Fox News",)


# Phrases whose words carry apostrophes, curly apostrophes and hyphens,
# some sharing a first word with each other.
APOSTROPHE_LEXICON = ReportingVerbLexicon(
    verbs=frozenset(
        REQUIRED_VERBS
        | {"didn't say", "didn't", "won’t comment", "point-blank", "follow-up",
           "o'brien said", "said-so"}
    )
)

# ---------------------------------------------------------------------------
# slow references (the code as it was before bisection, the prebuilt index,
# the compiled abbreviation pattern, the tracked capital and the detector
# prefilters)

_WORD_CHAR = re.compile(r"[A-Za-z0-9]")
_TERMINATOR = re.compile(r"[.!?]")


def reference_is_abbreviation_period(body: str, i: int) -> bool:
    for abbr in ABBREVIATIONS:
        start = i + 1 - len(abbr)
        if start < 0 or body[start:i + 1] != abbr:
            continue
        if start == 0 or not _WORD_CHAR.match(body[start - 1]):
            return True
    if i >= 1 and "A" <= body[i - 1] <= "Z":
        if i == 1 or not _WORD_CHAR.match(body[i - 2]):
            return True
    return False


def reference_segment_sentences(body: str, article_ref: str = "") -> list[Sentence]:
    n = len(body)
    if not body.strip():
        return []
    regions = _quote_regions(body)

    def enclosing(i: int) -> tuple[int, int] | None:
        for open_, close in regions:
            if open_ < i < close:
                return (open_, close)
        return None

    boundaries: list[int] = []
    for m in _TERMINATOR.finditer(body):
        i = m.start()
        if body[i] == "." and reference_is_abbreviation_period(body, i):
            continue
        end = i + 1
        region = enclosing(i)
        if region is not None:
            if i + 1 != region[1]:
                continue
            end = region[1] + 1
        j = end
        while j < n and body[j].isspace():
            j += 1
        if j == end or j >= n:
            continue
        if body[j].isupper() or body[j] == '"':
            boundaries.append(end)

    sentences: list[Sentence] = []
    start = 0
    for end in boundaries + [n]:
        lo, hi = start, end
        while lo < hi and body[lo].isspace():
            lo += 1
        while hi > lo and body[hi - 1].isspace():
            hi -= 1
        if lo < hi:
            sentences.append(
                Sentence(article_ref=article_ref, index=len(sentences),
                         span=(lo, hi), text=body[lo:hi])
            )
        start = end
    return sentences


def reference_clausal_complement(sentence, lexicon) -> Optional[QuoteCandidate]:
    text = getattr(sentence, "text", sentence)
    regions = _quote_regions(text)
    toks = _tokens(text)
    phrases: dict[str, list[tuple[str, ...]]] = {}
    for verb in lexicon.verbs:
        parts = tuple(verb.split())
        phrases.setdefault(parts[0], []).append(parts)
    for starts in phrases.values():
        starts.sort(key=len, reverse=True)

    for i, tok in enumerate(toks):
        low = tok.text.casefold()
        for parts in phrases.get(low, ()):
            j = i + len(parts) - 1
            if j >= len(toks):
                continue
            if any(toks[i + k].text.casefold() != parts[k] for k in range(len(parts))):
                continue
            if not all(not (lo < tok.start < hi) for lo, hi in regions):
                continue
            verb_span = (tok.start, toks[j].end)
            clause_start = 0
            for lo, hi in regions:
                if hi <= tok.start:
                    clause_start = max(clause_start, hi + 1)
            window = (clause_start, verb_span[0])
            if not any(
                _is_cap(t.text) for t in toks if window[0] <= t.start < window[1]
            ):
                continue
            rspeech, quoted = _clausal_rspeech(text, toks, regions, j, parts)
            return QuoteCandidate(
                sentence_ref=sentence,
                rspeech_span=rspeech,
                rverb=" ".join(parts),
                rverb_span=verb_span,
                detectors=frozenset({Detector.CLAUSAL_COMPLEMENT}),
                rspeech_quoted=quoted,
                window_span=window,
            )
    return None


def reference_detect_direct_pattern(sentence) -> Optional[QuoteCandidate]:
    text = getattr(sentence, "text", sentence)
    for m in extract._DIRECT_RE.finditer(text):
        if len(extract._WORD_CHAR.findall(m.group("content"))) < 2:
            continue
        open_q = m.start()
        if m.group("close") == ',"':
            rspeech = (open_q + 1, m.start("close") + 1)  # comma kept inside
        else:
            rspeech = (open_q + 1, m.start("close"))
        return QuoteCandidate(
            sentence_ref=sentence,
            rspeech_span=rspeech,
            rverb=m.group("verb"),
            rverb_span=m.span("verb"),
            detectors=frozenset({Detector.DIRECT_PATTERN}),
            rspeech_quoted=True,
            window_span=m.span("tail"),
        )
    return None


def reference_detect_according_to(sentence) -> Optional[QuoteCandidate]:
    text = getattr(sentence, "text", sentence)
    m = extract._ACCORDING_RE.search(text)
    if m is None:
        return None
    lead = len(text) - len(text.lstrip())
    tail_start = m.end()
    while tail_start < len(text) and text[tail_start] == " ":
        tail_start += 1
    if m.start() == lead:
        comma = text.find(",", m.end())
        if comma == -1:
            window = (tail_start, _trim_end(text, tail_start, len(text)))
            rspeech = (len(text), len(text))
        else:
            window = (tail_start, _trim_end(text, tail_start, comma))
            rs = comma + 1
            while rs < len(text) and text[rs] == " ":
                rs += 1
            rspeech = (rs, _trim_end(text, rs, len(text)))
    else:
        end = m.start()
        while end > lead and text[end - 1] == " ":
            end -= 1
        if end > lead and text[end - 1] == ",":
            end -= 1
        rspeech = (lead, end)
        stop = len(text)
        for ch in ",;:":
            p = text.find(ch, tail_start)
            if p != -1:
                stop = min(stop, p)
        window = (tail_start, _trim_end(text, tail_start, stop))
    return QuoteCandidate(
        sentence_ref=sentence,
        rspeech_span=rspeech,
        rverb="according to",
        rverb_span=m.span(),
        detectors=frozenset({Detector.ACCORDING_TO}),
        rspeech_quoted=False,
        window_span=window,
    )


def reference_has_first_word(lexicon, text: str) -> bool:
    return not lexicon.phrases.keys().isdisjoint(
        map(str.casefold, _TOKEN_RE.findall(text))
    )


def reference_person_exclusion_spans(text, mentions, honorifics):
    toks = _tokens(text)
    spans = []
    for m in mentions:
        start, end = m.span
        prev = None
        for tok in toks:
            if tok.end > start:
                break
            prev = tok
        if (
            prev is not None
            and prev.text in honorifics
            and _PERSON_GAP.match(text[prev.end:start])
        ):
            start = prev.start
        spans.append((start, end))
    return spans


def _priority(c):
    return _DETECTOR_PRIORITY[min(c.detectors, key=_DETECTOR_PRIORITY.get)]


def reference_union(cands, persons, orgs, outlet_names=(), suppress=True,
                    threshold=MATCH_THRESHOLD):
    if not cands:
        return []
    ordered = sorted(cands, key=lambda c: (c.rspeech_span, _priority(c)))
    groups, span = [], None
    for cand in ordered:
        if span is not None and _overlaps(cand.rspeech_span, span):
            groups[-1].append(cand)
            span = (min(span[0], cand.rspeech_span[0]), max(span[1], cand.rspeech_span[1]))
        else:
            groups.append([cand])
            span = cand.rspeech_span
    out = []
    for group in groups:
        primary = min(group, key=lambda c: (_priority(c), c.rspeech_span))
        speaker = None
        for p in sorted(persons, key=lambda p: p.span):
            if _eligible(p, primary) and _overlaps(p.span, primary.window_span):
                speaker = p
                break
        pool = [o for o in sorted(orgs, key=lambda o: o.span) if _eligible(o, primary)]
        if suppress and outlet_names:
            pool = [o for o in pool
                    if not _matches_any_name(o.text, tuple(outlet_names), threshold)]
        org = next((o for o in pool if _overlaps(o.span, primary.window_span)),
                   pool[0] if pool else None)
        if speaker is None or org is None:
            continue
        out.append(replace(
            primary,
            detectors=frozenset().union(*(c.detectors for c in group)),
            speaker_text=speaker.text, speaker_span=speaker.span,
            org_text=org.text, org_span=org.span,
        ))
    out.sort(key=lambda c: c.rspeech_span)
    return out


# ---------------------------------------------------------------------------
# strategies

# Quote-dense prose: quotes come alone so their count is often odd, and
# terminators sit right before closing quotes, after abbreviations, after
# single-capital initials and inside "U.S."-style runs.  Whitespace
# includes the separators only str.isspace knows (\x1c, no-break space,
# line separator); capitals include non-ASCII ones, a title-case letter
# (not isupper) and a Roman numeral (isupper, but not a letter).
_BODY_PIECES = [
    '"', '"', '"', ".", "!", "?", '."', '!"', '?"', '," ', ". ", " ", " ", "  ",
    "\n", "\t", "\x1c", "\u00a0", "\u2028", "Dr.", "Mr.", "U.S.", "U.S.A.",
    "F.B.I.", "e.g.", "Inc.", "No.", "St.", "F.", " J. ", "A.", "Kosygrov.",
    "The", "Cases", "rose", "said", "she", "x", "9.", "é", "É", "Σ", "ǅ", "Ⅳ",
]
quote_dense_st = st.lists(st.sampled_from(_BODY_PIECES), max_size=80).map("".join)

# Sentences for the detectors: lexicon phrases (single and multiword, a
# shared first word, tell-verbs), addressees, capitalized names, quotes.
_SENTENCE_PIECES = [
    "said", "Said", "says", "told", "tell", "point", "out", "made", "clear",
    "in", "a", "statement", "go", "on", "to", "say", "that", "reporters", "him",
    "Jane", "Doe", "Dr.", "Ann", "Lee", "the", "of", "Harvard", "University",
    "Fox", "News", "according", "According", "Hoover", "Institution", "it",
    "cases", "rose", '"', '"', ',"', '."', ",", ".", ";", ":", "!",
]
sentence_st = st.lists(
    st.tuples(st.sampled_from(_SENTENCE_PIECES), st.sampled_from([" ", " ", "", "  "])),
    max_size=30,
).map(lambda pairs: "".join(w + sep for w, sep in pairs))

# Attributions for the union: several people and orgs per clause, the
# outlet's own name among them, quoted and unquoted speech.
_CLAUSE_PIECES = [
    "Jane Doe", "Dr. Ann Lee", "Ann Lee", "and", "of", "Harvard University",
    "Fox News", "the Hoover Institution", "said", "told reporters", "says",
    "according to", '"Cases rose sharply,"', '"The data is clear."',
    "that cases rose", ",", ".",
]
clause_st = st.lists(st.sampled_from(_CLAUSE_PIECES), max_size=16).map(" ".join)

# Long clauses of lowercase subjects and reporting verbs, with a rare
# capital and quotes moving the clause start: every verb's speaker window
# is checked, most of them without a capital in it.
_WINDOW_PIECES = ["experts", "said", "says", "told", "they", "it", "and",
                  "Jane", "Said", '"', '",', "."]
window_st = st.lists(st.sampled_from(_WINDOW_PIECES), max_size=60).map(" ".join)

# Mixed-case words around the apostrophe lexicon's phrases, broken up by
# quotes, stray apostrophes and hyphens.
_APOSTROPHE_PIECES = [
    "didn't", "Didn't", "DIDN'T", "didn’t", "didn", "t", "say", "Say",
    "won’t", "Won’t", "won't", "comment", "Comment", "point-blank",
    "Point-Blank", "point", "-blank", "follow-up", "Follow-", "up",
    "O'Brien", "o'brien", "O’Brien", "said", "SAID", "said-so", "'", "’",
    "-", "Jane", "the", '"', ",", ".",
]
apostrophe_st = st.lists(
    st.tuples(st.sampled_from(_APOSTROPHE_PIECES), st.sampled_from([" ", "", "-", "'"])),
    max_size=20,
).map(lambda pairs: "".join(w + sep for w, sep in pairs))

# Text around the prefiltered phrases: verbs in every case, "according"
# with U+0131 or U+0130 for its "i" (which IGNORECASE matches), long s and
# the Kelvin sign (which lowercase to ASCII letters), glued to words or not.
_PREFILTER_PIECES = [
    "said", "SAID", "Said", "says", "say", "sa", "ſaid", "said-so", "told",
    "according", "ACCORDING", "According", "accordıng", "accordİng", "to",
    "TO", "accord", "ing", "\u212a", "\u212atold", "İ", "ı", "ſ", "Jane", "Doe",
    "didn't", "point-blank", "cases", '"', ',"', '",', ",", ".",
    '"Cases rose,"', '"It is clear",',
]
prefilter_st = st.lists(
    st.tuples(st.sampled_from(_PREFILTER_PIECES), st.sampled_from([" ", "", "  ", "\n"])),
    max_size=24,
).map(lambda pairs: "".join(w + sep for w, sep in pairs))

# ---------------------------------------------------------------------------
# differential tests


@settings(max_examples=600, deadline=None)
@given(quote_dense_st)
def test_segment_sentences_matches_linear_region_scan(body):
    assert segment_sentences(body, "a") == reference_segment_sentences(body, "a")


def test_segment_sentences_cases_against_reference():
    bodies = [
        'A ". B" it. Done',  # a terminator right after an opening quote
        'He said "no." Then he left. "Go!" She ran.',
        'Odd " quote. Then more. "Unclosed. It ends.',
        "The U.S. Army left. U.S.A. Today. F.B.I. Agents came. e.g. This.",
        "One.\x1cTwo.\u2028Three.\u00a0Four.\u3000Five",
        "   Leading. Trailing.   ",
        "Title \u01c5. Roman \u2163. Greek \u03a3. Small \u00e9. Capital \u00c9.",
    ]
    for body in bodies:
        assert segment_sentences(body, "a") == reference_segment_sentences(body, "a"), body
    assert [s.text for s in segment_sentences(bodies[0])] == ['A ". B" it.', "Done"]


@settings(max_examples=800, deadline=None)
@given(st.one_of(sentence_st, window_st))
def test_clausal_complement_matches_per_call_index(text):
    for lexicon in (LEXICON, SHARED_LEXICON):
        sentence = Sentence("a", 0, (0, len(text)), text)
        assert (detect_clausal_complement(sentence, _tokens(text), lexicon)
                == reference_clausal_complement(sentence, lexicon))


def test_clausal_complement_cases_against_reference():
    cases = [
        'Jane Doe said in a statement that cases rose.',
        'Jane Doe said in the lab that cases rose.',
        '"Jane said it," she said, and Ann Lee made clear it rose.',
        '"Cases rose," Dr. Ann Lee told reporters that it was bad.',
        'Ann Lee told Harvard University officials "the data is clear."',
        '"Ann said" "Lee told" Doe point out "rose twice."',
        'the staff said it, then Jane Doe went on to say "no."',
        'Ann Lee go on to say it',
    ]
    for text in cases:
        for lexicon in (LEXICON, SHARED_LEXICON):
            assert (detect_clausal_complement(text, _tokens(text), lexicon)
                    == reference_clausal_complement(text, lexicon)), text
    cand = detect_clausal_complement(cases[0], _tokens(cases[0]), SHARED_LEXICON)
    assert cand.rverb == "said in a statement"


@settings(max_examples=400, deadline=None)
@given(st.one_of(clause_st, sentence_st), st.booleans(),
       st.randoms(use_true_random=False))
def test_union_and_exclusion_spans_match_per_group_sorting(text, suppress, rnd):
    toks = _tokens(text)
    persons = find_person_mentions(text, toks, GENDER, STOPLIST, HONORIFICS)
    shuffled = list(persons)
    rnd.shuffle(shuffled)
    for ms in (persons, shuffled):
        assert (person_exclusion_spans(text, toks, ms, HONORIFICS)
                == reference_person_exclusion_spans(text, ms, HONORIFICS))
    orgs = find_org_mentions(
        text, toks, ORG_NAMES,
        exclude_spans=person_exclusion_spans(text, toks, persons, HONORIFICS),
    )
    cands = run_detectors(text, toks, LEXICON)
    rnd.shuffle(orgs)
    assert (union_candidates(cands, shuffled, orgs, OUTLET_NAMES, suppress)
            == reference_union(cands, shuffled, orgs, OUTLET_NAMES, suppress))


class _CountingVerbs(frozenset):
    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


def test_clausal_complement_never_iterates_the_lexicon():
    lexicon = ReportingVerbLexicon(verbs=_CountingVerbs(LEXICON.verbs))
    _CountingVerbs.iterations = 0
    for text in ('"Cases rose," Dr. Ann Lee said.',
                 "Jane Doe pointed out that cases rose.",
                 "nothing to see here"):
        detect_clausal_complement(text, _tokens(text), lexicon)
    assert _CountingVerbs.iterations == 0


def test_lexicon_index_keeps_equality_and_constructor():
    rebuilt = ReportingVerbLexicon(verbs=frozenset(LEXICON.verbs))
    assert rebuilt == LEXICON and hash(rebuilt) == hash(LEXICON)
    assert "phrases" not in repr(rebuilt)
    assert replace(LEXICON, verbs=SHARED_LEXICON.verbs) == SHARED_LEXICON
    assert SHARED_LEXICON.phrases["said"] == (
        ("said", "in", "a", "statement"), ("said", "in"), ("said",)
    )


@settings(max_examples=600, deadline=None)
@given(st.one_of(apostrophe_st, sentence_st, window_st))
def test_first_word_check_is_exact_for_the_clausal_detector(text):
    toks = _tokens(text)
    for lexicon in (LEXICON, SHARED_LEXICON, APOSTROPHE_LEXICON):
        has = lexicon.has_first_word(text)
        assert has == any(t.text.casefold() in lexicon.phrases for t in toks)
        if not has:
            assert reference_clausal_complement(text, lexicon) is None
        assert (run_detectors(text, toks if has else None, lexicon)
                == run_detectors(text, toks, lexicon))


def test_first_word_check_cases():
    assert APOSTROPHE_LEXICON.has_first_word("Jane DIDN'T say so")
    assert APOSTROPHE_LEXICON.has_first_word("Jane Point-Blank refused")
    assert not APOSTROPHE_LEXICON.has_first_word("Jane didn’t answer")
    assert not APOSTROPHE_LEXICON.has_first_word("Jane point blank refused")
    text = "Jane Doe won’t comment"
    assert APOSTROPHE_LEXICON.has_first_word(text)
    cand = detect_clausal_complement(text, _tokens(text), APOSTROPHE_LEXICON)
    assert cand.rverb == "won’t comment"
    assert cand == reference_clausal_complement(text, APOSTROPHE_LEXICON)


@settings(max_examples=800, deadline=None)
@given(st.one_of(prefilter_st, sentence_st, apostrophe_st))
def test_prefiltered_detectors_match_unfiltered_references(text):
    assert detect_direct_pattern(text) == reference_detect_direct_pattern(text)
    assert detect_according_to(text) == reference_detect_according_to(text)
    for lexicon in (LEXICON, SHARED_LEXICON, APOSTROPHE_LEXICON):
        assert lexicon.has_first_word(text) == reference_has_first_word(lexicon, text)


def test_prefilter_cases():
    for text in ('"Cases rose sharply," said Jane Doe.', '"Cases rose," says Jane Doe.',
                 '"It is clear", say experts.', "According to Jane Doe, it rose.",
                 "It rose, accordıng to Jane Doe.", "It rose, ACCORDİNG TO Jane Doe.",
                 "Jane SAID so", "ſaid Jane", "\u212atold Jane", "İsaid", "said-so"):
        assert detect_direct_pattern(text) == reference_detect_direct_pattern(text), text
        assert detect_according_to(text) == reference_detect_according_to(text), text
        for lexicon in (LEXICON, APOSTROPHE_LEXICON):
            assert (lexicon.has_first_word(text)
                    == reference_has_first_word(lexicon, text)), text
    assert detect_according_to("It rose, accordıng to Jane Doe.") is not None
    assert detect_direct_pattern('"Cases rose sharply," SAID Jane Doe.') is None
    assert detect_direct_pattern('"Cases rose," says Jane Doe.').rverb == "says"
    assert detect_direct_pattern('"It is clear", say experts.').rverb == "say"
    # the Kelvin sign lowers to "k", so the ASCII shortcut must not see it
    assert not LEXICON.has_first_word("\u212aold")
    assert LEXICON.has_first_word("\u212atold")
    assert APOSTROPHE_LEXICON.has_first_word("Jane SAID-SO")


def test_abbreviation_pattern_matches_loop():
    rng = random.Random(0)
    # Single characters, and whole abbreviations so that each one occurs
    # often, in every kind of context.
    pieces = list("DrMsUSIncNoGvtSenRepabc. xZ.9") + list(ABBREVIATIONS)
    outcomes: Counter = Counter()
    for _ in range(50_000):
        body = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 8)))
        for i, ch in enumerate(body):
            if ch == ".":
                expected = reference_is_abbreviation_period(body, i)
                assert _is_abbreviation_period(body, i) == expected, (body, i)
                outcomes[expected] += 1
    assert min(outcomes[True], outcomes[False]) > 2_000
    for abbr in ABBREVIATIONS:
        assert _is_abbreviation_period(abbr, len(abbr) - 1)
        assert _is_abbreviation_period("(" + abbr, len(abbr))
    assert not _is_abbreviation_period("xDr.", 3)
    assert not _is_abbreviation_period("Kosygrov.", 8)


def test_extraction_tokenizes_each_sentence_at_most_once(monkeypatch):
    resources = load_resources()
    lexicon = resources.lexicon
    fixture = fixture_dir()
    sources = load_source_config(fixture / "sources.json")
    tokenized: Counter = Counter()

    def counting_tokens(text):
        tokenized[text] += 1
        return _tokens(text)

    for module in (entities, extract, report):
        if hasattr(module, "_tokens"):
            monkeypatch.setattr(module, "_tokens", counting_tokens)
    mentions, counts = extract_mentions(fixture / "corpus.jsonl", sources, resources)
    assert mentions and tokenized

    segmented: Counter = Counter()
    usable = set()
    for article in parse_article_stream(fixture / "corpus.jsonl"):
        for sent in segment_sentences(article.body, article.id):
            segmented[sent.text] += 1
            first_word = any(w.casefold() in lexicon.phrases
                             for w in _TOKEN_RE.findall(sent.text))
            if first_word or run_detectors(sent, _tokens(sent.text), lexicon):
                usable.add(sent.text)
    assert sum(segmented.values()) == counts.sentences
    for text, calls in tokenized.items():
        assert calls <= segmented[text], text
        assert text in usable, text
    assert len(usable) < len(segmented)


# ---------------------------------------------------------------------------
# fuzz


def _assert_rejoins(body, sentences):
    pos, rebuilt = 0, []
    for k, s in enumerate(sentences):
        lo, hi = s.span
        assert s.index == k and pos <= lo < hi <= len(body)
        assert body[pos:lo].isspace() or pos == lo
        assert s.text == body[lo:hi]
        rebuilt += [body[pos:lo], s.text]
        pos = hi
    assert body[pos:].isspace() or pos == len(body)
    rebuilt.append(body[pos:])
    assert "".join(rebuilt) == body


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), quote_dense_st))
def test_segment_sentences_fuzz(body):
    _assert_rejoins(body, segment_sentences(body))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), sentence_st))
def test_detectors_fuzz(text):
    found = [
        detect_direct_pattern(text),
        detect_clausal_complement(text, _tokens(text), LEXICON),
        detect_according_to(text),
    ]
    for cand in found:
        if cand is None:
            continue
        for lo, hi in (cand.rspeech_span, cand.rverb_span, cand.window_span):
            assert 0 <= lo <= hi <= len(text)


# ---------------------------------------------------------------------------
# scaling


def _quote_dense_body(chars: int) -> str:
    rng = random.Random(0)
    words = ["Cases", "rose", "Dr.", "Lee", "U.S.", "data", "J.", "fell"]
    parts, size = [], 0
    while size < chars:
        s = '"' + " ".join(rng.choice(words) for _ in range(rng.randint(1, 3)))
        s += rng.choice(".!?") + '"'
        parts.append(s)
        size += len(s) + 1
    return " ".join(parts)


class _CountingRegions(list):
    """A region list that counts every region read, by index or by loop."""

    reads = 0

    def __getitem__(self, k):
        _CountingRegions.reads += 1
        return super().__getitem__(k)

    def __iter__(self):
        for region in super().__iter__():
            _CountingRegions.reads += 1
            yield region


def _region_reads(body: str, monkeypatch) -> int:
    monkeypatch.setattr(
        corpus, "_quote_regions", lambda b: _CountingRegions(_quote_regions(b))
    )
    _CountingRegions.reads = 0
    segment_sentences(body)
    return _CountingRegions.reads


def test_clausal_window_check_is_linear_in_verbs():
    # Every "said" has a window from the sentence start without a capital;
    # rescanning the tokens per verb took about 70 s here.
    text = "experts said " * 20_000
    toks = _tokens(text)
    start = time.perf_counter()
    assert detect_clausal_complement(text, toks, LEXICON) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"20,000 verbs took {elapsed:.2f} s"


def test_segmentation_scales_linearly_with_quote_dense_bodies(monkeypatch):
    # About 800 quote regions at 10 KB; a per-terminator scan of every
    # region reads about 16x as many regions for the 4x body.
    small, large = _quote_dense_body(10_000), _quote_dense_body(40_000)
    ratio = _region_reads(large, monkeypatch) / _region_reads(small, monkeypatch)
    assert ratio <= 8.0, f"4x body read {ratio:.1f}x the quote regions"
