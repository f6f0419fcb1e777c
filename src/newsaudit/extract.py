"""Quote-candidate detection: three detectors plus a merging union.

Detectors are pure functions of a sentence (plus an immutable verb
lexicon) and each returns at most one candidate.  ``union_candidates``
merges overlapping detections, resolves the speaker and organization
from entity mentions, applies outlet self-name suppression, and drops
candidates that lack either entity.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .corpus import _enclosing_region, _quote_regions
from .entities import (
    _TOKEN_RE,
    OrgMention,
    PersonMention,
    _Token,
    _is_cap,
    _matches_any_name,
)
from .orglink import _text_lines


class Detector(str, Enum):
    DIRECT_PATTERN = "DirectPattern"
    CLAUSAL_COMPLEMENT = "ClausalComplement"
    ACCORDING_TO = "AccordingTo"


_DETECTOR_PRIORITY = {
    Detector.DIRECT_PATTERN: 0,
    Detector.CLAUSAL_COMPLEMENT: 1,
    Detector.ACCORDING_TO: 2,
}

#: Verbs whose object may be an addressee rather than the content clause.
_TELL_VERBS = frozenset({"told", "tell", "tells", "telling"})

#: Common addressee words skipped after a tell-verb before reported speech.
ADDRESSEES = frozenset(
    {
        "reporters", "journalists", "lawmakers", "legislators", "senators",
        "investigators", "regulators", "officials", "staff", "colleagues",
        "members", "residents", "viewers", "listeners", "attendees",
        "employees", "students", "parents", "doctors", "nurses", "analysts",
        "shareholders", "voters", "them", "him", "her", "us", "me",
    }
)

REQUIRED_VERBS = frozenset(
    {"said", "say", "says", "told", "tell", "explains", "report", "reported", "acclaim"}
)


@dataclass(frozen=True)
class ReportingVerbLexicon:
    """Lowercase reporting verbs and multiword phrases.

    ``phrases`` maps each phrase's first word to its token tuples, longest
    first; it is built once here so per-sentence detection never walks
    the whole lexicon.
    """

    verbs: frozenset
    phrases: Mapping[str, tuple[tuple[str, ...], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        missing = REQUIRED_VERBS - set(self.verbs)
        if missing:
            raise ValueError(f"lexicon missing required verbs: {sorted(missing)}")
        bad = [v for v in self.verbs if v != v.casefold() or not v.strip()]
        if bad:
            raise ValueError(f"lexicon entries must be lowercase: {bad[:5]}")
        phrases: dict[str, list[tuple[str, ...]]] = {}
        for verb in self.verbs:
            parts = tuple(verb.split())
            phrases.setdefault(parts[0], []).append(parts)
        object.__setattr__(
            self,
            "phrases",
            {w: tuple(sorted(ps, key=len, reverse=True)) for w, ps in phrases.items()},
        )

    def __len__(self) -> int:
        return len(self.verbs)

    def __contains__(self, verb: str) -> bool:
        return verb in self.verbs

    def has_first_word(self, text: str) -> bool:
        """Whether any token of ``text``, casefolded, starts a phrase.

        Without such a token no phrase can match, so the clausal detector
        finds nothing in the text and need not tokenize it.
        """
        if text.isascii():
            # tokens are ASCII apart from the curly apostrophe, so for
            # ASCII text lowering first tokenizes the same and casefolds
            return not self.phrases.keys().isdisjoint(_TOKEN_RE.findall(text.lower()))
        return not self.phrases.keys().isdisjoint(
            map(str.casefold, _TOKEN_RE.findall(text))
        )


def load_reporting_verbs(path: "str | Path | None" = None) -> ReportingVerbLexicon:
    p = (
        Path(path)
        if path is not None
        else Path(__file__).parent / "data" / "reporting_verbs.txt"
    )
    return ReportingVerbLexicon(verbs=frozenset(line for _, line in _text_lines(p)))


@dataclass(frozen=True)
class QuoteCandidate:
    """One detected quotation in one sentence; spans index sentence text."""

    sentence_ref: object
    rspeech_span: tuple[int, int]
    rverb: str
    rverb_span: tuple[int, int]
    detectors: frozenset
    rspeech_quoted: bool
    window_span: tuple[int, int]
    speaker_text: Optional[str] = None
    speaker_span: Optional[tuple[int, int]] = None
    org_text: Optional[str] = None
    org_span: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if not self.detectors:
            raise ValueError("a candidate must name at least one detector")
        if (
            self.rspeech_quoted
            and self.speaker_span is not None
            and _overlaps(self.speaker_span, self.rspeech_span)
        ):
            raise ValueError("speaker inside quoted reported speech")


def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def _sentence_text(sentence) -> str:
    return getattr(sentence, "text", sentence)


# ---------------------------------------------------------------------------
# DirectPattern

# Quoted span, a comma inside or outside the closing quote, an optional
# space, one of the three canonical verbs, then the speaker tail.
_DIRECT_RE = re.compile(
    r'"(?P<content>[^"\n]*?)(?P<close>,"|",)\s*(?P<verb>said|says|say)\b(?P<tail>.*)$',
    re.DOTALL,
)

_WORD_CHAR = re.compile(r"\w")


def detect_direct_pattern(sentence) -> Optional[QuoteCandidate]:
    """`"<reported speech>," (said|says|say) <tail>`."""
    text = _sentence_text(sentence)
    if "sa" not in text:  # every verb the pattern takes contains it
        return None
    for m in _DIRECT_RE.finditer(text):
        if len(_WORD_CHAR.findall(m.group("content"))) < 2:
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


# ---------------------------------------------------------------------------
# ClausalComplement


def _trim_end(text: str, start: int, end: int) -> int:
    while end > start and text[end - 1] in '.!? \t':
        end -= 1
    return end


def detect_clausal_complement(
    sentence, toks: Sequence[_Token], lexicon: ReportingVerbLexicon
) -> Optional[QuoteCandidate]:
    """Lexicon verb outside quotes with a capitalized subject window.

    ``toks`` is ``entities._tokens`` of the sentence text.  The speaker
    window runs from the clause start (just after the last closing quote
    before the verb, else the sentence start) to the verb.  Reported
    speech is the first balanced quoted span when one exists, otherwise
    the text after the verb; for tell-verbs one addressee word or
    capitalized run after the verb is skipped first.
    """
    text = _sentence_text(sentence)
    regions = _quote_regions(text)
    phrases = lexicon.phrases
    # Start of the last capitalized token before toks[i]: token starts
    # increase, so the window [w0, toks[i].start) holds a capitalized
    # token exactly when this start is >= w0.
    last_cap = -1

    for i, tok in enumerate(toks):
        low = tok.text.casefold()
        for parts in phrases.get(low, ()):
            j = i + len(parts) - 1
            if j >= len(toks):
                continue
            if any(toks[i + k].text.casefold() != parts[k] for k in range(len(parts))):
                continue
            if _enclosing_region(regions, tok.start) is not None:
                continue
            verb_span = (tok.start, toks[j].end)
            k = bisect_right(regions, tok.start, key=itemgetter(1))
            window = (regions[k - 1][1] + 1 if k else 0, verb_span[0])
            if last_cap < window[0]:
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
        if _is_cap(tok.text):
            last_cap = tok.start
    return None


def _clausal_rspeech(text, toks, regions, verb_last_idx, parts):
    for lo, hi in regions:
        if len(_WORD_CHAR.findall(text[lo + 1:hi])) >= 2:
            return (lo + 1, hi), True
    idx = verb_last_idx + 1
    if " ".join(parts) in _TELL_VERBS and idx < len(toks):
        if toks[idx].text.casefold() in ADDRESSEES:
            idx += 1
        elif _is_cap(toks[idx].text):
            while idx < len(toks) and _is_cap(toks[idx].text):
                idx += 1
    if idx < len(toks) and toks[idx].text.casefold() == "that":
        idx += 1
    start = toks[idx].start if idx < len(toks) else len(text)
    return (start, _trim_end(text, start, len(text))), False


# ---------------------------------------------------------------------------
# AccordingTo

_ACCORDING_RE = re.compile(r"\baccording\s+to\b", re.IGNORECASE)


def detect_according_to(sentence) -> Optional[QuoteCandidate]:
    """Attribution via the first "according to" phrase.

    Sentence-initial: the attribution tail runs to the first comma and
    reported speech follows it.  Mid-sentence: reported speech is the
    clause before the phrase and the tail runs to the next clause
    boundary (comma, semicolon, or colon).
    """
    text = _sentence_text(sentence)
    # Under IGNORECASE "i" also matches U+0131 and U+0130, so only ASCII
    # text can be ruled out by its lowercase form.
    if text.isascii() and "according" not in text.lower():
        return None
    m = _ACCORDING_RE.search(text)
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


# ---------------------------------------------------------------------------
# union


def run_detectors(
    sentence, toks: Optional[Sequence[_Token]], lexicon: ReportingVerbLexicon
) -> list[QuoteCandidate]:
    """The candidates of all three detectors for one sentence.

    ``toks`` is ``entities._tokens`` of the sentence text, or None when
    ``lexicon.has_first_word`` is false for it: the clausal detector can
    then match nothing and does not run.
    """
    out = []
    for cand in (
        detect_direct_pattern(sentence),
        None if toks is None else detect_clausal_complement(sentence, toks, lexicon),
        detect_according_to(sentence),
    ):
        if cand is not None:
            out.append(cand)
    return out


def union_candidates(
    cands: Sequence[QuoteCandidate],
    persons: Sequence[PersonMention],
    orgs: Sequence[OrgMention],
    outlet_names: Sequence[str] = (),
    suppress_outlet_names: bool = True,
) -> list[QuoteCandidate]:
    """Merge overlapping detections and resolve entities.

    Candidates whose reported-speech spans overlap merge into one record
    carrying the union of detector tags; field values come from the
    highest-priority detector (DirectPattern, then ClausalComplement,
    then AccordingTo).  The speaker is the first person mention in the
    speaker window; the organization is the first org mention in the
    window, else the first in the sentence.  Mentions inside quote-
    delimited reported speech are ineligible.  With suppression on, orgs
    fuzzy-matching the publishing outlet's own names are voided first.
    Candidates lacking a speaker or an org are dropped.
    """
    if not cands:
        return []
    ordered = sorted(cands, key=lambda c: (c.rspeech_span, _DETECTOR_PRIORITY[min(c.detectors, key=_DETECTOR_PRIORITY.get)]))
    groups: list[list[QuoteCandidate]] = []
    span: Optional[tuple[int, int]] = None
    for cand in ordered:
        if span is not None and _overlaps(cand.rspeech_span, span):
            groups[-1].append(cand)
            span = (min(span[0], cand.rspeech_span[0]), max(span[1], cand.rspeech_span[1]))
        else:
            groups.append([cand])
            span = cand.rspeech_span

    persons = sorted(persons, key=lambda p: p.span)
    orgs = sorted(orgs, key=lambda o: o.span)
    if suppress_outlet_names and outlet_names:
        names_t = tuple(outlet_names)
        orgs = [o for o in orgs if not _matches_any_name(o.text, names_t)]
    out: list[QuoteCandidate] = []
    for group in groups:
        primary = min(
            group,
            key=lambda c: (_DETECTOR_PRIORITY[min(c.detectors, key=_DETECTOR_PRIORITY.get)], c.rspeech_span),
        )
        tags = frozenset().union(*(c.detectors for c in group))
        speaker = _first_in_window(persons, primary)
        org = _resolve_org(orgs, primary)
        if speaker is None or org is None:
            continue
        out.append(
            replace(
                primary,
                detectors=tags,
                speaker_text=speaker.text,
                speaker_span=speaker.span,
                org_text=org.text,
                org_span=org.span,
            )
        )
    out.sort(key=lambda c: c.rspeech_span)
    return out


def _eligible(mention, cand: QuoteCandidate) -> bool:
    return not (cand.rspeech_quoted and _overlaps(mention.span, cand.rspeech_span))


def _first_in_window(persons, cand: QuoteCandidate):
    """First eligible person (``persons`` sorted by span) in the window."""
    for p in persons:
        if _eligible(p, cand) and _overlaps(p.span, cand.window_span):
            return p
    return None


def _resolve_org(orgs, cand):
    """First eligible org in the window, else the first eligible one.

    ``orgs`` is sorted by span and already stripped of outlet self-names.
    """
    pool = [o for o in orgs if _eligible(o, cand)]
    for o in pool:
        if _overlaps(o.span, cand.window_span):
            return o
    return pool[0] if pool else None
