"""PERSON and ORG mention finding, gender classification, expert identity.

Mentions are found with capitalized-run heuristics driven by shipped word
lists (honorifics, first names, function-word stoplist, institutional cue
tokens) plus fuzzy matching against the organization gazetteers.  Gender
comes from a first-name dictionary with a manual-override layer keyed on
the exact surface string.  Experts are deduplicated across the corpus by
fuzzy full-name matching against previously founded identities.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .orglink import MATCH_THRESHOLD, NameIndex, _text_lines
from .orglink import token_set_similarity  # noqa: F401  (callers look it up here)

# Word tokens keep internal apostrophes and hyphens ("O'Brien", "Inter-American").
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:['’-][A-Za-z0-9]+)*")

#: Lowercase tokens allowed in the middle of an organization name run.
ORG_CONNECTORS = frozenset(
    {"of", "for", "and", "the", "at", "in", "on", "a", "de", "la", "van", "von", "der"}
)

#: A capitalized run is an organization candidate when it carries one of
#: these tokens (a trailing plural "s" is tolerated) or fuzzy-matches a
#: gazetteer name.
ORG_CUES = (
    "University", "Institute", "Institution", "College", "Department",
    "Centers", "Center", "Agency", "Administration", "Hospital", "School",
)

#: Head nouns that mark a capitalized run as institutional rather than a
#: person name.  Founder-named organizations ("Russell Sage Foundation")
#: start with dictionary first names, so the person finder rejects any
#: run carrying one of these.  Superset of the org cue tokens.
_EXTRA_ORG_HEADS = (
    "Foundation", "Fund", "Council", "Society", "Association", "Committee",
    "Commission", "Academy", "Endowment", "Corporation", "Laboratory",
    "Bureau", "Office", "Organization", "Organisation", "Trust",
)


def _with_plurals(words: Sequence[str]) -> frozenset[str]:
    """The words, each also with a trailing plural "s"."""
    return frozenset([w for c in words for w in (c, c + "s")])


_CUES_WITH_PLURALS = _with_plurals(ORG_CUES)
_ORG_HEAD_TOKENS = _with_plurals(ORG_CUES + _EXTRA_ORG_HEADS)

#: Longest capitalized run accepted as a person name.
MAX_NAME_TOKENS = 4

_PERSON_GAP = re.compile(r"^\.?\s*$")
_ORG_GAP = re.compile(r"^[.\-]?\s*$")


class _Token(NamedTuple):
    text: str
    start: int
    end: int


def _tokens(text: str) -> list[_Token]:
    return [_Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def _is_cap(token: str) -> bool:
    return token[:1].isupper()


@dataclass(frozen=True)
class PersonMention:
    """A capitalized-run person name; the honorific is not part of text."""

    text: str
    span: tuple[int, int]
    first_token: str


@dataclass(frozen=True)
class OrgMention:
    text: str
    span: tuple[int, int]

    def __post_init__(self) -> None:
        if len(self.text.strip()) < 3:
            raise ValueError("organization mentions under three characters are noise")


class RawGender(str, Enum):
    MALE = "male"
    FEMALE = "female"
    ANDY = "andy"
    UNKNOWN = "unknown"


class MergedGender(str, Enum):
    MAN = "Man"
    WOMAN = "Woman"
    UNKNOWN = "Unknown"


_MERGE = {
    RawGender.MALE: MergedGender.MAN,
    RawGender.FEMALE: MergedGender.WOMAN,
    RawGender.ANDY: MergedGender.UNKNOWN,
    RawGender.UNKNOWN: MergedGender.UNKNOWN,
}


@dataclass(frozen=True)
class GenderLabel:
    raw: RawGender
    merged: MergedGender

    @classmethod
    def from_raw(cls, raw: RawGender) -> "GenderLabel":
        return cls(raw=raw, merged=_MERGE[raw])

    def __post_init__(self) -> None:
        if _MERGE[self.raw] is not self.merged:
            raise ValueError(f"merged label {self.merged} inconsistent with raw {self.raw}")


# ---------------------------------------------------------------------------
# resource loading


def _default_data(name: str) -> Path:
    return Path(__file__).parent / "data" / name


def _label_rows(
    path: Path, column: str, key: Callable[[str], str]
) -> dict[str, RawGender]:
    """``column<TAB>label`` rows of a TSV file, keyed by ``key(column)``."""
    out: dict[str, RawGender] = {}
    for lineno, line in _text_lines(path):
        name, _, label = line.partition("\t")
        if not label:
            raise ValueError(f"{path}:{lineno}: expected {column}<TAB>label")
        out[key(name.strip())] = RawGender(label.strip())
    return out


def load_gender_dict(path: "str | Path | None" = None) -> dict[str, RawGender]:
    """first_name<TAB>label rows; keys are casefolded first names."""
    p = Path(path) if path is not None else _default_data("names_gender.tsv")
    return _label_rows(p, "name", str.casefold)


def load_overrides(path: "str | Path | None" = None) -> dict[str, RawGender]:
    """full_name<TAB>label rows; keys are exact, case-sensitive strings."""
    p = Path(path) if path is not None else _default_data("manual_overrides.tsv")
    return _label_rows(p, "full_name", str)


def load_honorifics(path: "str | Path | None" = None) -> frozenset[str]:
    """Title tokens that trigger a following name ("Dr.", "President").

    A single trailing period is stripped so entries compare against bare
    word tokens; matching is case-sensitive.
    """
    p = Path(path) if path is not None else _default_data("honorifics.txt")
    return frozenset(e[:-1] if e.endswith(".") else e for _, e in _text_lines(p))


def load_stoplist(path: "str | Path | None" = None) -> frozenset[str]:
    """Casefolded function words that never start a sentence-initial name."""
    p = Path(path) if path is not None else _default_data("stoplist.txt")
    return frozenset(e.casefold() for _, e in _text_lines(p))


# ---------------------------------------------------------------------------
# person mentions


def find_person_mentions(
    sentence,
    toks: Sequence[_Token],
    first_name_dict: Mapping[str, RawGender],
    stoplist: frozenset[str],
    honorifics: frozenset[str],
) -> list[PersonMention]:
    """Capitalized token runs of length 1..4 that look like person names.

    A run starts at a capitalized token that either follows an honorific
    or whose casefolded text is in the first-name dictionary.  Runs grow
    over capitalized tokens separated by a space or a single period
    (middle initials), stop at honorifics, and are rejected outright when
    longer than four tokens or when they contain an institutional cue
    token ("Russell Sage Foundation" is an organization even though
    Russell is a first name).  A sentence-initial token on the stoplist
    never starts a mention.  ``toks`` is ``_tokens`` of the sentence text.
    """
    text = getattr(sentence, "text", sentence)
    mentions: list[PersonMention] = []
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok.text in honorifics or not _is_cap(tok.text):
            i += 1
            continue
        trigger = False
        if i > 0 and toks[i - 1].text in honorifics and _gap(text, toks[i - 1], tok, _PERSON_GAP):
            trigger = True
        elif tok.text.casefold() in first_name_dict:
            trigger = True
        if i == 0 and tok.text.casefold() in stoplist:
            trigger = False
        if not trigger:
            i += 1
            continue
        j = i
        while (
            j + 1 < len(toks)
            and _is_cap(toks[j + 1].text)
            and toks[j + 1].text not in honorifics
            and _gap(text, toks[j], toks[j + 1], _PERSON_GAP)
        ):
            j += 1
        run_has_head = any(toks[k].text in _ORG_HEAD_TOKENS for k in range(i, j + 1))
        if j - i + 1 <= MAX_NAME_TOKENS and not run_has_head:
            mentions.append(
                PersonMention(
                    text=text[toks[i].start:toks[j].end],
                    span=(toks[i].start, toks[j].end),
                    first_token=toks[i].text,
                )
            )
        i = j + 1
    return mentions


def person_exclusion_spans(
    sentence,
    toks: Sequence[_Token],
    mentions: Sequence[PersonMention],
    honorifics: frozenset[str],
) -> list[tuple[int, int]]:
    """Mention spans widened over an immediately preceding honorific.

    Passing these to :func:`find_org_mentions` lets "Dr. Jane Doe of the
    Food and Drug Administration" trim down to the agency name; the bare
    mention span would leave "Dr" stranded at the head of the run.
    ``toks`` is ``_tokens`` of the sentence text.
    """
    text = getattr(sentence, "text", sentence)
    ends = [t.end for t in toks]
    spans: list[tuple[int, int]] = []
    for m in mentions:
        start, end = m.span
        # the last token ending at or before the mention
        k = bisect_right(ends, start)
        prev = toks[k - 1] if k else None
        if (
            prev is not None
            and prev.text in honorifics
            and _PERSON_GAP.match(text[prev.end:start])
        ):
            start = prev.start
        spans.append((start, end))
    return spans


def _gap(text: str, left: _Token, right: _Token, pattern: re.Pattern) -> bool:
    return bool(pattern.match(text[left.end:right.start]))


# ---------------------------------------------------------------------------
# org mentions


@lru_cache(maxsize=16)
def _name_index(names: tuple[str, ...]) -> NameIndex:
    return NameIndex(names)


@lru_cache(maxsize=65536)
def _index_matches(text: str, index: NameIndex, threshold: int = MATCH_THRESHOLD) -> bool:
    # keyed on the index, which hashes by identity, not on its names
    return index.first_match(text, threshold) is not None


def _matches_any_name(
    text: str, names: tuple[str, ...], threshold: int = MATCH_THRESHOLD
) -> bool:
    return _index_matches(text, _name_index(names), threshold)


def find_org_mentions(
    sentence,
    toks: Sequence[_Token],
    gazetteer_names: Sequence[str],
    exclude_spans: Sequence[tuple[int, int]] = (),
    outlet_names: Sequence[str] = (),
) -> list[OrgMention]:
    """Capitalized runs that look like organization names.

    Runs may contain lowercase connector tokens ("of", "for", "and", ...)
    and grow over gaps of space, hyphen, or a single period, but never
    across commas.  ``exclude_spans`` (person mentions) trim a run's
    prefix, so "John Marsh of Yale University" reduces to the
    institution; spans in the middle of a run never split it, because a
    name token that doubles as a first name ("University of Virginia")
    must not punch a hole in the organization name.  A trimmed run
    qualifies if it contains an institutional cue token (plural "s"
    tolerated) or fuzzy-matches one of ``gazetteer_names`` or of
    ``outlet_names`` (the publishing outlet's own names) at the shared
    threshold.  The two lists are indexed apart, so the gazetteer index
    is built once however many outlets share it, and each index is looked
    up once per call.  Mentions of fewer than three characters are
    dropped.  ``toks`` is ``_tokens`` of the sentence text.
    """
    text = getattr(sentence, "text", sentence)
    gazetteer = _name_index(tuple(gazetteer_names))
    outlet_t = tuple(outlet_names)
    outlet = _name_index(outlet_t) if outlet_t else None
    mentions: list[OrgMention] = []
    run: list[_Token] = []

    def _covered(tok: _Token) -> bool:
        return any(tok.start < hi and lo < tok.end for lo, hi in exclude_spans)

    def flush() -> None:
        lo, hi = 0, len(run)
        while lo < hi and (_covered(run[lo]) or run[lo].text.casefold() in ORG_CONNECTORS):
            lo += 1
        while hi > lo and run[hi - 1].text.casefold() in ORG_CONNECTORS:
            hi -= 1
        if lo == hi:  # a run holds capitalized tokens and connectors only
            return
        start, end = run[lo].start, run[hi - 1].end
        mention_text = text[start:end]
        if len(mention_text.strip()) < 3:
            return
        if not (
            any(run[k].text in _CUES_WITH_PLURALS for k in range(lo, hi))
            or _index_matches(mention_text, gazetteer)
            or (outlet is not None and _index_matches(mention_text, outlet))
        ):
            return
        mentions.append(OrgMention(text=mention_text, span=(start, end)))

    for tok in toks:
        joins = _is_cap(tok.text) or tok.text in ORG_CONNECTORS
        if run:
            if joins and _gap(text, run[-1], tok, _ORG_GAP):
                run.append(tok)
                continue
            flush()
            run = []
        if _is_cap(tok.text):
            run.append(tok)
    flush()
    return mentions


# ---------------------------------------------------------------------------
# gender


def classify_gender(
    name: str,
    first_name_dict: Mapping[str, RawGender],
    overrides: Mapping[str, RawGender] | None = None,
) -> GenderLabel:
    """Label a speaker name.

    The exact full string is checked against the manual overrides first
    (case-sensitive); otherwise the first whitespace-separated token is
    looked up, casefolded, in the first-name dictionary.  Absent names
    are Unknown.
    """
    if not name or not name.strip():
        raise ValueError("cannot classify an empty name")
    if overrides and name in overrides:
        return GenderLabel.from_raw(overrides[name])
    first = name.split()[0].casefold()
    return GenderLabel.from_raw(first_name_dict.get(first, RawGender.UNKNOWN))


# ---------------------------------------------------------------------------
# unique experts


@dataclass
class UniqueExpert:
    """One deduplicated speaker identity."""

    canonical_name: str
    mention_count: int
    gender: GenderLabel
    aliases: list[str] = field(default_factory=list)
    _labels: list[GenderLabel] = field(default_factory=list, repr=False)


_UNKNOWN_LABEL = GenderLabel.from_raw(RawGender.UNKNOWN)


def resolve_unique_experts(
    names: Sequence[str],
    labels: Sequence[GenderLabel] | None = None,
    threshold: int = MATCH_THRESHOLD,
    gender_mode: str = "first",
) -> list[UniqueExpert]:
    """Fold corpus-ordered speaker names into unique expert identities.

    Each name joins the first earlier expert whose canonical name it
    matches at ``threshold`` (token-set similarity), else founds a new
    expert whose canonical name is this first-seen form.  ``labels``, if
    given, must parallel ``names``; an expert's gender is its founding
    mention's label, or the majority merged label (ties to the founder)
    with ``gender_mode="majority"``.
    """
    if labels is not None and len(labels) != len(names):
        raise ValueError("labels must parallel names")
    if gender_mode not in ("first", "majority"):
        raise ValueError("gender_mode must be 'first' or 'majority'")
    experts: list[UniqueExpert] = []
    canonical = NameIndex()  # ids are positions in ``experts``
    exact: dict[str, int] = {}
    for pos, name in enumerate(names):
        label = labels[pos] if labels is not None else _UNKNOWN_LABEL
        idx = exact.get(name)
        if idx is None:
            idx = canonical.first_match(name, threshold)
        if idx is None:
            experts.append(
                UniqueExpert(canonical_name=name, mention_count=0, gender=label)
            )
            idx = canonical.add(name)
        exact[name] = idx
        expert = experts[idx]
        expert.mention_count += 1
        expert._labels.append(label)
        if name != expert.canonical_name and name not in expert.aliases:
            expert.aliases.append(name)
    if gender_mode == "majority":
        for expert in experts:
            counts: dict[MergedGender, int] = {}
            for lab in expert._labels:
                counts[lab.merged] = counts.get(lab.merged, 0) + 1
            best = max(counts.values())
            top = [g for g, c in counts.items() if c == best]
            if len(top) == 1:
                for lab in expert._labels:
                    if lab.merged is top[0]:
                        expert.gender = lab
                        break
    return experts
