"""Article ingestion and sentence segmentation.

Articles arrive as UTF-8 JSONL with four required fields (id, source,
published_at, title, body) plus outlet metadata from a JSON source
config.  Bodies are segmented into sentences with stable character
offsets so every downstream span can be traced back to the raw text.
"""

from __future__ import annotations

import json
import logging
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Iterator

from .orglink import has_token

log = logging.getLogger(__name__)

#: Curly double quotes are folded to straight quotes at ingestion so the
#: extraction patterns only ever see one quote character.
_CURLY_QUOTES = {"“": '"', "”": '"'}


def normalize_quotes(text: str) -> str:
    for curly, straight in _CURLY_QUOTES.items():
        text = text.replace(curly, straight)
    return text


class Ideology(str, Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class Outlet:
    """One configured news source."""

    key: str
    display_name: str
    ideology: Ideology
    self_org_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("outlet key must be non-empty")
        if not self.self_org_names:
            raise ValueError(f"outlet {self.key!r} needs at least one self_org_name")


@dataclass(frozen=True)
class SourceConfig:
    """Outlet metadata keyed by the Article.source value."""

    outlets: dict

    def get(self, key: str) -> Outlet | None:
        return self.outlets.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self.outlets

    def __iter__(self) -> Iterator[Outlet]:
        return iter(self.outlets.values())


def load_source_config(path: "str | Path") -> SourceConfig:
    """Read the outlet config JSON: key -> display_name/ideology/self_org_names."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # RecursionError: nested too deeply; ValueError: also an over-long integer
        raise ValueError(f"{path}: not a JSON outlet config: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object of outlets")
    outlets = {}
    for key, entry in raw.items():
        try:
            display_name, ideology = entry["display_name"], entry["ideology"]
            self_org_names = entry["self_org_names"]
        except KeyError as exc:
            raise ValueError(f"{path}: outlet {key!r} lacks {exc}") from None
        except TypeError:
            raise ValueError(
                f"{path}: outlet {key!r} must be an object with display_name, "
                "ideology and a self_org_names list"
            ) from None
        try:
            ideology = Ideology(ideology)
        except ValueError:
            raise ValueError(
                f"{path}: outlet {key!r}: ideology must be 'left' or 'right', "
                f"got {ideology!r}"
            ) from None
        if not isinstance(display_name, str):
            raise ValueError(
                f"{path}: outlet {key!r}: display_name must be a string, got {display_name!r}"
            )
        if not isinstance(self_org_names, list):
            raise ValueError(
                f"{path}: outlet {key!r}: self_org_names must be a list of names, "
                f"got {self_org_names!r}"
            )
        for name in self_org_names:
            # A name without a token scores 100 against every org, so it
            # would suppress all of the outlet's mentions.
            if not isinstance(name, str) or not has_token(name):
                raise ValueError(
                    f"{path}: outlet {key!r}: self_org_name {name!r} is not a "
                    "name with an ASCII letter or digit"
                )
        try:
            outlets[key] = Outlet(
                key=key,
                display_name=display_name,
                ideology=ideology,
                self_org_names=tuple(self_org_names),
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return SourceConfig(outlets=outlets)


@dataclass(frozen=True)
class Article:
    id: str
    source: str
    published_at: datetime
    title: str
    body: str


@dataclass
class IngestStats:
    """What one run read, skipped and segmented.

    ``parse_article_stream`` fills the ``LINE_COUNTS``; the extraction loop
    counts sentences, articles per outlet key, and articles per source key
    that has no outlet configuration.
    """

    total_lines: int = 0
    articles: int = 0
    skipped_malformed: int = 0
    skipped_missing_fields: int = 0
    skipped_duplicate_id: int = 0
    sentences: int = 0
    articles_by_outlet: Counter = field(default_factory=Counter)
    skipped_unconfigured_sources: Counter = field(default_factory=Counter)

    #: Non-blank lines, articles yielded, and lines skipped by reason.
    LINE_COUNTS = ("total_lines", "articles", "skipped_malformed",
                   "skipped_missing_fields", "skipped_duplicate_id")


#: Required fields, all strings: str() would read a null id as "None".
_REQUIRED_FIELDS = ("id", "source", "published_at", "title", "body")


def _parse_timestamp(value: str) -> datetime:
    # ISO 8601; a trailing Z is accepted as UTC.
    return datetime.fromisoformat(value.replace("Z", "+00:00"))


def parse_article_stream(
    path: "str | Path", stats: IngestStats | None = None
) -> Iterator[Article]:
    """Yield Articles from a JSONL file, lazily.

    Malformed lines (an id, source, published_at, title or body that is
    not a string among them), records missing required fields, and
    records whose id was already seen are skipped with a warning; pass an
    IngestStats to observe the counts.  An unreadable file raises at once.
    Curly double quotes in title and body are normalized to straight
    quotes.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(p)
    if stats is None:
        stats = IngestStats()
    seen_ids: set[str] = set()
    with p.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            stats.total_lines += 1
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # JSONDecodeError, an integer too long to convert, or nesting
                # too deep for the parser
                log.warning("%s:%d: skipping malformed line (%s)", p, lineno, exc)
                stats.skipped_malformed += 1
                continue
            if not isinstance(record, dict):
                log.warning("%s:%d: skipping non-object line", p, lineno)
                stats.skipped_malformed += 1
                continue
            missing = [f for f in _REQUIRED_FIELDS if f not in record]
            if missing:
                log.warning("%s:%d: skipping record missing %s", p, lineno, missing)
                stats.skipped_missing_fields += 1
                continue
            not_text = [f for f in _REQUIRED_FIELDS if not isinstance(record[f], str)]
            if not_text:
                log.warning("%s:%d: skipping record whose %s %s", p, lineno,
                            " and ".join(not_text),
                            "is not a string" if len(not_text) == 1 else "are not strings")
                stats.skipped_malformed += 1
                continue
            try:
                article = Article(
                    id=record["id"],
                    source=record["source"],
                    published_at=_parse_timestamp(record["published_at"]),
                    title=normalize_quotes(record["title"]),
                    body=normalize_quotes(record["body"]),
                )
            except ValueError as exc:  # a published_at that is not ISO 8601
                log.warning("%s:%d: skipping unparsable record (%s)", p, lineno, exc)
                stats.skipped_malformed += 1
                continue
            if not article.id:
                log.warning("%s:%d: skipping record with empty id", p, lineno)
                stats.skipped_missing_fields += 1
                continue
            if article.id in seen_ids:
                log.warning("%s:%d: skipping duplicate article id %r", p, lineno, article.id)
                stats.skipped_duplicate_id += 1
                continue
            seen_ids.add(article.id)
            stats.articles += 1
            yield article


@dataclass(frozen=True)
class Sentence:
    """One sentence of an article body, with [start, end) offsets."""

    article_ref: str
    index: int
    span: tuple[int, int]
    text: str


# Trailing-period strings that never end a sentence.  Matched literally
# (case-sensitive) and only when preceded by a non-word character or the
# start of the body, so "Gov." is protected but "Kosygrov." is not.
ABBREVIATIONS = (
    "Dr.", "Mr.", "Ms.", "Mrs.", "Gov.", "Gen.", "Sen.", "Rep.",
    "St.", "U.S.", "Inc.", "No.",
)

# A terminator, an optional closing quote, and the whitespace up to the
# next character, where the next sentence would start.  ``\s`` in a str
# pattern is exactly ``str.isspace``.  A quote is only taken when
# whitespace follows it, so a terminator right before an opening quote
# never matches.
_BOUNDARY = re.compile(r'[.!?]"?\s+(?=\S)')

# A listed abbreviation or a lone capital ("Gustave F. Perna" has an
# initial, not a terminator), ending the searched text and preceded by a
# non-word character or the start of the body.
_ABBREVIATION_END = re.compile(
    r"(?<![A-Za-z0-9])(?:%s|[A-Z])\.$"
    % "|".join(re.escape(abbr[:-1]) for abbr in ABBREVIATIONS)
)
_LONGEST_ABBREVIATION = max(map(len, ABBREVIATIONS))


def _is_abbreviation_period(body: str, i: int) -> bool:
    """Whether the period at ``body[i]`` closes an abbreviation or initial.

    The search covers the longest abbreviation; its lookbehind still reads
    the character before that stretch, which a slice would cut off.
    """
    start = max(0, i + 1 - _LONGEST_ABBREVIATION)
    return _ABBREVIATION_END.search(body, start, i + 1) is not None


def _quote_regions(body: str) -> list[tuple[int, int]]:
    # Straight double quotes are paired in order of appearance; with an
    # odd count the final quote stays unpaired and protects nothing.
    positions = [m.start() for m in re.finditer('"', body)]
    return [
        (positions[k], positions[k + 1]) for k in range(0, len(positions) - 1, 2)
    ]


def _enclosing_region(
    regions: list[tuple[int, int]], i: int
) -> tuple[int, int] | None:
    """The region with ``open < i < close``, or None.

    ``regions`` come from :func:`_quote_regions` (sorted, disjoint), so
    only the last region opening before ``i`` can contain it.
    """
    k = bisect_left(regions, i, key=itemgetter(0)) - 1
    if k >= 0 and i < regions[k][1]:
        return regions[k]
    return None


def segment_sentences(body: str, article_ref: str = "") -> list[Sentence]:
    """Split a body into sentences with stable character offsets.

    A terminator (. ! ?) ends a sentence when followed by whitespace and
    then a capital letter or an opening quote.  Periods closing a listed
    abbreviation or a single-capital initial never split.  Terminators
    inside a balanced double-quoted region never split either, except
    immediately before the closing quote, where the boundary moves past
    the quote character.  Spans are trimmed to non-whitespace text;
    concatenating the texts with the original gaps reproduces the body.

    One compiled scan finds every terminator followed by whitespace; the
    quote regions are walked once, in step with it, so a body costs time
    linear in its length.  The whitespace a match ends on is the gap
    between two sentences, so only the body's own ends need trimming.
    """
    start = len(body) - len(body.lstrip())
    if start == len(body):
        return []
    regions = _quote_regions(body)
    n_regions = len(regions)
    k = 0  # the first region that closes after the current terminator
    sentences: list[Sentence] = []
    for m in _BOUNDARY.finditer(body):
        i, j = m.span()
        if not (body[j].isupper() or body[j] == '"'):
            continue
        while k < n_regions and regions[k][1] <= i:
            k += 1
        if body[i + 1] == '"':
            # only the closing quote of the terminator's own region
            if k == n_regions or regions[k][1] != i + 1:
                continue
            end = i + 2
        else:
            if k < n_regions and regions[k][0] < i:
                continue
            end = i + 1
        if body[i] == "." and _is_abbreviation_period(body, i):
            continue
        sentences.append(Sentence(article_ref, len(sentences), (start, end), body[start:end]))
        start = j
    end = len(body.rstrip())
    sentences.append(Sentence(article_ref, len(sentences), (start, end), body[start:end]))
    return sentences
