"""Link organization mentions to curated gazetteers of institutions.

Three gazetteers are supported: ranked academic institutions, federal
agencies, and think tanks.  Matching uses a token-set similarity score on
top of Levenshtein distance, so word order and extra qualifiers ("The
University of Maryland - College Park" vs. "The University of Maryland")
do not defeat the match, while short abbreviations ("CDC") stay below the
linking threshold by design.

This module is also the one similarity kernel of the pipeline.  The
distance is a bit-parallel Levenshtein (Myers 1999, Hyyro 2003) over
Python ints; the dynamic-programming :func:`levenshtein` stays as the
reference it is tested against.  Each name is profiled once (token set,
sorted-token string, character multiset); :func:`score_at_least` runs the
distance only when the length and character-multiset bounds cannot
decide.  :class:`NameIndex` blocks candidates by rare-token prefix and by
length with no loss (the argument is in its docstring) and serves the
first match (expert dedup, and as a yes/no, organization detection and
outlet suppression) and the best match (linking and the public-health
join).
"""

from __future__ import annotations

import csv
import logging
import re
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

log = logging.getLogger(__name__)

#: Scores at or above this value count as a match, both for linking and
#: for deduplication elsewhere in the pipeline.
MATCH_THRESHOLD = 90

#: Mentions this short (after trimming) are noise ("'s", "AP") and are
#: never linked.
MIN_MENTION_CHARS = 3


class OrgType(str, Enum):
    ACADEMIC = "academic"
    FEDERAL = "federal"
    THINK_TANK = "think_tank"


# Tie-break priority when two records score the same.
_TYPE_PRIORITY = {OrgType.ACADEMIC: 0, OrgType.FEDERAL: 1, OrgType.THINK_TANK: 2}


@dataclass(frozen=True)
class OrgRecord:
    """One gazetteer entry.

    ``world_rank`` and ``public_health_rank`` are only meaningful for
    academic records; ``world_rank`` follows the source ranking (1 is the
    most prestigious institution).
    """

    name: str
    org_type: OrgType
    world_rank: int | None = None
    public_health_rank: int | None = None

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValueError("gazetteer record needs a non-empty name")
        if self.org_type is not OrgType.ACADEMIC:
            if self.world_rank is not None or self.public_health_rank is not None:
                raise ValueError("ranks are only valid on academic records")
        if self.world_rank is not None and self.world_rank < 1:
            raise ValueError("world_rank starts at 1")
        if self.public_health_rank is not None and self.public_health_rank < 1:
            raise ValueError("public_health_rank starts at 1")


@dataclass(frozen=True)
class OrgLink:
    """A resolved link from a mention string to a gazetteer record."""

    mention_text: str
    record: OrgRecord
    score: int

    def __post_init__(self) -> None:
        if self.score < MATCH_THRESHOLD:
            raise ValueError(f"link score {self.score} below threshold {MATCH_THRESHOLD}")


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert/delete/substitute, all cost 1).

    The textbook O(n*m) dynamic programme.  Scoring runs on the
    bit-parallel :func:`_distance`; this stays as its reference.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _distance(a: str, b: str) -> int:
    """Levenshtein distance by bit-parallel column updates.

    Myers (1999), in Hyyro's (2003) edit-distance form: the vertical
    deltas of one DP column are held as bit vectors over the longer
    string (Python ints have any width), so each character of the
    shorter string costs a fixed number of integer operations.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for c in a:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, dist = mask, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # Row 0 of the DP counts up by one per column: shift in a +1.
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Sorted-token strings use only these characters.  A name's character
# multiset is packed into one int: the k-th occurrence (k = 0, 1, ...) of
# the character in slot c sets bit k * len(_ALPHABET) + c, so the size of
# the multiset intersection of two names is the popcount of their AND.
_ALPHABET = " abcdefghijklmnopqrstuvwxyz0123456789"
_SLOT = {c: i for i, c in enumerate(_ALPHABET)}
_REPUNIT_DIV = (1 << len(_ALPHABET)) - 1


class _Profile(NamedTuple):
    """What the scorer needs of one name, computed once."""

    tokens: frozenset[str]
    text: str  # the sorted tokens joined by single spaces
    bag: int  # the character multiset of ``text``, packed as above


@lru_cache(maxsize=16384)
def _profile(name: str) -> _Profile:
    tokens = frozenset(_TOKEN_RE.findall(name.casefold()))
    text = " ".join(sorted(tokens))
    bag = 0
    for c, k in Counter(text).items():
        bag |= ((1 << (k * len(_ALPHABET))) - 1) // _REPUNIT_DIV << _SLOT[c]
    return _Profile(tokens, text, bag)


def has_token(name: str) -> bool:
    """Whether ``name`` has a token to score.  A name without one scores
    100 against every name, so a gazetteer or outlet name must have one."""
    return _TOKEN_RE.search(name.casefold()) is not None


def _reaches(distance: int, length: int, threshold: int) -> bool:
    """Whether a ratio with this distance over this length rounds to >= threshold."""
    return int(round(100.0 * (1.0 - distance / length))) >= threshold


@lru_cache(maxsize=4096)
def _slack(length: int, threshold: int) -> int:
    """The largest distance d <= ``length`` for which ``_reaches(d, length,
    threshold)`` holds, or -1 if none does."""
    d = max(0, min(length, int(length * (100 - threshold) / 100)))
    while d >= 0 and not _reaches(d, length, threshold):
        d -= 1
    while d < length and _reaches(d + 1, length, threshold):
        d += 1
    return d


@lru_cache(maxsize=4096)
def _length_window(n: int, threshold: int) -> tuple[tuple[int, int], ...]:
    """(length, need) for each sorted-token length whose pair with a name of
    length ``n`` can reach ``threshold`` > 0, ascending: such a pair needs
    ``need`` characters of its two character multisets in common."""
    # Shorter names are within D(n, t) of n; a longer one, of length m,
    # within D(m, t), which holds on a finite run of m when t > 0.
    slack = _slack(n, threshold)
    window = [(length, n - slack) for length in range(max(1, n - slack), n)]
    length = n
    while length - n <= (d := _slack(length, threshold)):
        window.append((length, length - d))
        length += 1
    return tuple(window)


def _score(pa: _Profile, pb: _Profile, cutoff: int) -> int:
    """Token-set similarity of two profiled names, exact when >= ``cutoff``.

    A score below ``cutoff`` may come back as any value below
    ``cutoff``: the one distance is skipped when a bound shows it
    cannot lift the score to ``cutoff``.  Rounding is monotone, so a
    ratio whose upper bound rounds below ``cutoff`` rounds below it too.

    With I, A and B as in :func:`token_set_similarity`, I is a prefix of
    both A and B, so the (I, A) and (I, B) distances are plain length
    differences and (A, B) equals the distance between the two
    non-shared remainders.  A and B have the same lengths and character
    multisets as the names' sorted-token strings, which the profiles
    carry, so the bounds on (A, B) are read off the profiles.
    """
    ta, tb = pa.tokens, pb.tokens
    if ta <= tb or tb <= ta:  # I equals A or B (this covers tokenless names)
        return 100
    la, lb = len(pa.text), len(pb.text)
    inter = ta & tb
    if inter:
        li = sum(map(len, inter)) + len(inter) - 1
        best = max(100.0 * (1.0 - (la - li) / la), 100.0 * (1.0 - (lb - li) / lb))
    else:
        best = 0.0
    m = max(la, lb)
    # The distance is at least the length difference, and at least the
    # number of characters of the longer string not covered by the
    # character multiset of the other.
    lower = max(abs(la - lb), m - (pa.bag & pb.bag).bit_count())
    bound = 100.0 * (1.0 - lower / m)
    if bound > best and int(round(bound)) >= cutoff:
        if inter:
            rest_a, rest_b = " ".join(sorted(ta - tb)), " ".join(sorted(tb - ta))
        else:
            rest_a, rest_b = pa.text, pb.text
        ratio = 100.0 * (1.0 - _distance(rest_a, rest_b) / m)
        if ratio > best:
            best = ratio
    return int(round(best))


def token_set_similarity(a: str, b: str) -> int:
    """Similarity in [0, 100] between two names, robust to word order.

    Both strings are case-folded and tokenized on non-alphanumerics.  With
    I the sorted shared tokens, A = I plus the tokens only in ``a`` and
    B = I plus the tokens only in ``b`` (each joined by single spaces),
    the score is the best plain Levenshtein ratio among the pairs (I, A),
    (I, B) and (A, B), rounded to an integer.

    Consequences worth knowing: equal strings score 100, and whenever one
    token set contains the other the score is also 100.
    """
    return _score(_profile(a), _profile(b), 0)


def score_at_least(a: str, b: str, threshold: int) -> bool:
    """``token_set_similarity(a, b) >= threshold``, skipping what bounds decide."""
    return _score(_profile(a), _profile(b), threshold) >= threshold


class NameIndex:
    """Names blocked by rare-token prefix and by length, for exact lookups.

    Ids are positions in insertion order.  A lookup scores only the
    candidates that could reach the threshold t.  Write W(S) for the sum
    of ``len(tok) + 1`` over a token set S, so a name's sorted-token
    length is W of its tokens minus 1, and D(l, t) for :func:`_slack`,
    the largest distance that still reaches t over length l.  With a
    the query and b a name, a pair reaches t by one of the three ratios
    of :func:`token_set_similarity`, and each is blocked with no loss:

    * (A, B).  The distance is at least the length difference and at
      least the characters of the longer string not in the other's
      character multiset, so only names in the length window of the
      query, sharing enough characters with it, can reach t this way.
    * (I, A), the query nearly inside b.  With shared tokens the distance
      is W(t_a - t_b); without, the ratio is 0, below any t > 0.  So b
      must share a token with every set P of the query's tokens with
      W(P) > D(la, t); the rarest such prefix of the query's tokens
      (ordered by posting length) is looked up in the full postings.
    * (I, B), b nearly inside the query: symmetric, with D(lb, t).  Each
      name is posted under its own rarest prefix of weight above
      D(lb, t), and the query looks up all its tokens there.  These
      prefix postings are built for a threshold on its first lookup and
      extended by :meth:`add`; any token order would be exact.

    The subset rule scores 100 through (I, A) or (I, B).  Tokenless
    names are candidates of every query, a tokenless query and any
    t <= 0 take every name, and every candidate is scored by
    :func:`_score`, so results equal a scan over all names.
    """

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._profiles: list[_Profile] = []
        self._bags: list[int] = []
        self._postings: dict[str, list[int]] = {}
        self._by_length: dict[int, list[int]] = {}
        self._tokenless: list[int] = []
        # threshold -> token -> ids of the names whose rare prefix holds it
        self._prefix_postings: dict[int, dict[str, list[int]]] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        """Index ``name`` and return its id."""
        i = len(self._profiles)
        p = _profile(name)
        self._profiles.append(p)
        self._bags.append(p.bag)
        if not p.tokens:
            self._tokenless.append(i)
        else:
            self._by_length.setdefault(len(p.text), []).append(i)
            for tok in p.tokens:
                self._postings.setdefault(tok, []).append(i)
            for threshold, prefixes in self._prefix_postings.items():
                self._post_prefix(prefixes, i, p, threshold)
        return i

    def _rare_prefix(self, p: _Profile, threshold: int) -> list[str]:
        """The fewest rarest tokens of ``p`` whose weight exceeds D(len, t)."""
        postings, slack = self._postings, _slack(len(p.text), threshold)
        prefix, weight = [], 0
        for tok in sorted(p.tokens, key=lambda tok: (len(postings.get(tok, ())), tok)):
            prefix.append(tok)
            weight += len(tok) + 1
            if weight > slack:
                break
        return prefix

    def _post_prefix(self, prefixes: dict, i: int, p: _Profile, threshold: int) -> None:
        for tok in self._rare_prefix(p, threshold):
            prefixes.setdefault(tok, []).append(i)

    def _candidates(self, p: _Profile, threshold: int) -> Sequence[int]:
        if not p.tokens or threshold <= 0:
            return range(len(self._profiles))
        prefixes = self._prefix_postings.get(threshold)
        if prefixes is None:
            prefixes = self._prefix_postings[threshold] = {}
            for i, q in enumerate(self._profiles):
                if q.tokens:
                    self._post_prefix(prefixes, i, q, threshold)
        ids = set(self._tokenless)
        postings = self._postings
        for tok in self._rare_prefix(p, threshold):  # (I, A)
            ids.update(postings.get(tok, ()))
        for tok in p.tokens:  # (I, B)
            ids.update(prefixes.get(tok, ()))
        bag, bags, by_length = p.bag, self._bags, self._by_length
        for length, need in _length_window(len(p.text), threshold):  # (A, B)
            bucket = by_length.get(length)
            if bucket:
                ids.update(i for i in bucket if (bags[i] & bag).bit_count() >= need)
        return sorted(ids)

    def first_match(self, name: str, threshold: int) -> int | None:
        """Lowest id whose name scores at least ``threshold`` with ``name``."""
        p = _profile(name)
        profiles = self._profiles
        for i in self._candidates(p, threshold):
            if _score(p, profiles[i], threshold) >= threshold:
                return i
        return None

    def best_match(
        self, name: str, threshold: int, order: Callable[[int], Any]
    ) -> tuple[int, int] | None:
        """(id, score) of the best name scoring at least ``threshold``.

        Higher scores win; equal scores go to the smaller ``order(id)``,
        then to the lower id.
        """
        p = _profile(name)
        profiles = self._profiles
        best_i, best_key, best_s = None, None, threshold
        for i in self._candidates(p, threshold):
            # Exact whenever it can tie or beat the current best.
            s = _score(p, profiles[i], best_s)
            if s < best_s:
                continue
            key = (-s, order(i))
            if best_key is None or key < best_key:
                best_i, best_key, best_s = i, key, s
        return None if best_i is None else (best_i, best_s)


class _LinkIndex(NamedTuple):
    records: tuple
    names: NameIndex
    memo: dict  # (stripped mention text, threshold) -> OrgLink | None


# Indexes of the gazetteers recently linked against, newest first.  A link
# depends only on the text, the records and the threshold, so the memo
# can never hand back a stale answer; it is emptied when it grows large.
_LINK_INDEXES: list[_LinkIndex] = []
_MEMO_SIZE = 65536


def _link_index(gazetteers: Sequence[OrgRecord]) -> _LinkIndex:
    records = gazetteers if type(gazetteers) is tuple else tuple(gazetteers)
    for k, entry in enumerate(_LINK_INDEXES):
        if entry.records is records:
            return entry
        if entry.records == records:
            # hold an equal tuple loaded again, so its later calls match by identity
            _LINK_INDEXES[k] = entry = entry._replace(records=records)
            return entry
    entry = _LinkIndex(records, NameIndex(r.name for r in records), {})
    _LINK_INDEXES.insert(0, entry)
    del _LINK_INDEXES[4:]
    return entry


def link_org(
    mention: "str | object",
    gazetteers: Sequence[OrgRecord],
    threshold: int = MATCH_THRESHOLD,
) -> OrgLink | None:
    """Best-scoring gazetteer record for a mention, or None.

    Accepts an OrgMention-like object (anything with a ``text`` attribute)
    or a plain string.  Returns None for mentions with fewer than three
    alphanumeric characters ("''s" counts one, so punctuation fragments
    never reach the subset rule) and for best scores below the threshold.
    Ties are broken by org type (academic, then federal, then think tank)
    and then by the lexicographically smallest record name, so the result
    does not depend on gazetteer order.  Results are memoized per
    gazetteer and stripped mention text.
    """
    text = getattr(mention, "text", mention)
    if not isinstance(text, str):
        raise TypeError("mention must be a string or have a .text attribute")
    text = text.strip()
    index = _link_index(gazetteers)
    key = (text, threshold)
    if key in index.memo:
        return index.memo[key]
    link = None
    if sum(c.isalnum() for c in text) >= MIN_MENTION_CHARS:
        records = index.records
        match = index.names.best_match(
            text,
            threshold,
            lambda i: (_TYPE_PRIORITY[records[i].org_type], records[i].name),
        )
        if match is not None:
            link = OrgLink(mention_text=text, record=records[match[0]], score=match[1])
    if len(index.memo) >= _MEMO_SIZE:
        index.memo.clear()
    index.memo[key] = link
    return link


def default_gazetteer_dir() -> Path:
    """Directory of the gazetteer files shipped with the package."""
    return Path(__file__).parent / "data" / "gazetteers"


def _data_rows(path: Path) -> Iterable[list[str]]:
    """CSV rows of a gazetteer file, skipping comments and the header."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    return rows[1:]  # header row


def _ranked_rows(path: Path) -> Iterable[tuple[int, str]]:
    """(rank, name) pairs of a ranked gazetteer file.

    A row without a name that has a token, or without an integer rank of
    at least 1, raises a ValueError that names the file and the row.
    """
    for row in _data_rows(path):
        try:
            rank, name = int(row[0]), row[1].strip()
            if rank < 1 or not has_token(name):
                raise ValueError
        except (IndexError, ValueError):
            raise ValueError(
                f"{path}: malformed row {','.join(row)!r} (expected rank,name "
                "with an integer rank >= 1 and a name with an ASCII letter or digit)"
            ) from None
        yield rank, name


def _matchable(path: Path, name: str) -> str:
    """``name``, if it has a token; else a ValueError naming the file and row."""
    if not has_token(name):
        raise ValueError(
            f"{path}: malformed row {name!r} (a name needs an ASCII letter or "
            "digit, or it matches every organization)"
        )
    return name


def _text_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of a text data file, skipping blank and
    '#' comment lines; the numbers count every line of the file."""
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _first_seen(name: str, seen: set, kind: str) -> bool:
    """Whether ``name`` is new to ``seen`` by casefold (then it is added);
    a repeat is logged as a duplicate ``kind``."""
    key = name.casefold()
    if key in seen:
        log.warning("duplicate %s %r ignored", kind, name)
        return False
    seen.add(key)
    return True


def load_gazetteers(gazetteer_dir: "str | Path") -> list[OrgRecord]:
    """Load all gazetteer files from a directory into OrgRecords.

    Expects ``universities.csv`` (rank,name), ``public_health.csv``
    (rank,name), ``federal.txt`` (one agency per line) and
    ``thinktanks.csv`` (name with an optional region column).  Lines
    starting with '#' are comments in every file.  A missing file is
    fatal; duplicate names within a file are logged and the first
    occurrence kept.

    Public-health rows are joined onto the academic records by token-set
    similarity at the match threshold; rows that match no university are
    kept as academic records carrying only a public-health rank, with a
    warning.
    """
    d = Path(gazetteer_dir)
    for required in ("universities.csv", "public_health.csv", "federal.txt", "thinktanks.csv"):
        if not (d / required).exists():
            raise FileNotFoundError(f"missing gazetteer file: {d / required}")

    university_names: set[str] = set()
    academics = [
        OrgRecord(name, OrgType.ACADEMIC, world_rank=rank)
        for rank, name in _ranked_rows(d / "universities.csv")
        if _first_seen(name, university_names, "university")
    ]

    index = NameIndex(rec.name for rec in academics)
    for ph_rank, name in _ranked_rows(d / "public_health.csv"):
        match = index.best_match(name, MATCH_THRESHOLD, lambda i: academics[i].name)
        if match is None:
            # a repeat of this name would match it at 100, so it is never added twice
            log.info("public-health school %r matches no ranked university; kept standalone", name)
            academics.append(OrgRecord(name, OrgType.ACADEMIC, public_health_rank=ph_rank))
            index.add(name)
            continue
        best_i = match[0]
        if academics[best_i].public_health_rank is not None:
            log.warning("university %r already has a public-health rank; %r ignored",
                        academics[best_i].name, name)
        else:
            academics[best_i] = replace(academics[best_i], public_health_rank=ph_rank)

    federal, think_tanks = d / "federal.txt", d / "thinktanks.csv"
    federal_names: set[str] = set()
    think_tank_names: set[str] = set()
    return academics + [
        OrgRecord(name, OrgType.FEDERAL) for _, name in _text_lines(federal)
        if _first_seen(_matchable(federal, name), federal_names, "federal agency")
    ] + [
        OrgRecord(name, OrgType.THINK_TANK)
        for name in (row[0].strip() for row in _data_rows(think_tanks))
        if name and _first_seen(_matchable(think_tanks, name), think_tank_names, "think tank")
    ]
