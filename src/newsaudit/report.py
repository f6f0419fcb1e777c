"""End-to-end audit orchestration and report assembly.

``extract_mentions`` drives the per-sentence pipeline (detectors, entity
attachment, organization linking) over a corpus file; ``build_report``
folds any iterable of mentions, in one pass and in any order, into counts
and builds from them the nested table structure the emitters consume;
``run_audit`` wires the two together and persists artifacts.
Statistics that a table cannot support (zero men, constant ranks, one
data point) are reported as null values with a reason string instead of
being silently dropped.
"""

from __future__ import annotations

import csv
import json
import logging
import random
import sys
import zlib
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, fields
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from . import figures, stats
from .corpus import (
    IngestStats,
    SourceConfig,
    load_source_config,
    parse_article_stream,
    segment_sentences,
)
from .entities import (
    GenderLabel,
    MergedGender,
    RawGender,
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
from .extract import (
    Detector,
    ReportingVerbLexicon,
    load_reporting_verbs,
    run_detectors,
    union_candidates,
)
from .orglink import (
    OrgLink,
    OrgRecord,
    OrgType,
    default_gazetteer_dir,
    link_org,
    load_gazetteers,
)

log = logging.getLogger(__name__)

#: Confidence level of every bootstrap interval in the report.
CONFIDENCE = 0.95
#: Cut points for the cumulative top-n attention curves.
TOP_CUT_POINTS = tuple(range(5, 101, 5))


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class ExpertMention:
    """One extracted speaker/organization pair, fully enriched."""

    article_id: str
    source: str
    sentence_index: int
    sentence_text: str
    sentence_char_length: int
    speaker_text: str
    gender: GenderLabel
    org_text: str
    org_link: OrgLink | None
    detectors: frozenset

    def __post_init__(self) -> None:
        _check_length(self.sentence_char_length)
        if not self.detectors:
            raise ValueError("mention needs at least one detector tag")

    def to_dict(self) -> dict:
        link = None
        if self.org_link is not None:
            rec = self.org_link.record
            link = {
                "name": rec.name,
                "org_type": rec.org_type.value,
                "world_rank": rec.world_rank,
                "public_health_rank": rec.public_health_rank,
                "score": self.org_link.score,
            }
        return {
            "article_id": self.article_id,
            "source": self.source,
            "sentence_index": self.sentence_index,
            "sentence_text": self.sentence_text,
            "sentence_char_length": self.sentence_char_length,
            "speaker_text": self.speaker_text,
            "gender_raw": self.gender.raw.value,
            "gender": self.gender.merged.value,
            "org_text": self.org_text,
            "org_link": link,
            "detectors": sorted(d.value for d in self.detectors),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ExpertMention":
        return cls(*_RowDecoder().row(d))


def _check_length(n: int) -> None:
    if n <= 0:
        raise ValueError("sentence_char_length must be positive")
    if n > sys.maxsize:
        # no str is that long
        raise ValueError("sentence_char_length exceeds sys.maxsize")


#: A mention as a row: its field values in ``ExpertMention`` field order,
#: the unit ``_Aggregate`` folds.
_ROW = attrgetter(*(f.name for f in fields(ExpertMention)))

#: The required keys of a ``to_dict`` mention, in the order ``_RowDecoder.row``
#: reads them; ``org_link`` may be left out.
_LINE_FIELDS = itemgetter(
    "article_id", "source", "sentence_index", "sentence_text", "sentence_char_length",
    "speaker_text", "gender_raw", "gender", "org_text", "detectors",
)

#: The per-line fields of a mention that must be a str or an int (not a bool).
_TYPED_FIELDS = (
    ("article_id", str), ("source", str), ("sentence_index", int),
    ("sentence_text", str), ("sentence_char_length", int), ("speaker_text", str),
    ("org_text", str),
)


def _type_error(values: Sequence[Any]) -> str:
    """The message for the first of ``values`` (``_TYPED_FIELDS`` order) of a
    wrong type."""
    name, want, value = next(
        (name, want, value) for (name, want), value in zip(_TYPED_FIELDS, values)
        if type(value) is not want
    )
    kind = "a string" if want is str else "an integer"
    return f"{name} must be {kind}, not {type(value).__name__}"


class _RowDecoder:
    """Rows of decoded ``to_dict`` mentions, every ``ExpertMention`` check kept.

    ``row(d)`` checks the per-line fields (strings, integers, a positive
    length) on every call.  The values lines repeat are built and checked
    once per distinct value and then shared, one memo lookup each: the
    OrgLink, keyed on ``org_text`` and the link's values with their types,
    and the (GenderLabel, detector set) pair, keyed on the raw values.  Below
    those, one OrgRecord, GenderLabel and detector set per distinct value.
    All are frozen, so rows may share them.
    """

    def __init__(self) -> None:
        self._links: dict = {}
        self._tags: dict = {}
        self._records: dict = {}
        self._labels: dict = {}
        self._detector_sets: dict = {}

    def row(self, d: Mapping[str, Any]) -> tuple:
        (article_id, source, index, text, length, speaker, gender_raw, gender,
         org_text, detectors) = _LINE_FIELDS(d)
        if not (type(article_id) is str and type(source) is str and type(index) is int
                and type(text) is str and type(length) is int and type(speaker) is str
                and type(org_text) is str):
            raise ValueError(
                _type_error((article_id, source, index, text, length, speaker, org_text))
            )
        if not 0 < length <= sys.maxsize:
            _check_length(length)
        key = (gender_raw, gender, *detectors)
        tags = self._tags.get(key)
        if tags is None:
            tags = self._tags[key] = self._new_tags(gender_raw, gender, detectors)
        raw_link, link = d.get("org_link"), None
        if raw_link is not None:
            # 1, 1.0 and True are equal keys; keep each number's type so a
            # shared link writes back exactly as every line that uses it was read
            world, health = raw_link.get("world_rank"), raw_link.get("public_health_rank")
            score = raw_link["score"]
            key = (org_text, raw_link["name"], raw_link["org_type"], world, health, score,
                   type(world), type(health), type(score))
            link = self._links.get(key)
            if link is None:
                link = self._links[key] = self._new_link(key)
        return (article_id, source, index, text, length, speaker, tags[0], org_text,
                link, tags[1])

    def _new_tags(self, raw: Any, merged: Any, detectors: Iterable) -> tuple:
        label = self._labels.get((raw, merged))
        if label is None:
            label = self._labels[raw, merged] = GenderLabel(
                raw=RawGender(raw), merged=MergedGender(merged)
            )
        tags = frozenset(map(Detector, detectors))
        if not tags:
            raise ValueError("mention needs at least one detector tag")
        return label, self._detector_sets.setdefault(tags, tags)

    def _new_link(self, key: tuple) -> OrgLink:
        org_text, name, org_type, world, health, score, world_t, health_t, _ = key
        rkey = (name, org_type, world, health, world_t, health_t)
        record = self._records.get(rkey)
        if record is None:
            record = self._records[rkey] = OrgRecord(name, OrgType(org_type), world, health)
        return OrgLink(mention_text=org_text, record=record, score=score)


@dataclass(frozen=True)
class AuditConfig:
    """Knobs that affect the numbers in the report.

    The confidence level (``CONFIDENCE``) and the top-n cut points
    (``TOP_CUT_POINTS``) are fixed; ``to_dict`` still records both.
    """

    seed: int = 0
    bootstrap_iterations: int = 1000
    bin_width: int = 10
    outlet_suppression: bool = True
    gender_mode: str = "first"

    def __post_init__(self) -> None:
        if self.bootstrap_iterations < 1:
            raise ValueError("bootstrap_iterations must be >= 1")
        if self.bin_width < 1:
            raise ValueError("bin_width must be >= 1")
        if self.gender_mode not in ("first", "majority"):
            raise ValueError("gender_mode must be 'first' or 'majority'")

    def to_dict(self) -> dict:
        return {**asdict(self), "confidence": CONFIDENCE,
                "top_cut_points": list(TOP_CUT_POINTS)}


@dataclass(frozen=True)
class Resources:
    """Shared lookup data loaded once per run."""

    gazetteers: tuple
    first_names: Mapping[str, RawGender]
    overrides: Mapping[str, RawGender]
    stoplist: frozenset
    honorifics: frozenset
    lexicon: ReportingVerbLexicon


def load_resources(gazetteer_dir: "str | Path | None" = None) -> Resources:
    if gazetteer_dir is None:
        gazetteer_dir = default_gazetteer_dir()
    return Resources(
        gazetteers=tuple(load_gazetteers(gazetteer_dir)),
        first_names=load_gender_dict(),
        overrides=load_overrides(),
        stoplist=load_stoplist(),
        honorifics=load_honorifics(),
        lexicon=load_reporting_verbs(),
    )


def fixture_dir() -> Path:
    """Directory of the bundled 20-article corpus, sources.json, and gold.json."""
    return Path(__file__).parent / "data" / "fixture"


@dataclass(frozen=True)
class AuditReport:
    """Assembled tables; from ``run_audit``, also the sorted mention list
    they were computed from (``build_report`` keeps no mentions)."""

    data: Mapping[str, Any]
    mentions: tuple = ()

    @property
    def empty(self) -> bool:
        return bool(self.data.get("empty"))

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# extraction


def mention_sort_key(m: ExpertMention) -> tuple:
    """The deterministic order of mentions in every artifact."""
    return (m.article_id, m.sentence_index, m.speaker_text, m.org_text)


def extract_mentions(
    corpus_path: "str | Path",
    sources: SourceConfig,
    resources: Resources,
    outlet_suppression: bool = True,
) -> "tuple[list[ExpertMention], IngestStats]":
    """Run the sentence pipeline over a corpus file.

    Returns the mentions, sorted by ``mention_sort_key``, and the run's
    ``IngestStats``: the line-level ingest counts, segmented sentences,
    articles per outlet, and articles skipped because their source key
    has no outlet configuration.

    Each sentence is tokenized at most once: before detection when a
    token may start a reporting-verb phrase, so the clausal detector can
    run, else only once some detector has found a candidate.  The one
    token list then serves every entity finder.
    """
    lexicon = resources.lexicon
    gaz_names = tuple(r.name for r in resources.gazetteers)
    mentions: list[ExpertMention] = []
    counts = IngestStats()
    for article in parse_article_stream(corpus_path, stats=counts):
        outlet = sources.get(article.source)
        if outlet is None:
            log.warning(
                "article %s: source %r not configured; skipping", article.id, article.source
            )
            counts.skipped_unconfigured_sources[article.source] += 1
            continue
        counts.articles_by_outlet[outlet.key] += 1
        sentences = segment_sentences(article.body, article_ref=article.id)
        counts.sentences += len(sentences)
        for sentence in sentences:
            text = sentence.text
            toks = _tokens(text) if lexicon.has_first_word(text) else None
            cands = run_detectors(sentence, toks, lexicon)
            if not cands:
                continue
            if toks is None:
                toks = _tokens(text)
            persons = find_person_mentions(
                sentence,
                toks,
                resources.first_names,
                resources.stoplist,
                resources.honorifics,
            )
            spans = person_exclusion_spans(sentence, toks, persons, resources.honorifics)
            orgs = find_org_mentions(
                sentence, toks, gaz_names, exclude_spans=spans,
                outlet_names=outlet.self_org_names,
            )
            final = union_candidates(
                cands,
                persons,
                orgs,
                outlet_names=outlet.self_org_names,
                suppress_outlet_names=outlet_suppression,
            )
            for cand in final:
                mentions.append(
                    ExpertMention(
                        article_id=article.id,
                        source=outlet.key,
                        sentence_index=sentence.index,
                        sentence_text=sentence.text,
                        sentence_char_length=len(sentence.text),
                        speaker_text=cand.speaker_text,
                        gender=classify_gender(
                            cand.speaker_text, resources.first_names, resources.overrides
                        ),
                        org_text=cand.org_text,
                        org_link=link_org(cand.org_text, resources.gazetteers),
                        detectors=cand.detectors,
                    )
                )
        # free this article's sentences before the next one is segmented
        del sentences
    mentions.sort(key=mention_sort_key)
    return mentions, counts


def write_mentions_jsonl(mentions: Sequence[ExpertMention], path: "str | Path") -> Path:
    """Write one JSON line per mention, creating the parent directory."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", encoding="utf-8") as fh:
        for m in mentions:
            fh.write(json.dumps(m.to_dict(), sort_keys=True) + "\n")
    return p


#: The C scanner ``json.loads`` runs, called once per mentions line.
_scan_once = json.JSONDecoder().scan_once

#: JSON's whitespace, the only characters allowed after a line's value.
_JSON_SPACE = " \t\n\r"


def _read_rows(path: "str | Path", sources: "SourceConfig | None") -> Iterator[tuple]:
    """The rows of a mentions file, one per non-blank line, in file order."""
    row = _RowDecoder().row
    outlets = None if sources is None else sources.outlets
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            try:
                try:
                    d, end = _scan_once(line, 0)
                except StopIteration:
                    d = json.loads(line)  # leading whitespace, or json names the error
                else:
                    if line[end:].strip(_JSON_SPACE):
                        json.loads(line)  # raises: extra data after the value
                r = row(d)
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: mention lacks {exc}") from None
            except (
                AttributeError, TypeError, ValueError, OverflowError, RecursionError
            ) as exc:
                raise ValueError(f"{path}:{lineno}: malformed mention: {exc}") from None
            if outlets is not None and r[1] not in outlets:
                raise ValueError(
                    f"{path}:{lineno}: source {r[1]!r} is not in the outlet config"
                )
            yield r


class MentionReader:
    """The mentions of a ``write_mentions_jsonl`` file, read lazily, once.

    Iterating yields one ``ExpertMention`` per line, in file order.
    ``rows`` is the same pass as field tuples in ``ExpertMention`` field
    order, which ``build_report`` folds without building a mention per line.
    """

    def __init__(self, path: "str | Path", sources: "SourceConfig | None" = None) -> None:
        self.rows = _read_rows(path, sources)

    def __iter__(self) -> "MentionReader":
        return self

    def __next__(self) -> ExpertMention:
        return ExpertMention(*next(self.rows))


def read_mentions_jsonl(
    path: "str | Path", sources: "SourceConfig | None" = None
) -> MentionReader:
    """Mentions of a ``write_mentions_jsonl`` file, one at a time, in file order.

    Each non-blank line holds one JSON object with the keys of
    ``ExpertMention.to_dict``: ``article_id``, ``source``, ``sentence_text``,
    ``speaker_text`` and ``org_text`` are strings; ``sentence_index`` and
    ``sentence_char_length`` are integers (not booleans), the length
    positive; ``gender_raw``/``gender`` are a consistent label, ``detectors``
    a non-empty list of detector names and ``org_link`` absent, null or a
    gazetteer link.  Those per-line fields are checked on every line; the link, label
    and detector set, which lines repeat, are checked once per distinct
    value, and equal ones are shared.  A malformed line, or with ``sources``
    a mention whose outlet it does not configure, raises a ValueError that
    names the file and the line.
    """
    return MentionReader(path, sources)


def _rows(mentions: Iterable[ExpertMention]) -> Iterator[tuple]:
    """The mentions as rows: straight from the decoder for a ``MentionReader``."""
    if isinstance(mentions, MentionReader):
        return mentions.rows
    return map(_ROW, mentions)


# ---------------------------------------------------------------------------
# report assembly


def _try(fn: Callable[[], Any]) -> "tuple[Any, str | None]":
    """Run a statistic, mapping domain errors to (None, reason)."""
    try:
        return fn(), None
    except (ValueError, ZeroDivisionError) as exc:
        return None, str(exc)


def _bs_config(label: str, config: AuditConfig) -> stats.BootstrapConfig:
    # stable per-table seeds: reruns reproduce, tables stay independent
    return stats.BootstrapConfig(
        iterations=config.bootstrap_iterations,
        seed=zlib.crc32(label.encode("utf-8")) ^ (config.seed & 0xFFFFFFFF),
        confidence=CONFIDENCE,
    )


def _bs_dict(result: "stats.BootstrapResult | None", reason: "str | None" = None) -> dict:
    if result is None:
        return {"available": False, "reason": reason}
    return {"available": True, **asdict(result)}


def _bootstrap_or_none(
    k: int, n: int, statistic: Callable, label: str, config: AuditConfig
) -> dict:
    # bootstrap of a 0/1 sample of n values holding k ones, from its counts
    if n == 0:
        return _bs_dict(None, "empty sample")
    res, reason = _try(
        lambda: stats.bootstrap_counts(k, n, statistic, _bs_config(label, config))
    )
    return _bs_dict(res, reason)


def _gender_counts(counts: Mapping[MergedGender, int]) -> dict:
    return {g.value: counts.get(g, 0) for g in MergedGender}


def _ratio_block(
    genders: Mapping[MergedGender, int], label: str, config: AuditConfig
) -> dict:
    counts = _gender_counts(genders)
    ratio, reason = _try(lambda: stats.gender_ratio(counts))
    known = counts["Man"] + counts["Woman"]
    return {
        "n_men": counts["Man"],
        "n_women": counts["Woman"],
        "n_unknown": counts["Unknown"],
        "ratio": ratio,
        "ratio_reason": reason,
        # women per man in each resample; no men gives inf
        "bootstrap": _bootstrap_or_none(
            counts["Woman"], known, lambda women: women / (known - women), label, config
        ),
    }


def _rank_block(counts: Mapping[Any, int], population_ranks: Sequence[int]) -> dict:
    """Mention counts over a ranked institution population.

    Zero-mention institutions stay in the vector: a Lorenz curve over
    attention needs the full population, not just the observed part.
    """
    vector = [float(counts.get(r, 0)) for r in population_ranks]
    gini, gini_reason = _try(lambda: stats.gini(vector))
    rho, rho_reason = _try(lambda: stats.spearman(list(population_ranks), vector))
    return {
        "n_institutions": len(population_ranks),
        "mentions": sum(counts.values()),
        "gini": gini,
        "gini_reason": gini_reason,
        "spearman": rho,
        "spearman_reason": rho_reason,
        "counts_by_rank": {str(r): counts.get(r, 0) for r in population_ranks},
    }


#: Report sections that hold tables; all are null in an empty report.
TABLE_SECTIONS = (
    "totals",
    "gender_composition",
    "gender_by_org_type",
    "org_type_by_outlet",
    "outlet_ratios",
    "ideology_ratio_test",
    "rank_attention",
    "sentence_length",
    "co_mention",
    "provenance",
)

#: Co-mention mask bits: the merged genders quoted in one sentence.
_MAN_BIT, _WOMAN_BIT = 1, 2
_GENDER_BIT = {MergedGender.MAN: _MAN_BIT, MergedGender.WOMAN: _WOMAN_BIT,
               MergedGender.UNKNOWN: 0}


@dataclass(slots=True)
class _Earliest:
    """Mentions of one speaker text with one merged gender: how many, and
    the label of the first by ``key`` (sort key, then file position)."""

    count: int
    key: tuple
    label: GenderLabel


_KEY = attrgetter("key")


class _Aggregate:
    """Everything the report reads, folded from the mentions in one pass.

    The fold reads each mention as a row (see ``_rows``), so a
    ``MentionReader`` is folded without building a mention per line.
    ``table`` counts mentions per (source, GenderLabel, OrgRecord or None,
    detector set) and ``lengths`` their sentence lengths per merged gender;
    ``sentences`` maps (article_id, sentence_index) to its co-mention mask;
    ``speakers`` maps each speaker text to an ``_Earliest`` per merged gender.
    """

    def __init__(self, mentions: Iterable[ExpertMention]) -> None:
        self.table: Counter = Counter()
        self.lengths = {g: Counter() for g in MergedGender}
        self.sentences: defaultdict = defaultdict(int)
        self.speakers: defaultdict = defaultdict(dict)
        table, lengths, sentences, speakers = (
            self.table, self.lengths, self.sentences, self.speakers
        )
        for pos, (article_id, source, index, _, length, speaker, label, org_text, link,
                  detectors) in enumerate(_rows(mentions)):
            merged = label.merged
            table[source, label, None if link is None else link.record, detectors] += 1
            lengths[merged][length] += 1
            sentences[article_id, index] |= _GENDER_BIT[merged]
            # mention_sort_key of the row
            key, by_gender = (article_id, index, speaker, org_text), speakers[speaker]
            seen = by_gender.get(merged)
            if seen is None:
                by_gender[merged] = _Earliest(1, (key, pos), label)
            else:
                seen.count += 1
                if key < seen.key[0]:  # equal keys keep the first in file order
                    seen.key, seen.label = (key, pos), label

    def count(self, project: Callable[..., Any]) -> Counter:
        """Mentions per ``project(source, label, record, detectors)``; rows
        it projects to None are left out."""
        out: Counter = Counter()
        for row, n in self.table.items():
            key = project(*row)
            if key is not None:
                out[key] += n
        return out


def _unique_experts(speakers: Mapping[str, dict], gender_mode: str) -> list:
    """``resolve_unique_experts`` over every mention in sort order.

    A repeated name joins the expert its first mention joined, so the
    distinct names, in order of their first mentions, group the same way;
    counts and majority votes are then summed over each expert's names.
    (``_labels`` holds one label per distinct name.)
    """
    first = {name: min(seen.values(), key=_KEY) for name, seen in speakers.items()}
    names = sorted(first, key=lambda name: first[name].key)
    experts = resolve_unique_experts(names, [first[name].label for name in names])
    for expert in experts:
        entries = [e for name in (expert.canonical_name, *expert.aliases)
                   for e in speakers[name].values()]
        votes: Counter = Counter()
        for e in entries:
            votes[e.label.merged] += e.count
        expert.mention_count = sum(votes.values())
        (top, best), *rest = votes.most_common()
        if gender_mode == "majority" and not (rest and rest[0][1] == best):
            # a tie keeps the founding label
            expert.gender = min((e for e in entries if e.label.merged is top), key=_KEY).label
    return experts


def build_report(
    mentions: Iterable[ExpertMention],
    sources: SourceConfig,
    config: AuditConfig,
    resources: "Resources | None" = None,
    counts: "IngestStats | None" = None,
) -> AuditReport:
    """Assemble every table of the audit from enriched mentions.

    ``mentions`` is iterated once, in any order, and not kept: each table
    is built from the counts it folds into.  A mention whose source
    ``sources`` does not configure raises a ValueError.  ``counts`` is the
    ``IngestStats`` that ``extract_mentions`` returned for these mentions;
    without it (a mentions file has none) every corpus count is null.
    """
    if resources is None:
        resources = load_resources()
    agg = _Aggregate(mentions)
    by_source = agg.count(lambda source, *_: source)
    unconfigured = sorted(key for key in by_source if key not in sources)
    if unconfigured:
        raise ValueError(f"mention source {unconfigured[0]!r} is not in the outlet config")
    data: dict[str, Any] = {
        "config": config.to_dict(),
        "corpus": _corpus_section(by_source, sources, counts),
        "empty": not by_source,
    }
    if not by_source:
        data.update(dict.fromkeys(TABLE_SECTIONS))
        return AuditReport(data=data)

    genders = agg.count(lambda source, label, *_: label.merged)
    experts = _unique_experts(agg.speakers, config.gender_mode)
    data["totals"] = _totals_section(agg, genders, experts, resources, config)
    data["gender_composition"] = _composition_section(genders, experts)
    data["gender_by_org_type"] = _gender_by_org_type_section(agg, config)
    data["org_type_by_outlet"] = _org_type_by_outlet_section(agg, sources)
    data["outlet_ratios"], data["ideology_ratio_test"] = _outlet_ratio_sections(
        agg, sources, config
    )
    data["rank_attention"] = _rank_attention_section(agg, sources, resources, config)
    data["sentence_length"] = _sentence_length_section(agg)
    data["co_mention"] = _co_mention_section(agg)
    data["provenance"] = _provenance_section(agg)
    return AuditReport(data=data)


def _corpus_section(mention_counts, sources, counts: "IngestStats | None") -> dict:
    # a mentions file carries no corpus counts, so under ``stats`` all are null
    known = counts is not None
    section = {
        "outlets": {
            outlet.key: {
                "display_name": outlet.display_name,
                "ideology": outlet.ideology.value,
                "articles": counts.articles_by_outlet[outlet.key] if known else None,
                "mentions": mention_counts.get(outlet.key, 0),
            }
            for outlet in sources
        },
        "sentences": None, "skipped_unconfigured_sources": None, "ingest": None,
    }
    if known:
        section["sentences"] = counts.sentences
        section["skipped_unconfigured_sources"] = dict(counts.skipped_unconfigured_sources)
        section["ingest"] = {name: getattr(counts, name) for name in IngestStats.LINE_COUNTS}
    return section


def _totals_section(agg, genders, experts, resources, config) -> dict:
    n = sum(genders.values())
    # pre-merge: dictionary lookup only, no manual overrides applied;
    # each distinct speaker text is classified once, weighted by its mentions
    pre_unknown = sum(
        e.count
        for text, by_gender in agg.speakers.items()
        if classify_gender(text, resources.first_names).merged is MergedGender.UNKNOWN
        for e in by_gender.values()
    )
    return {
        "mentions": n,
        "unique_experts": len(experts),
        "unknown_fraction_pre_merge": pre_unknown / n,
        "unknown_fraction_post_merge": genders[MergedGender.UNKNOWN] / n,
        "women_men": _ratio_block(genders, "totals/women_men", config),
    }


def _composition_section(genders, experts) -> dict:
    def block(labels: Mapping[MergedGender, int]) -> dict:
        counts = _gender_counts(labels)
        known = counts["Man"] + counts["Woman"]
        return {
            "counts": counts,
            "man_share": counts["Man"] / known if known else None,
            "woman_share": counts["Woman"] / known if known else None,
            "unknown_count": counts["Unknown"],
        }

    return {
        "mentions": block(genders),
        "unique_experts": block(Counter(e.gender.merged for e in experts)),
    }


def _gender_by_org_type_section(agg, config) -> dict:
    by_type = agg.count(
        lambda source, label, rec, _: None if rec is None else (rec.org_type, label.merged)
    )
    out: dict[str, Any] = {}
    for org_type in OrgType:
        counts = _gender_counts({g: by_type[org_type, g] for g in MergedGender})
        n = sum(counts.values())
        out[org_type.value] = {
            "n": n,
            "counts": counts,
            "shares": {g: (c / n if n else None) for g, c in counts.items()},
            "bootstrap": {
                g: _bootstrap_or_none(
                    c, n, lambda k: k / n, f"gender_by_org_type/{org_type.value}/{g}", config
                )
                for g, c in counts.items()
            },
        }
    return out


def _org_type_by_outlet_section(agg, sources) -> dict:
    linked = agg.count(
        lambda source, label, rec, _: None if rec is None else (source, rec.org_type)
    )
    out: dict[str, Any] = {}
    for outlet in sources:
        counts = {t: linked[outlet.key, t] for t in OrgType}
        n = sum(counts.values())
        out[outlet.key] = {
            "ideology": outlet.ideology.value,
            "n_linked": n,
            "counts": {t.value: counts[t] for t in OrgType},
            "shares": {t.value: (counts[t] / n if n else None) for t in OrgType},
        }
    return out


def _outlet_ratio_sections(agg, sources, config) -> "tuple[dict, dict]":
    by_outlet = agg.count(lambda source, label, *_: (source, label.merged))
    ratios: dict[str, Any] = {}
    by_ideology: dict[str, list[float]] = {"left": [], "right": []}
    for outlet in sources:
        genders = {g: by_outlet[outlet.key, g] for g in MergedGender}
        block = _ratio_block(genders, f"outlet_ratios/{outlet.key}", config)
        block["ideology"] = outlet.ideology.value
        ratios[outlet.key] = block
        if block["ratio"] is not None:
            by_ideology[outlet.ideology.value].append(block["ratio"])
    test, reason = _try(
        lambda: stats.kruskal_wallis([by_ideology["left"], by_ideology["right"]])
    )
    ideology_test = {
        "groups": {k: sorted(v) for k, v in by_ideology.items()},
        "h": test.h if test else None,
        "p_value": test.p_value if test else None,
        "df": test.df if test else None,
        "reason": reason,
    }
    return ratios, ideology_test


def _rank_attention_section(agg, sources, resources, config) -> dict:
    world_ranks = sorted(
        r.world_rank for r in resources.gazetteers if r.world_rank is not None
    )
    health_ranks = sorted(
        r.public_health_rank
        for r in resources.gazetteers
        if r.public_health_rank is not None
    )
    ideology_of = {outlet.key: outlet.ideology.value for outlet in sources}

    def world(keep: Callable[[str, MergedGender], bool]) -> Counter:
        return agg.count(
            lambda source, label, rec, _: rec.world_rank
            if rec is not None and keep(ideology_of[source], label.merged)
            else None
        )

    def ranked(counts: Counter) -> dict:
        return {r: counts.get(r, 0) for r in world_ranks}

    sides = {s: world(lambda side, gender: side == s) for s in ("left", "right")}
    genders = {
        g.value: world(lambda side, gender: gender is g)
        for g in (MergedGender.MAN, MergedGender.WOMAN)
    }
    # cumulative top-n share curves per gender over world rank
    cumulative: dict[str, Any] = {"cut_points": list(TOP_CUT_POINTS)}
    for gender, counts in genders.items():
        shares, reason = _try(
            lambda: stats.cumulative_topn(ranked(counts), TOP_CUT_POINTS)
        )
        cumulative[gender] = {"shares": shares, "reason": reason}
    # per-bin left/right shares of academic attention over world rank
    binned, reason = _try(
        lambda: stats.binned_shares(
            {side: ranked(counts) for side, counts in sides.items()}, config.bin_width
        )
    )
    return {
        "overall": _rank_block(world(lambda side, gender: True), world_ranks),
        "by_ideology": {s: _rank_block(c, world_ranks) for s, c in sides.items()},
        "by_gender": {g: _rank_block(c, world_ranks) for g, c in genders.items()},
        "public_health": _rank_block(
            agg.count(lambda source, label, rec, _: rec and rec.public_health_rank),
            health_ranks,
        ),
        "cumulative_by_gender": cumulative,
        "binned_by_ideology": {
            "bin_width": config.bin_width,
            "shares": binned,
            "reason": reason,
        },
    }


def _sentence_length_section(agg) -> dict:
    men, women = agg.lengths[MergedGender.MAN], agg.lengths[MergedGender.WOMAN]
    test, reason = _try(lambda: stats.welch_t_counts(men.items(), women.items()))

    def block(lengths: Counter) -> dict:
        # an exact integer total, so equal to any float sum of the lengths
        n = sum(lengths.values())
        total = sum(length * c for length, c in lengths.items())
        return {"n": n, "mean_chars": total / n if n else None}

    return {
        "men": block(men),
        "women": block(women),
        "welch": {
            "t": test.t if test else None,
            "df": test.df if test else None,
            "p_value": test.p_value if test else None,
            "reason": reason,
        },
    }


def _co_mention_section(agg) -> dict:
    masks = Counter(agg.sentences.values())
    mixed = masks[_MAN_BIT | _WOMAN_BIT]
    man_sents, woman_sents = masks[_MAN_BIT] + mixed, masks[_WOMAN_BIT] + mixed
    p_man_given_woman = mixed / woman_sents if woman_sents else None
    p_woman_given_man = mixed / man_sents if man_sents else None
    return {
        "sentences_with_mentions": len(agg.sentences),
        "man_sentences": man_sents,
        "woman_sentences": woman_sents,
        "mixed_sentences": mixed,
        "p_man_given_woman_sentence": p_man_given_woman,
        "p_woman_given_man_sentence": p_woman_given_man,
        # both conditional rates recover the same mixed-sentence count
        "consistent": (
            (p_man_given_woman or 0.0) * woman_sents == mixed
            and (p_woman_given_man or 0.0) * man_sents == mixed
        ),
    }


def _provenance_section(agg) -> dict:
    by_detector: Counter = Counter()
    by_combo: Counter = Counter()
    for detectors, count in agg.count(lambda *row: row[3]).items():
        for d in detectors:
            by_detector[d.value] += count
        by_combo["+".join(sorted(d.value for d in detectors))] += count
    return {
        "by_detector": {d.value: by_detector.get(d.value, 0) for d in Detector},
        "by_combo": dict(sorted(by_combo.items())),
    }


# ---------------------------------------------------------------------------
# top-level runs


def run_audit(
    corpus_path: "str | Path",
    sources_path: "str | Path",
    gazetteer_dir: "str | Path | None" = None,
    config: "AuditConfig | None" = None,
    out_dir: "str | Path | None" = None,
) -> AuditReport:
    """Extract, enrich, and assemble the full audit for one corpus.

    When ``out_dir`` is given the intermediate mentions are persisted
    there as ``mentions.jsonl`` (one enriched mention per line, in
    deterministic order) before the report is assembled.
    """
    config = config or AuditConfig()
    sources = load_source_config(sources_path)
    resources = load_resources(gazetteer_dir)
    mentions, counts = extract_mentions(
        corpus_path, sources, resources, outlet_suppression=config.outlet_suppression
    )
    if out_dir is not None:
        write_mentions_jsonl(mentions, Path(out_dir) / "mentions.jsonl")
    report = build_report(mentions, sources, config, resources=resources, counts=counts)
    return AuditReport(data=report.data, mentions=tuple(mentions))


# ---------------------------------------------------------------------------
# emission


#: The artifact formats ``emit`` writes.
_FORMATS = frozenset({"json", "csv", "svg"})


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    with path.open("w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(["" if v is None else v for v in row])
    return path


def _composition_rows(comp: dict) -> Iterator[list]:
    for scope in ("mentions", "unique_experts"):
        block, counts = comp[scope], comp[scope]["counts"]
        yield [scope, block["man_share"], block["woman_share"],
               counts["Man"], counts["Woman"], counts["Unknown"]]


def _gender_by_org_type_rows(section: dict) -> Iterator[list]:
    for org_type, block in section.items():
        for gender in ("Man", "Woman", "Unknown"):
            bs = block["bootstrap"][gender]
            yield [org_type, gender, block["n"], block["shares"][gender],
                   bs.get("ci_low"), bs.get("ci_high")]


def _org_type_by_outlet_rows(section: dict) -> Iterator[list]:
    for outlet, block in section.items():
        shares = block["shares"]
        yield [outlet, block["ideology"], block["n_linked"],
               shares["academic"], shares["federal"], shares["think_tank"]]


def _outlet_ratio_rows(section: dict) -> Iterator[list]:
    for outlet, block in section.items():
        bs = block["bootstrap"]
        yield [outlet, block["ideology"], block["n_men"], block["n_women"],
               block["ratio"], bs.get("ci_low"), bs.get("ci_high")]


def _rank_scopes(rank: dict) -> "list[tuple[str, dict]]":
    """The rank-attention blocks under their CSV scope names, in table order."""
    return [
        ("overall", rank["overall"]),
        ("left", rank["by_ideology"]["left"]),
        ("right", rank["by_ideology"]["right"]),
        ("man", rank["by_gender"]["Man"]),
        ("woman", rank["by_gender"]["Woman"]),
        ("public_health", rank["public_health"]),
    ]


def _rank_summary_rows(rank: dict) -> Iterator[list]:
    for scope, block in _rank_scopes(rank):
        yield [scope, block["n_institutions"], block["mentions"],
               block["gini"], block["spearman"]]


def _rank_count_rows(rank: dict) -> Iterator[list]:
    for scope, block in _rank_scopes(rank):
        for r, c in block["counts_by_rank"].items():
            yield [scope, int(r), c]


def _cumulative_rows(rank: dict) -> Iterator[list]:
    cum = rank["cumulative_by_gender"]
    for gender in ("Man", "Woman"):
        for cut, share in zip(cum["cut_points"], cum[gender]["shares"] or ()):
            yield [gender, cut, share]


def _binned_rows(rank: dict) -> Iterator[list]:
    binned = rank["binned_by_ideology"]
    width, shares = binned["bin_width"], binned["shares"]
    if shares:
        for i, (left, right) in enumerate(zip(shares["left"], shares["right"])):
            yield [i * width + 1, (i + 1) * width, left, right]


def _sentence_length_rows(sl: dict) -> list:
    return [["Man", sl["men"]["n"], sl["men"]["mean_chars"]],
            ["Woman", sl["women"]["n"], sl["women"]["mean_chars"]]]


def _co_mention_rows(co: dict) -> list:
    return [[co["man_sentences"], co["woman_sentences"], co["mixed_sentences"],
             co["p_man_given_woman_sentence"], co["p_woman_given_man_sentence"]]]


def _totals_rows(totals: dict) -> list:
    return [[totals["mentions"], totals["unique_experts"],
             totals["unknown_fraction_pre_merge"], totals["unknown_fraction_post_merge"],
             totals["women_men"]["ratio"]]]


#: The CSV tables in emission order: (file stem, report section, header, rows
#: of the section).  A null section writes the header only.
_CSV_TABLES = (
    ("gender_composition", "gender_composition",
     ("scope", "man_share", "woman_share", "n_man", "n_woman", "n_unknown"),
     _composition_rows),
    ("gender_by_org_type", "gender_by_org_type",
     ("org_type", "gender", "n", "share", "ci_low", "ci_high"),
     _gender_by_org_type_rows),
    ("org_type_by_outlet", "org_type_by_outlet",
     ("outlet", "ideology", "n_linked", "academic", "federal", "think_tank"),
     _org_type_by_outlet_rows),
    ("outlet_ratios", "outlet_ratios",
     ("outlet", "ideology", "n_men", "n_women", "ratio", "ci_low", "ci_high"),
     _outlet_ratio_rows),
    ("rank_attention_summary", "rank_attention",
     ("scope", "n_institutions", "mentions", "gini", "spearman"),
     _rank_summary_rows),
    ("rank_attention_counts", "rank_attention",
     ("scope", "rank", "mentions"),
     _rank_count_rows),
    ("cumulative_attention", "rank_attention",
     ("gender", "top_n", "share"),
     _cumulative_rows),
    ("binned_attention", "rank_attention",
     ("rank_from", "rank_to", "left_share", "right_share"),
     _binned_rows),
    ("sentence_length", "sentence_length",
     ("gender", "n", "mean_chars"),
     _sentence_length_rows),
    ("co_mention", "co_mention",
     ("man_sentences", "woman_sentences", "mixed_sentences",
      "p_man_given_woman_sentence", "p_woman_given_man_sentence"),
     _co_mention_rows),
    ("provenance", "provenance",
     ("combo", "mentions"),
     lambda prov: sorted(prov["by_combo"].items())),
    ("totals", "totals",
     ("mentions", "unique_experts", "unknown_fraction_pre_merge",
      "unknown_fraction_post_merge", "women_men_ratio"),
     _totals_rows),
)


def _csv_tables(report: AuditReport, out: Path) -> list[Path]:
    written = []
    for stem, section, header, rows in _CSV_TABLES:
        block = report.data.get(section)
        written.append(_write_csv(out / f"{stem}.csv", header, rows(block) if block else ()))
    return written


def emit(
    report: AuditReport,
    formats: Iterable[str],
    out_dir: "str | Path",
) -> list[Path]:
    """Write the report artifacts; returns the paths written.

    ``formats`` is any subset of {"json", "csv", "svg"}.  JSON output is
    byte-stable for a fixed report; CSVs are RFC 4180; each SVG is a
    standalone figure with no external references.
    """
    fmts = set(formats)
    unknown = fmts - _FORMATS
    if unknown:
        raise ValueError(f"unknown formats: {sorted(unknown)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if "json" in fmts:
        path = out / "report.json"
        path.write_text(report.to_json(), encoding="utf-8")
        written.append(path)
    if "csv" in fmts:
        written.extend(_csv_tables(report, out))
    if "svg" in fmts:
        for name, svg in figures.render_all(report.data).items():
            path = out / f"{name}.svg"
            path.write_text(svg, encoding="utf-8")
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# labeling sample


def sample_for_labeling(
    mentions_path: "str | Path",
    n: int,
    seed: int,
    out_path: "str | Path",
) -> Path:
    """Seeded article sample for manual precision annotation.

    Samples ``n`` distinct article ids uniformly without replacement and
    writes one row per extraction from those articles, with an empty
    ``correct`` column for the annotator.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    # two streaming passes: the article ids, then the chosen articles' rows
    article_ids = sorted({m.article_id for m in read_mentions_jsonl(mentions_path)})
    if n > len(article_ids):
        raise ValueError(
            f"requested {n} articles but only {len(article_ids)} have extractions"
        )
    chosen = set(random.Random(seed).sample(article_ids, n))
    rows = [
        [m.article_id, m.sentence_index, m.sentence_text, m.speaker_text, m.org_text, ""]
        for m in read_mentions_jsonl(mentions_path)
        if m.article_id in chosen
    ]
    rows.sort(key=lambda r: (r[0], r[1], r[3]))
    return _write_csv(
        Path(out_path),
        ["article_id", "sentence_index", "sentence_text", "speaker", "org", "correct"],
        rows,
    )
