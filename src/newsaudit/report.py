"""End-to-end audit orchestration and report assembly.

``extract_mentions`` drives the per-sentence pipeline (detectors, entity
attachment, organization linking) over a corpus file; ``build_report``
turns the mention list into the nested table structure the emitters
consume; ``run_audit`` wires the two together and persists artifacts.
Statistics that a table cannot support (zero men, constant ranks, one
data point) are reported as null values with a reason string instead of
being silently dropped.
"""

from __future__ import annotations

import csv
import json
import logging
import random
import zlib
from collections import Counter
from dataclasses import dataclass
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
    MATCH_THRESHOLD,
    OrgLink,
    OrgRecord,
    OrgType,
    default_gazetteer_dir,
    link_org,
    load_gazetteers,
)

log = logging.getLogger(__name__)

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
        if self.sentence_char_length <= 0:
            raise ValueError("sentence_char_length must be positive")
        if self.org_link is not None and self.org_link.score < MATCH_THRESHOLD:
            raise ValueError("org_link score below match threshold")
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
        return _mention_from_dict(d, {})


def _shared(shared: dict, key: tuple, make: Callable[[], Any]) -> Any:
    """The value built for ``key`` earlier in ``shared``, else ``make()``."""
    value = shared.get(key)
    if value is None:
        value = shared[key] = make()
    return value


def _mention_from_dict(d: Mapping[str, Any], shared: dict) -> ExpertMention:
    """``ExpertMention.from_dict`` that reuses, through ``shared``, one
    OrgRecord, GenderLabel and detector set per distinct value; all three
    are frozen, so mentions may share them."""
    link = None
    if d.get("org_link") is not None:
        raw = d["org_link"]
        ranks = (raw.get("world_rank"), raw.get("public_health_rank"))
        # 1, 1.0 and True are equal keys; keep each rank's type so a shared
        # record writes back exactly as every line that uses it was read
        rec = _shared(
            shared,
            ("org", raw["name"], raw["org_type"], *ranks, *map(type, ranks)),
            lambda: OrgRecord(raw["name"], OrgType(raw["org_type"]), *ranks),
        )
        link = OrgLink(mention_text=d["org_text"], record=rec, score=raw["score"])
    return ExpertMention(
        article_id=d["article_id"],
        source=d["source"],
        sentence_index=int(d["sentence_index"]),
        sentence_text=d["sentence_text"],
        sentence_char_length=int(d["sentence_char_length"]),
        speaker_text=d["speaker_text"],
        gender=_shared(
            shared,
            ("gender", d["gender_raw"], d["gender"]),
            lambda: GenderLabel(
                raw=RawGender(d["gender_raw"]), merged=MergedGender(d["gender"])
            ),
        ),
        org_text=d["org_text"],
        org_link=link,
        detectors=_shared(
            shared,
            ("detectors", *d["detectors"]),
            lambda: frozenset(Detector(v) for v in d["detectors"]),
        ),
    )


@dataclass(frozen=True)
class AuditConfig:
    """Knobs that affect the numbers in the report."""

    seed: int = 0
    bootstrap_iterations: int = 1000
    confidence: float = 0.95
    bin_width: int = 10
    outlet_suppression: bool = True
    gender_mode: str = "first"
    top_cut_points: tuple = TOP_CUT_POINTS

    def __post_init__(self) -> None:
        if self.bootstrap_iterations < 1:
            raise ValueError("bootstrap_iterations must be >= 1")
        if self.bin_width < 1:
            raise ValueError("bin_width must be >= 1")
        if self.gender_mode not in ("first", "majority"):
            raise ValueError("gender_mode must be 'first' or 'majority'")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "bootstrap_iterations": self.bootstrap_iterations,
            "confidence": self.confidence,
            "bin_width": self.bin_width,
            "outlet_suppression": self.outlet_suppression,
            "gender_mode": self.gender_mode,
            "top_cut_points": list(self.top_cut_points),
        }


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
    """Assembled tables plus the mention list they were computed from."""

    data: Mapping[str, Any]
    mentions: tuple

    @property
    def empty(self) -> bool:
        return bool(self.data.get("empty"))

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# extraction


def extract_mentions(
    corpus_path: "str | Path",
    sources: SourceConfig,
    resources: Resources,
    outlet_suppression: bool = True,
    ingest: IngestStats | None = None,
) -> "tuple[list[ExpertMention], dict]":
    """Run the sentence pipeline over a corpus file.

    Returns the mention list (article order, then sentence index, then
    reported-speech position) and a counters dict: segmented sentences,
    articles per outlet, and articles skipped because their source key
    has no outlet configuration.
    """
    gaz_names = tuple(r.name for r in resources.gazetteers)
    detect_names: dict[str, tuple] = {}
    mentions: list[ExpertMention] = []
    counters = {
        "sentences": 0,
        "articles_by_outlet": Counter(),
        "skipped_unconfigured_sources": Counter(),
    }
    for article in parse_article_stream(corpus_path, stats=ingest):
        outlet = sources.get(article.source)
        if outlet is None:
            log.warning(
                "article %s: source %r not configured; skipping", article.id, article.source
            )
            counters["skipped_unconfigured_sources"][article.source] += 1
            continue
        counters["articles_by_outlet"][outlet.key] += 1
        if outlet.key not in detect_names:
            detect_names[outlet.key] = gaz_names + tuple(outlet.self_org_names)
        for sentence in segment_sentences(article.body, article_ref=article.id):
            counters["sentences"] += 1
            cands = run_detectors(sentence, resources.lexicon)
            if not cands:
                continue
            persons = find_person_mentions(
                sentence, resources.first_names, resources.stoplist, resources.honorifics
            )
            spans = person_exclusion_spans(sentence, persons, resources.honorifics)
            orgs = find_org_mentions(
                sentence, detect_names[outlet.key], exclude_spans=spans
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
    return mentions, counters


def mention_sort_key(m: ExpertMention) -> tuple:
    """The deterministic order of mentions in every artifact."""
    return (m.article_id, m.sentence_index, m.speaker_text, m.org_text)


def write_mentions_jsonl(mentions: Sequence[ExpertMention], path: "str | Path") -> Path:
    p = Path(path)
    with p.open("w", encoding="utf-8") as fh:
        for m in mentions:
            fh.write(json.dumps(m.to_dict(), sort_keys=True) + "\n")
    return p


def read_mentions_jsonl(path: "str | Path") -> list[ExpertMention]:
    """Mentions of a ``write_mentions_jsonl`` file, in file order.

    Equal org records, gender labels and detector sets are built once per
    call and shared.  A malformed line raises a ValueError that names the
    file and the line.
    """
    out = []
    shared: dict = {}
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    out.append(_mention_from_dict(json.loads(line), shared))
                except KeyError as exc:
                    raise ValueError(f"{path}:{lineno}: mention lacks {exc}") from None
                except (AttributeError, TypeError, ValueError, RecursionError) as exc:
                    raise ValueError(f"{path}:{lineno}: malformed mention: {exc}") from None
    return out


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
        confidence=config.confidence,
    )


def _bs_dict(result: "stats.BootstrapResult | None", reason: "str | None" = None) -> dict:
    if result is None:
        return {"available": False, "reason": reason}
    return {
        "available": True,
        "mean": result.mean,
        "std": result.std,
        "ci_low": result.ci_low,
        "ci_high": result.ci_high,
        "iterations": result.iterations,
    }


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


def _gender_counts(labels: Iterable[MergedGender]) -> dict:
    c = Counter(labels)
    return {g.value: c.get(g, 0) for g in MergedGender}


def _known_shares(counts: Mapping[str, int]) -> "tuple[float | None, float | None]":
    known = counts.get("Man", 0) + counts.get("Woman", 0)
    if known == 0:
        return None, None
    return counts.get("Man", 0) / known, counts.get("Woman", 0) / known


def _ratio_block(
    members: Sequence[ExpertMention], label: str, config: AuditConfig
) -> dict:
    counts = _gender_counts(m.gender.merged for m in members)
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


def _rank_block(
    members: Sequence[ExpertMention],
    population_ranks: Sequence[int],
    rank_of: Callable[[OrgRecord], "int | None"],
) -> dict:
    """Mention counts over a ranked institution population.

    Zero-mention institutions stay in the vector: a Lorenz curve over
    attention needs the full population, not just the observed part.
    """
    counts: Counter = Counter()
    n_mentions = 0
    for m in members:
        if m.org_link is None:
            continue
        rank = rank_of(m.org_link.record)
        if rank is not None:
            counts[rank] += 1
            n_mentions += 1
    vector = [float(counts.get(r, 0)) for r in population_ranks]
    gini, gini_reason = _try(lambda: stats.gini(vector))
    rho, rho_reason = _try(lambda: stats.spearman(list(population_ranks), vector))
    return {
        "n_institutions": len(population_ranks),
        "mentions": n_mentions,
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


def build_report(
    mentions: Sequence[ExpertMention],
    sources: SourceConfig,
    config: AuditConfig,
    resources: "Resources | None" = None,
    ingest: "IngestStats | None" = None,
    counters: "Mapping[str, Any] | None" = None,
) -> AuditReport:
    """Assemble every table of the audit from an enriched mention list."""
    if resources is None:
        resources = load_resources()
    mentions = sorted(mentions, key=mention_sort_key)
    data: dict[str, Any] = {
        "config": config.to_dict(),
        "corpus": _corpus_section(mentions, sources, ingest, counters),
        "empty": not mentions,
    }
    if not mentions:
        for key in TABLE_SECTIONS:
            data[key] = None
        return AuditReport(data=data, mentions=tuple(mentions))

    experts = resolve_unique_experts(
        [m.speaker_text for m in mentions],
        [m.gender for m in mentions],
        gender_mode=config.gender_mode,
    )

    data["totals"] = _totals_section(mentions, experts, resources, config)
    data["gender_composition"] = _composition_section(mentions, experts)
    data["gender_by_org_type"] = _gender_by_org_type_section(mentions, config)
    data["org_type_by_outlet"] = _org_type_by_outlet_section(mentions, sources)
    data["outlet_ratios"], data["ideology_ratio_test"] = _outlet_ratio_sections(
        mentions, sources, config
    )
    data["rank_attention"] = _rank_attention_section(mentions, sources, resources, config)
    data["sentence_length"] = _sentence_length_section(mentions)
    data["co_mention"] = _co_mention_section(mentions)
    data["provenance"] = _provenance_section(mentions)
    return AuditReport(data=data, mentions=tuple(mentions))


def _corpus_section(mentions, sources, ingest, counters) -> dict:
    by_outlet: dict[str, dict] = {}
    mention_counts = Counter(m.source for m in mentions)
    articles_by_outlet = (counters or {}).get("articles_by_outlet", {})
    for outlet in sources:
        by_outlet[outlet.key] = {
            "display_name": outlet.display_name,
            "ideology": outlet.ideology.value,
            "articles": int(articles_by_outlet.get(outlet.key, 0))
            if counters is not None
            else None,
            "mentions": mention_counts.get(outlet.key, 0),
        }
    section = {
        "outlets": by_outlet,
        "sentences": (counters or {}).get("sentences") if counters else None,
        "skipped_unconfigured_sources": dict(
            (counters or {}).get("skipped_unconfigured_sources", {})
        )
        if counters
        else None,
    }
    if ingest is not None:
        section["ingest"] = {
            "total_lines": ingest.total_lines,
            "articles": ingest.articles,
            "skipped_malformed": ingest.skipped_malformed,
            "skipped_missing_fields": ingest.skipped_missing_fields,
            "skipped_duplicate_id": ingest.skipped_duplicate_id,
        }
    else:
        section["ingest"] = None
    return section


def _totals_section(mentions, experts, resources, config) -> dict:
    n = len(mentions)
    # pre-merge: dictionary lookup only, no manual overrides applied;
    # each distinct speaker text is classified once, weighted by its mentions
    pre_unknown = sum(
        count
        for text, count in Counter(m.speaker_text for m in mentions).items()
        if classify_gender(text, resources.first_names).merged is MergedGender.UNKNOWN
    )
    post_unknown = sum(1 for m in mentions if m.gender.merged is MergedGender.UNKNOWN)
    return {
        "mentions": n,
        "unique_experts": len(experts),
        "unknown_fraction_pre_merge": pre_unknown / n,
        "unknown_fraction_post_merge": post_unknown / n,
        "women_men": _ratio_block(mentions, "totals/women_men", config),
    }


def _composition_section(mentions, experts) -> dict:
    def block(labels) -> dict:
        counts = _gender_counts(labels)
        man_share, woman_share = _known_shares(counts)
        return {
            "counts": counts,
            "man_share": man_share,
            "woman_share": woman_share,
            "unknown_count": counts["Unknown"],
        }

    return {
        "mentions": block(m.gender.merged for m in mentions),
        "unique_experts": block(e.gender.merged for e in experts),
    }


def _gender_by_org_type_section(mentions, config) -> dict:
    out: dict[str, Any] = {}
    for org_type in OrgType:
        members = [
            m
            for m in mentions
            if m.org_link is not None and m.org_link.record.org_type is org_type
        ]
        counts = _gender_counts(m.gender.merged for m in members)
        n = len(members)
        shares = {g: (counts[g] / n if n else None) for g in counts}
        boots = {}
        for gender in MergedGender:
            boots[gender.value] = _bootstrap_or_none(
                counts[gender.value],
                n,
                lambda c: c / n,
                f"gender_by_org_type/{org_type.value}/{gender.value}",
                config,
            )
        out[org_type.value] = {
            "n": n,
            "counts": counts,
            "shares": shares,
            "bootstrap": boots,
        }
    return out


def _org_type_by_outlet_section(mentions, sources) -> dict:
    out: dict[str, Any] = {}
    for outlet in sources:
        linked = [
            m for m in mentions if m.source == outlet.key and m.org_link is not None
        ]
        counts = Counter(m.org_link.record.org_type for m in linked)
        n = len(linked)
        out[outlet.key] = {
            "ideology": outlet.ideology.value,
            "n_linked": n,
            "counts": {t.value: counts.get(t, 0) for t in OrgType},
            "shares": {
                t.value: (counts.get(t, 0) / n if n else None) for t in OrgType
            },
        }
    return out


def _outlet_ratio_sections(mentions, sources, config) -> "tuple[dict, dict]":
    ratios: dict[str, Any] = {}
    by_ideology: dict[str, list[float]] = {"left": [], "right": []}
    for outlet in sources:
        members = [m for m in mentions if m.source == outlet.key]
        block = _ratio_block(members, f"outlet_ratios/{outlet.key}", config)
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


def _rank_attention_section(mentions, sources, resources, config) -> dict:
    world_ranks = sorted(
        r.world_rank for r in resources.gazetteers if r.world_rank is not None
    )
    health_ranks = sorted(
        r.public_health_rank
        for r in resources.gazetteers
        if r.public_health_rank is not None
    )
    ideology_of = {outlet.key: outlet.ideology.value for outlet in sources}

    def world(members) -> dict:
        return _rank_block(members, world_ranks, lambda rec: rec.world_rank)

    section = {
        "overall": world(mentions),
        "by_ideology": {
            side: world([m for m in mentions if ideology_of.get(m.source) == side])
            for side in ("left", "right")
        },
        "by_gender": {
            gender.value: world(
                [m for m in mentions if m.gender.merged is gender]
            )
            for gender in (MergedGender.MAN, MergedGender.WOMAN)
        },
        "public_health": _rank_block(
            mentions, health_ranks, lambda rec: rec.public_health_rank
        ),
    }

    # cumulative top-n share curves per gender over world rank
    cumulative: dict[str, Any] = {"cut_points": list(config.top_cut_points)}
    for gender in (MergedGender.MAN, MergedGender.WOMAN):
        counts = section["by_gender"][gender.value]["counts_by_rank"]
        by_rank = {int(r): c for r, c in counts.items()}
        shares, reason = _try(
            lambda: stats.cumulative_topn(by_rank, config.top_cut_points)
        )
        cumulative[gender.value] = {"shares": shares, "reason": reason}
    section["cumulative_by_gender"] = cumulative

    # per-bin left/right shares of academic attention over world rank
    left = section["by_ideology"]["left"]["counts_by_rank"]
    right = section["by_ideology"]["right"]["counts_by_rank"]
    binned, reason = _try(
        lambda: stats.binned_shares(
            {
                "left": {int(r): c for r, c in left.items()},
                "right": {int(r): c for r, c in right.items()},
            },
            config.bin_width,
        )
    )
    section["binned_by_ideology"] = {
        "bin_width": config.bin_width,
        "shares": binned,
        "reason": reason,
    }
    return section


def _sentence_length_section(mentions) -> dict:
    men = [
        float(m.sentence_char_length)
        for m in mentions
        if m.gender.merged is MergedGender.MAN
    ]
    women = [
        float(m.sentence_char_length)
        for m in mentions
        if m.gender.merged is MergedGender.WOMAN
    ]
    test, reason = _try(lambda: stats.welch_t(men, women))
    return {
        "men": {"n": len(men), "mean_chars": sum(men) / len(men) if men else None},
        "women": {
            "n": len(women),
            "mean_chars": sum(women) / len(women) if women else None,
        },
        "welch": {
            "t": test.t if test else None,
            "df": test.df if test else None,
            "p_value": test.p_value if test else None,
            "reason": reason,
        },
    }


def _co_mention_section(mentions) -> dict:
    genders_by_sentence: dict[tuple, set] = {}
    for m in mentions:
        genders_by_sentence.setdefault((m.article_id, m.sentence_index), set()).add(
            m.gender.merged
        )
    man_sents = sum(1 for g in genders_by_sentence.values() if MergedGender.MAN in g)
    woman_sents = sum(
        1 for g in genders_by_sentence.values() if MergedGender.WOMAN in g
    )
    mixed = sum(
        1
        for g in genders_by_sentence.values()
        if MergedGender.MAN in g and MergedGender.WOMAN in g
    )
    p_man_given_woman = mixed / woman_sents if woman_sents else None
    p_woman_given_man = mixed / man_sents if man_sents else None
    return {
        "sentences_with_mentions": len(genders_by_sentence),
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


def _provenance_section(mentions) -> dict:
    by_detector: Counter = Counter()
    by_combo: Counter = Counter()
    for detectors, count in Counter(m.detectors for m in mentions).items():
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
    ingest = IngestStats()
    mentions, counters = extract_mentions(
        corpus_path,
        sources,
        resources,
        outlet_suppression=config.outlet_suppression,
        ingest=ingest,
    )
    mentions.sort(key=mention_sort_key)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_mentions_jsonl(mentions, out / "mentions.jsonl")
    return build_report(
        mentions, sources, config, resources=resources, ingest=ingest, counters=counters
    )


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
    mentions = read_mentions_jsonl(mentions_path)
    article_ids = sorted({m.article_id for m in mentions})
    if n > len(article_ids):
        raise ValueError(
            f"requested {n} articles but only {len(article_ids)} have extractions"
        )
    chosen = set(random.Random(seed).sample(article_ids, n))
    rows = [
        [
            m.article_id,
            m.sentence_index,
            m.sentence_text,
            m.speaker_text,
            m.org_text,
            "",
        ]
        for m in mentions
        if m.article_id in chosen
    ]
    rows.sort(key=lambda r: (r[0], r[1], r[3]))
    return _write_csv(
        Path(out_path),
        ["article_id", "sentence_index", "sentence_text", "speaker", "org", "correct"],
        rows,
    )
