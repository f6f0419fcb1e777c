"""Span recorder for the traced benchmark run.

The pipeline has no probes of its own, so the recorder wraps the public
functions of each module from outside.  ``report.py`` and ``cli.py`` import
most functions by name, so the recorder replaces those bindings in the
importing module, not in the defining one; ``stats.bootstrap`` and
``figures.render_all`` are looked up as module attributes, so it replaces
them there.  Spans (name, start, end, parent) stay in memory until the
pass ends, when the worker writes them out.  Counts are taken at the
same boundaries.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# (module, bound name).  The span is named after the function, so one
# name may cover several bindings, e.g. ``build_report`` as seen from both
# ``cli`` (the stats path) and ``report``.
SPANS = (
    ("cli", "load_source_config"),
    ("cli", "load_resources"),
    ("cli", "read_mentions_jsonl"),
    ("cli", "build_report"),
    ("cli", "emit"),
    ("cli", "run_audit"),
    ("report", "load_source_config"),
    ("report", "load_resources"),
    ("report", "load_gazetteers"),
    ("report", "extract_mentions"),
    ("report", "parse_article_stream"),
    ("report", "segment_sentences"),
    ("report", "run_detectors"),
    ("report", "find_person_mentions"),
    ("report", "person_exclusion_spans"),
    ("report", "find_org_mentions"),
    ("report", "union_candidates"),
    ("report", "classify_gender"),
    ("report", "link_org"),
    ("report", "write_mentions_jsonl"),
    ("report", "build_report"),
    ("report", "resolve_unique_experts"),
    ("stats", "bootstrap"),
    ("report", "emit"),
    ("figures", "render_all"),
)

#: Functions that return a generator; their span is each ``next`` call.
YIELDING = frozenset({"parse_article_stream"})

#: Layer time metrics: the summed self time of these spans.
LAYER_TIMES = {
    "corpus.parse_s": ("parse_article_stream",),
    "corpus.segment_s": ("segment_sentences",),
    "extract.detect_s": ("run_detectors",),
    "extract.union_s": ("union_candidates",),
    "extract.loop_self_s": ("extract_mentions",),
    "entities.persons_s": ("find_person_mentions", "person_exclusion_spans"),
    "entities.orgs_s": ("find_org_mentions",),
    "entities.gender_s": ("classify_gender",),
    "entities.dedup_s": ("resolve_unique_experts",),
    "orglink.load_s": ("load_gazetteers",),
    "orglink.link_s": ("link_org",),
    "stats.bootstrap_s": ("bootstrap",),
    "report.read_mentions_s": ("read_mentions_jsonl",),
    "report.write_mentions_s": ("write_mentions_jsonl",),
    "report.build_self_s": ("build_report",),
    "report.emit_s": ("emit",),
    "figures.render_s": ("render_all",),
}


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.link_texts: set = set()

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = getattr(self, f"_count_{name}", None)
        if name in YIELDING:

            def traced_gen(*args: Any, **kwargs: Any):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(idx)
                        return
                    except BaseException:
                        self._close(idx)
                        raise
                    self._close(idx)
                    self.counts["corpus.articles"] += 1
                    yield item

            return traced_gen

        def traced(*args: Any, **kwargs: Any):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    # Counters, one per span that has any; each sees the call and result.

    def _count_segment_sentences(self, args, kwargs, result) -> None:
        self.counts["corpus.sentences"] += len(result)

    def _count_run_detectors(self, args, kwargs, result) -> None:
        self.counts["extract.hit_sentences"] += bool(result)
        self.counts["extract.candidates"] += len(result)

    def _count_union_candidates(self, args, kwargs, result) -> None:
        self.counts["extract.mentions"] += len(result)

    def _count_link_org(self, args, kwargs, result) -> None:
        mention = args[0] if args else kwargs["mention"]
        self.counts["orglink.link_calls"] += 1
        self.counts["orglink.linked"] += result is not None
        self.link_texts.add(getattr(mention, "text", mention).strip())

    def _count_resolve_unique_experts(self, args, kwargs, result) -> None:
        names = args[0] if args else kwargs["names"]
        self.counts["entities.dedup_names"] += len(names)
        self.counts["entities.experts"] += len(result)

    def _count_bootstrap(self, args, kwargs, result) -> None:
        values = args[0] if args else kwargs["values"]
        config = args[2] if len(args) > 2 else kwargs["config"]
        self.counts["stats.bootstrap_calls"] += 1
        self.counts["stats.bootstrap_elems"] += config.iterations * len(values)

    def counting(self, key: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to count its calls under ``key``, without a span."""

        def counted(*args: Any, **kwargs: Any):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path: "str | os.PathLike") -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": idx,
                    "name": name,
                    "start": self.starts[idx] - t0,
                    "end": self.ends[idx] - t0,
                    "parent": self.parents[idx],
                }) + "\n")

    def self_times(self) -> "dict[str, float]":
        """Per span name: summed duration minus the time its children cover.

        Spans of one thread nest, so the children of a span never overlap
        and their covered time is the sum of their durations.
        """
        child_time = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, float] = defaultdict(float)
        for idx, name in enumerate(self.names):
            out[name] += self.ends[idx] - self.starts[idx] - child_time[idx]
        return dict(out)

    def layer_metrics(self) -> "dict[str, float]":
        """Every per-layer metric of this pass except the tracing overhead."""
        selfs = self.self_times()
        metrics = {
            key: sum(selfs.get(name, 0.0) for name in names)
            for key, names in LAYER_TIMES.items()
        }
        c = self.counts
        metrics.update(
            {
                "corpus.articles": c["corpus.articles"],
                "corpus.sentences": c["corpus.sentences"],
                "extract.hit_sentences": c["extract.hit_sentences"],
                "extract.candidates": c["extract.candidates"],
                "extract.mentions": c["extract.mentions"],
                "extract.mention_yield": c["extract.mentions"] / c["extract.candidates"]
                if c["extract.candidates"]
                else 0.0,
                "entities.dedup_names": c["entities.dedup_names"],
                "entities.dedup_pairs": c["entities.dedup_pairs"],
                "entities.experts": c["entities.experts"],
                "orglink.link_calls": c["orglink.link_calls"],
                "orglink.link_distinct": len(self.link_texts),
                "orglink.linked_frac": c["orglink.linked"] / c["orglink.link_calls"]
                if c["orglink.link_calls"]
                else 0.0,
                "stats.bootstrap_calls": c["stats.bootstrap_calls"],
                "stats.bootstrap_elems": c["stats.bootstrap_elems"],
                "trace.spans": len(self.names),
            }
        )
        return metrics


def install(recorder: Recorder) -> None:
    """Replace every binding in ``SPANS`` with a recording wrapper."""
    import importlib

    for module_name, attr in SPANS:
        module = importlib.import_module(f"newsaudit.{module_name}")
        setattr(module, attr, recorder.wrap(attr, getattr(module, attr)))
    # Dedup compares names through the binding in ``entities``; the
    # gazetteer join in ``orglink`` keeps its own, so set-up is not counted.
    entities = importlib.import_module("newsaudit.entities")
    entities.token_set_similarity = recorder.counting(
        "entities.dedup_pairs", entities.token_set_similarity
    )
