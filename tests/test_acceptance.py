"""Acceptance suite: one test per shipped guarantee.

Every test prints a single ``CRITERION <n> PASS/FAIL`` line so a log
scan shows the status of each guarantee at a glance (pytest shows the
prints with ``-s``; the file also runs standalone via
``python3 tests/test_acceptance.py``).  Statistical checks compare the
library against brute-force reference implementations written here with
different formulas, so a shared bug cannot hide.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from newsaudit import stats
from newsaudit.cli import EXIT_OK, main
from newsaudit.corpus import parse_article_stream, segment_sentences
from newsaudit.entities import _tokens
from newsaudit.extract import run_detectors
from newsaudit.orglink import (
    OrgType,
    default_gazetteer_dir,
    link_org,
    load_gazetteers,
    token_set_similarity,
)
from newsaudit.report import AuditConfig, fixture_dir, load_resources, run_audit
from newsaudit.synth import make_planted_corpus

CORPUS = fixture_dir() / "corpus.jsonl"
SOURCES = fixture_dir() / "sources.json"
GOLD = json.loads((fixture_dir() / "gold.json").read_text(encoding="utf-8"))

MASTER_SEED = 20260819


@contextmanager
def criterion(number: int, label: str):
    """Print one PASS/FAIL line for the enclosed block."""
    try:
        yield
    except BaseException:
        print(f"CRITERION {number} FAIL: {label}")
        raise
    print(f"CRITERION {number} PASS: {label}")


# ---------------------------------------------------------------------------
# brute-force references
#
# Deliberately different constructions from the library: pairwise-difference
# Gini, comparison-counted midranks, and the sum-of-squared-rank-totals form
# of H.  All O(n^2), fine at n <= 200.


def ref_gini(values) -> float:
    x = np.asarray(values, dtype=float)
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2.0 * x.size**2 * x.mean()))


def ref_midranks(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    less = (x[None, :] < x[:, None]).sum(axis=1)
    equal = (x[None, :] == x[:, None]).sum(axis=1)
    return less + (equal + 1) / 2.0


def ref_spearman(x, y) -> float:
    return float(np.corrcoef(ref_midranks(x), ref_midranks(y))[0, 1])


def ref_kruskal_h(groups) -> float:
    pooled = np.concatenate([np.asarray(g, dtype=float) for g in groups])
    n = pooled.size
    ranks = ref_midranks(pooled)
    total = 0.0
    pos = 0
    for g in groups:
        total += ranks[pos:pos + len(g)].sum() ** 2 / len(g)
        pos += len(g)
    h = 12.0 / (n * (n + 1)) * total - 3.0 * (n + 1)
    _, counts = np.unique(pooled, return_counts=True)
    ties = float((counts.astype(float) ** 3 - counts).sum())
    return float(h / (1.0 - ties / (n**3 - n)))


def draw_sample(rng, n: int, ties: bool, lo: float = 0.0, hi: float = 10.0) -> list:
    # small integer range so ties are near-certain when asked for
    if ties:
        return rng.integers(int(lo), int(hi), size=n).astype(float).tolist()
    return rng.uniform(lo, hi, size=n).tolist()


def draw_groups(rng, ties: bool) -> list:
    while True:
        k = int(rng.integers(2, 6))
        groups = [draw_sample(rng, int(rng.integers(1, 41)), ties) for _ in range(k)]
        if len({v for g in groups for v in g}) > 1:
            return groups


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_stats_match_brute_force_references():
    rng = np.random.default_rng(MASTER_SEED)
    start = time.perf_counter()
    with criterion(1, "stats match brute-force references within 1e-9, 1000 instances each, < 10 s"):
        for trial in range(1000):
            ties = trial % 2 == 0
            n = int(rng.integers(1, 201))
            while True:
                xs = draw_sample(rng, n, ties)
                if sum(xs) > 0:
                    break
            assert stats.gini(xs) == pytest.approx(ref_gini(xs), abs=1e-9)
        for trial in range(1000):
            ties = trial % 2 == 0
            n = int(rng.integers(2, 201))
            while True:
                xs = draw_sample(rng, n, ties, lo=-10.0)
                ys = draw_sample(rng, n, ties, lo=-10.0)
                if len(set(xs)) > 1 and len(set(ys)) > 1:
                    break
            assert stats.spearman(xs, ys) == pytest.approx(ref_spearman(xs, ys), abs=1e-9)
        for trial in range(1000):
            groups = draw_groups(rng, ties=trial % 2 == 0)
            got = stats.kruskal_wallis(groups).h
            assert got == pytest.approx(ref_kruskal_h(groups), abs=1e-9)
        assert time.perf_counter() - start < 10.0


def test_criterion_2_hand_derived_statistics():
    with criterion(2, "hand-derived gini, spearman, H, and welch values"):
        assert stats.gini([1, 0, 0, 0]) == pytest.approx(0.75, abs=1e-12)
        assert stats.spearman([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)
        assert stats.kruskal_wallis([[1, 2, 3], [4, 5, 6]]).h == pytest.approx(3.857, abs=1e-3)
        res = stats.welch_t([1, 2, 3, 4], [3, 4, 5, 6])
        assert res.t == pytest.approx(-2.191, abs=1e-3)
        assert res.df == pytest.approx(6.0, abs=1e-9)


def test_criterion_3_invariances():
    rng = np.random.default_rng(MASTER_SEED + 1)
    with criterion(3, "scale, monotone-transform, and permutation invariances, 200 trials each"):
        for trial in range(200):
            n = int(rng.integers(1, 201))
            while True:
                xs = draw_sample(rng, n, ties=trial % 2 == 0)
                if sum(xs) > 0:
                    break
            scale = float(rng.uniform(0.01, 1000.0))
            assert abs(stats.gini(xs) - stats.gini([scale * v for v in xs])) < 1e-12
        for trial in range(200):
            ties = trial % 2 == 0
            n = int(rng.integers(2, 201))
            while True:
                xs = draw_sample(rng, n, ties, lo=-10.0)
                ys = draw_sample(rng, n, ties, lo=-10.0)
                if len(set(xs)) > 1 and len(set(ys)) > 1:
                    break
            slope = float(rng.uniform(0.1, 5.0))
            shift = float(rng.uniform(-3.0, 3.0))
            # both strictly increasing, both tie-preserving
            f = (lambda v: slope * v + shift) if trial % 2 else (lambda v: v**3 + v)
            assert stats.spearman([f(v) for v in xs], ys) == pytest.approx(
                stats.spearman(xs, ys), abs=1e-12
            )
        for trial in range(200):
            groups = draw_groups(rng, ties=trial % 2 == 0)
            baseline = stats.kruskal_wallis(groups).h
            shuffled = []
            for g in groups:
                g2 = list(g)
                rng.shuffle(g2)
                shuffled.append(g2)
            assert stats.kruskal_wallis(shuffled).h == pytest.approx(baseline, abs=1e-12)


WORDS = (
    "university", "institute", "national", "health", "center", "school",
    "college", "state", "public", "research", "medical", "policy",
    "global", "science", "technology", "foundation", "harbor", "valley",
)


def test_criterion_4_similarity_contract():
    pr = random.Random(MASTER_SEED + 2)
    gaz = load_gazetteers(default_gazetteer_dir())
    with criterion(4, "similarity reflexive, symmetric, subset = 100; linker edge cases hold"):
        for _ in range(200):
            s = " ".join(pr.choices(WORDS, k=pr.randint(1, 5)))
            assert token_set_similarity(s, s) == 100
        for _ in range(200):
            a = " ".join(pr.choices(WORDS, k=pr.randint(1, 5)))
            b = " ".join(pr.choices(WORDS, k=pr.randint(1, 5)))
            assert token_set_similarity(a, b) == token_set_similarity(b, a)
        for _ in range(200):
            big = pr.sample(WORDS, pr.randint(2, 6))
            small = pr.sample(big, pr.randint(1, len(big)))
            pr.shuffle(big)
            # tokenization case-folds, so case jitter must not matter
            small = [w.upper() if pr.random() < 0.5 else w for w in small]
            assert token_set_similarity(" ".join(small), " ".join(big)) == 100

        pair = ("The University of Maryland - College Park", "The University of Maryland")
        assert token_set_similarity(*pair) == 100
        for mention in pair:
            link = link_org(mention, gaz)
            assert link is not None
            assert link.record.org_type is OrgType.ACADEMIC
            assert link.record.name == "The University of Maryland"
            assert link.score == 100

        assert token_set_similarity("CDC", "Centers for Disease Control and Prevention") < 90
        assert link_org("CDC", gaz) is None
        assert link_org("''s", gaz) is None


def as_gold_row(m) -> dict:
    link = None
    if m.org_link is not None:
        rec = m.org_link.record
        link = {
            "name": rec.name,
            "org_type": rec.org_type.value,
            "world_rank": rec.world_rank,
            "public_health_rank": rec.public_health_rank,
            "score": m.org_link.score,
        }
    return {
        "article_id": m.article_id,
        "source": m.source,
        "sentence_index": m.sentence_index,
        "speaker_text": m.speaker_text,
        "gender_raw": m.gender.raw.value,
        "gender": m.gender.merged.value,
        "org_text": m.org_text,
        "org_link": link,
        "detectors": sorted(d.value for d in m.detectors),
    }


def test_criterion_5_fixture_extraction_recovers_gold():
    with criterion(5, "gold fixture fully recovered, distractors silent, provenance exact"):
        report = run_audit(CORPUS, SOURCES)
        got = [
            as_gold_row(m)
            for m in sorted(
                report.mentions,
                key=lambda m: (m.article_id, m.sentence_index, m.speaker_text),
            )
        ]
        assert got == GOLD["mentions"]
        for m in report.mentions:
            assert m.speaker_text
            assert m.org_text
        assert report.data["provenance"]["by_detector"] == GOLD["provenance"]["by_detector"]
        assert report.data["provenance"]["by_combo"] == GOLD["provenance"]["by_combo"]

        resources = load_resources()
        distractors = {tuple(d) for d in GOLD["distractor_sentences"]}
        assert len(distractors) == 10
        seen = set()
        for article in parse_article_stream(CORPUS):
            for sent in segment_sentences(article.body, article.id):
                if (article.id, sent.index) in distractors:
                    seen.add((article.id, sent.index))
                    assert run_detectors(sent.text, _tokens(sent.text), resources.lexicon) == []
        assert seen == distractors


def test_criterion_6_planted_bias_end_to_end(tmp_path):
    start = time.perf_counter()
    with criterion(6, "planted 3:1 corpus: CI covers 1/3, gini within 0.02, spearman < -0.3, < 60 s"):
        truth = make_planted_corpus(tmp_path, n_articles=1000, seed=11)
        report = run_audit(
            tmp_path / "corpus.jsonl",
            tmp_path / "sources.json",
            config=AuditConfig(seed=11),
        )
        women_men = report.data["totals"]["women_men"]
        assert women_men["bootstrap"]["available"]
        assert women_men["bootstrap"]["ci_low"] <= 1 / 3 <= women_men["bootstrap"]["ci_high"]
        overall = report.data["rank_attention"]["overall"]
        assert overall["n_institutions"] == 100
        assert truth["n_institutions"] == 100
        assert abs(overall["gini"] - truth["planted_gini"]) <= 0.02
        assert overall["spearman"] < -0.3
        assert time.perf_counter() - start < 60.0


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "same-seed audit runs byte-identical; both bootstraps bit-reproducible"):
        payloads = []
        for name in ("one", "two"):
            out = tmp_path / name
            code = main(
                ["audit", "--corpus", str(CORPUS), "--sources", str(SOURCES),
                 "--out", str(out), "--seed", "123", "--formats", "json"]
            )
            assert code == EXIT_OK
            payloads.append((out / "report.json").read_bytes())
        assert payloads[0] == payloads[1]

        cfg = stats.BootstrapConfig(iterations=500, seed=99, confidence=0.95)
        values = list(range(40))
        first = stats.bootstrap(values, lambda a: float(a.mean()), cfg)
        second = stats.bootstrap(values, lambda a: float(a.mean()), cfg)
        assert first == second
        # the draw behind every report interval
        first = stats.bootstrap_counts(13, 40, lambda c: c / 40, cfg)
        second = stats.bootstrap_counts(13, 40, lambda c: c / 40, cfg)
        assert first == second


def test_criterion_8_bootstrap_calibration():
    rng = np.random.default_rng(MASTER_SEED)
    with criterion(8, "95% CIs cover a true proportion in 95% +/- 3 points, 200 trials at n=400"
                      " (index and count bootstraps)"):
        p_true, n, trials = 0.3, 400, 200
        seeds = rng.integers(0, 2**32 - 1, size=trials)
        covered = covered_counts = 0
        for k in range(trials):
            sample = (rng.random(n) < p_true).astype(float)
            cfg = stats.BootstrapConfig(iterations=1000, seed=int(seeds[k]), confidence=0.95)
            res = stats.bootstrap(sample, lambda a: float(a.mean()), cfg)
            if res.ci_low <= p_true <= res.ci_high:
                covered += 1
            # the draw behind every report interval, from the sample's counts
            res = stats.bootstrap_counts(int(sample.sum()), n, lambda c: c / n, cfg)
            if res.ci_low <= p_true <= res.ci_high:
                covered_counts += 1
        assert 0.92 * trials <= covered <= 0.98 * trials
        assert 0.92 * trials <= covered_counts <= 0.98 * trials


if __name__ == "__main__":
    failures = 0
    for fn in (
        test_criterion_1_stats_match_brute_force_references,
        test_criterion_2_hand_derived_statistics,
        test_criterion_3_invariances,
        test_criterion_4_similarity_contract,
        test_criterion_5_fixture_extraction_recovers_gold,
        test_criterion_6_planted_bias_end_to_end,
        test_criterion_7_determinism,
        test_criterion_8_bootstrap_calibration,
    ):
        try:
            if fn.__code__.co_argcount:
                with tempfile.TemporaryDirectory() as td:
                    fn(Path(td))
            else:
                fn()
        except BaseException:
            traceback.print_exc()
            failures += 1
    sys.exit(1 if failures else 0)
