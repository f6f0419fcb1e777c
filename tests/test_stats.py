"""Tests for the statistics module.

Every estimator is checked three ways where possible: against hand-derived
frozen values, against an independent brute-force implementation on random
inputs, and against scipy as an external oracle (test-only dependency).
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from newsaudit import stats
from newsaudit.stats import (
    BootstrapConfig,
    BootstrapResult,
    KruskalWallisResult,
    WelchResult,
    binned_shares,
    bootstrap,
    bootstrap_counts,
    chi2_sf,
    cumulative_topn,
    gender_ratio,
    gini,
    kruskal_wallis,
    reg_inc_beta,
    spearman,
    student_t_sf,
    welch_t,
)

rng = np.random.default_rng(20260819)


def _gini_pairwise(values):
    # Independent oracle: mean absolute pairwise difference over 2*mean.
    x = np.asarray(values, dtype=float)
    n = x.size
    diff = np.abs(x[:, None] - x[None, :]).sum()
    return diff / (2.0 * n * n * x.mean())


# ---------------------------------------------------------------------------
# gini

def test_gini_perfect_equality():
    assert gini([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-12)


def test_gini_hand_value():
    # One holder of everything among four: pairwise sum 6, denominator 8.
    assert gini([1, 0, 0, 0]) == pytest.approx(0.75, abs=1e-12)


def test_gini_zero_mean_rejected():
    with pytest.raises(ValueError):
        gini([0, 0, 0])


def test_gini_empty_rejected():
    with pytest.raises(ValueError):
        gini([])


def test_gini_negative_rejected():
    with pytest.raises(ValueError):
        gini([1, -1, 2])


def test_gini_non_finite_rejected():
    with pytest.raises(ValueError):
        gini([1.0, math.inf])


def test_gini_matches_pairwise_oracle_on_random_inputs():
    for n in (1, 2, 3, 10, 57, 200):
        x = rng.integers(0, 50, size=n).astype(float)
        if x.sum() == 0:
            x[0] = 1.0
        assert gini(x) == pytest.approx(_gini_pairwise(x), abs=1e-9)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=60)
       .filter(lambda xs: sum(xs) > 0),
       st.integers(min_value=1, max_value=1000))
def test_gini_scale_and_permutation_invariant(xs, c):
    g = gini(xs)
    assert gini([c * v for v in xs]) == pytest.approx(g, abs=1e-9)
    assert gini(sorted(xs, reverse=True)) == pytest.approx(g, abs=1e-9)
    assert -1e-12 <= g <= 1.0 - 1.0 / len(xs) + 1e-12


# ---------------------------------------------------------------------------
# spearman

def test_spearman_monotone():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)


def test_spearman_reversed():
    assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_spearman_hand_value():
    # Tie-free: 1 - 6*4 / (4*15) = 0.6.
    assert spearman([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)


def test_spearman_length_mismatch_rejected():
    with pytest.raises(ValueError):
        spearman([1, 2, 3], [1, 2])


def test_spearman_constant_side_rejected():
    with pytest.raises(ValueError):
        spearman([1, 1, 1], [1, 2, 3])


def test_spearman_single_pair_rejected():
    with pytest.raises(ValueError):
        spearman([1], [2])


def test_spearman_matches_scipy_with_ties():
    for n in (2, 5, 30, 200):
        x = rng.integers(0, 8, size=n).astype(float)
        y = rng.integers(0, 8, size=n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        expected = scipy.stats.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expected, abs=1e-9)


@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)),
                min_size=3, max_size=40))
def test_spearman_bounded_and_monotone_transform_invariant(pairs):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    r = spearman(x, y)
    assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9
    # Strictly increasing transform of x leaves ranks alone.
    assert spearman([3 * v + 7 for v in x], y) == pytest.approx(r, abs=1e-9)


# ---------------------------------------------------------------------------
# kruskal-wallis

def test_kruskal_wallis_hand_value():
    res = kruskal_wallis([[1, 2, 3], [4, 5, 6]])
    assert res.h == pytest.approx(27.0 / 7.0, abs=1e-12)
    assert round(res.h, 3) == 3.857
    assert res.df == 1


def test_kruskal_wallis_identical_groups():
    res = kruskal_wallis([[1, 2], [1, 2]])
    assert res.h == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0)


def test_kruskal_wallis_total_tie_rejected():
    with pytest.raises(ValueError):
        kruskal_wallis([[7, 7], [7, 7]])


def test_kruskal_wallis_single_group_rejected():
    with pytest.raises(ValueError):
        kruskal_wallis([[1, 2, 3]])


def test_kruskal_wallis_empty_group_rejected():
    with pytest.raises(ValueError):
        kruskal_wallis([[1, 2], []])


def test_kruskal_wallis_matches_scipy():
    for sizes in ((3, 4), (5, 5, 5), (2, 9, 4, 6)):
        groups = [rng.integers(0, 10, size=s).astype(float) for s in sizes]
        pooled = np.concatenate(groups)
        if np.all(pooled == pooled[0]):
            continue
        expected = scipy.stats.kruskal(*groups)
        res = kruskal_wallis(groups)
        assert res.h == pytest.approx(expected.statistic, abs=1e-9)
        assert res.p_value == pytest.approx(expected.pvalue, abs=1e-9)


@given(st.lists(st.lists(st.integers(0, 20), min_size=1, max_size=8),
                min_size=2, max_size=4))
@settings(max_examples=60)
def test_kruskal_wallis_group_relabeling_invariant(groups):
    pooled = [v for g in groups for v in g]
    if all(v == pooled[0] for v in pooled):
        return
    res = kruskal_wallis(groups)
    rev = kruskal_wallis(list(reversed(groups)))
    assert res.h == pytest.approx(rev.h, abs=1e-9)
    assert res.h >= -1e-12


# ---------------------------------------------------------------------------
# welch t

def test_welch_t_identical_samples():
    res = welch_t([1, 2, 3], [1, 2, 3])
    assert res.t == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0)


def test_welch_t_hand_value():
    res = welch_t([1, 2, 3, 4], [3, 4, 5, 6])
    assert res.t == pytest.approx(-2.0 / math.sqrt(5.0 / 6.0), abs=1e-12)
    assert round(res.t, 3) == -2.191
    assert res.df == pytest.approx(6.0, abs=1e-12)


def test_welch_t_degenerate_variance_rejected():
    with pytest.raises(ValueError):
        welch_t([0, 0, 0], [0, 0, 0])


def test_welch_t_short_sample_rejected():
    with pytest.raises(ValueError):
        welch_t([1], [1, 2])


def test_welch_t_matches_scipy():
    for na, nb in ((2, 2), (4, 9), (30, 12), (100, 100)):
        a = rng.normal(0.0, 1.0, size=na)
        b = rng.normal(0.5, 2.0, size=nb)
        expected = scipy.stats.ttest_ind(a, b, equal_var=False)
        res = welch_t(a, b)
        assert res.t == pytest.approx(expected.statistic, abs=1e-9)
        assert res.p_value == pytest.approx(expected.pvalue, abs=1e-9)


def test_welch_t_antisymmetric():
    a = [1.0, 4.0, 2.0, 8.0]
    b = [3.0, 3.5, 5.0]
    ab, ba = welch_t(a, b), welch_t(b, a)
    assert ab.t == pytest.approx(-ba.t, abs=1e-12)
    assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)
    assert ab.df == pytest.approx(ba.df, abs=1e-12)


def _reference_welch(a, b):
    """Welch's t over the expanded value lists, as ``welch_t`` computed it
    before it took (value, copies) pairs."""
    xs, ys = [float(v) for v in a], [float(v) for v in b]
    if any(math.isnan(v) or math.isinf(v) for v in xs + ys):
        raise ValueError("values must be finite")
    if len(xs) < 2 or len(ys) < 2:
        raise ValueError("each sample needs at least two values")
    na, nb = len(xs), len(ys)
    ma, mb = math.fsum(xs) / na, math.fsum(ys) / nb
    va = math.fsum((v - ma) ** 2 for v in xs) / (na - 1)
    vb = math.fsum((v - mb) ** 2 for v in ys) / (nb - 1)
    if va == 0.0 and vb == 0.0:
        raise ValueError("both variances are zero; t undefined")
    sa, sb = va / na, vb / nb
    t = (ma - mb) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa ** 2 / (na - 1) + sb ** 2 / (nb - 1))
    p = reg_inc_beta(df / 2.0, 0.5, df / (df + t * t)) if t != 0.0 else 1.0
    return WelchResult(t=t, df=df, p_value=p)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:  # squares of 1e300 overflow
        return f"{type(exc).__name__}: {exc}"


# few distinct values, so pairs carry repeats; signed zeros and a wide range
_welch_value_st = st.sampled_from([0.0, -0.0, 1.0, 2.5, 94.0, 311.0, -7.25, 1e-300, 1e300])
_pairs_st = st.lists(st.tuples(_welch_value_st, st.integers(0, 6)), max_size=6)


@settings(max_examples=400, deadline=None)
@given(_pairs_st, _pairs_st)
def test_welch_t_counts_equals_expanded_reference(a, b):
    expand = lambda pairs: [v for v, c in pairs for _ in range(c)]  # noqa: E731
    want = _outcome(_reference_welch, expand(a), expand(b))
    assert _outcome(stats.welch_t_counts, a, b) == want
    assert _outcome(welch_t, expand(a), expand(b)) == want


def test_welch_t_counts_rejects_non_finite_values():
    with pytest.raises(ValueError, match="finite"):
        stats.welch_t_counts([(1.0, 2), (math.inf, 1)], [(1.0, 3)])


def test_welch_t_counts_underflowing_df_raises_value_error():
    # the variance of b is tiny but not zero, and its square underflows to
    # 0 in the Welch-Satterthwaite denominator
    b = [(0.0, 1), (1.5313918648044625e-91, 1)]
    with pytest.raises(ValueError, match="too small"):
        stats.welch_t_counts([(0.0, 2)], b)
    with pytest.raises(ValueError, match="too small"):
        welch_t([0.0, 0.0], [0.0, 1.5313918648044625e-91])


# ---------------------------------------------------------------------------
# tail probabilities vs scipy

def test_chi2_sf_matches_scipy():
    for df in (1, 2, 3, 7, 10, 50.5, 399):
        for x in (0.0, 0.3, 1.0, 3.857, 8.547, 25.0, 120.0):
            assert chi2_sf(x, df) == pytest.approx(
                scipy.stats.chi2.sf(x, df), abs=1e-10
            ), (x, df)


def test_chi2_sf_negative_x():
    assert chi2_sf(-1.0, 3) == 1.0


def test_chi2_sf_invalid_df():
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


def test_student_t_sf_matches_scipy():
    for df in (1, 2, 6, 11.3, 100, 2000):
        for t in (-8.0, -2.191, -0.5, 0.0, 0.5, 2.191, 8.0):
            assert student_t_sf(t, df) == pytest.approx(
                scipy.stats.t.sf(t, df), abs=1e-10
            ), (t, df)


def test_reg_inc_beta_matches_scipy():
    for a in (0.5, 1.0, 3.0, 12.5):
        for b in (0.5, 2.0, 7.0):
            for x in (0.0, 0.01, 0.3, 0.7, 0.99, 1.0):
                assert reg_inc_beta(a, b, x) == pytest.approx(
                    scipy.stats.beta.cdf(x, a, b), abs=1e-10
                ), (a, b, x)


# ---------------------------------------------------------------------------
# bootstrap

def test_bootstrap_constant_data():
    res = bootstrap([4, 4, 4], lambda s: float(np.mean(s)), BootstrapConfig(seed=1))
    assert res.mean == pytest.approx(4.0)
    assert res.std == pytest.approx(0.0)
    assert (res.ci_low, res.ci_high) == (4.0, 4.0)
    assert res.iterations == 1000


def test_bootstrap_deterministic_for_fixed_seed():
    data = rng.normal(size=40)
    cfg = BootstrapConfig(iterations=300, seed=77)
    r1 = bootstrap(data, lambda s: float(np.mean(s)), cfg)
    r2 = bootstrap(data, lambda s: float(np.mean(s)), cfg)
    assert r1 == r2  # bit-identical dataclasses


def test_bootstrap_seed_changes_result():
    data = list(range(30))
    f = lambda s: float(np.mean(s))
    r1 = bootstrap(data, f, BootstrapConfig(iterations=200, seed=1))
    r2 = bootstrap(data, f, BootstrapConfig(iterations=200, seed=2))
    assert (r1.ci_low, r1.ci_high) != (r2.ci_low, r2.ci_high)


def test_bootstrap_interval_brackets_plug_in_mean():
    data = rng.normal(10.0, 2.0, size=200)
    res = bootstrap(data, lambda s: float(np.mean(s)), BootstrapConfig(seed=5))
    assert res.ci_low <= float(np.mean(data)) <= res.ci_high
    assert res.ci_low <= res.mean <= res.ci_high


def test_bootstrap_drops_non_finite_replicates():
    # A ratio statistic can blow up when a resample has no "men"; those
    # replicates are excluded from the summary rather than poisoning it.
    data = [0.0, 0.0, 0.0, 1.0]

    def ratio(sample):
        s = float(np.sum(sample))
        return 1.0 / s if s > 0 else math.inf

    res = bootstrap(data, ratio, BootstrapConfig(iterations=500, seed=3))
    assert math.isfinite(res.mean)
    assert math.isfinite(res.ci_high)


def test_bootstrap_all_non_finite_rejected():
    with pytest.raises(ValueError):
        bootstrap([1.0, 2.0], lambda s: math.nan, BootstrapConfig(iterations=50, seed=0))


def test_bootstrap_empty_data_rejected():
    with pytest.raises(ValueError):
        bootstrap([], lambda s: 0.0, BootstrapConfig(seed=0))


def _bootstrap_one_shot(values, statistic, config):
    # The bootstrap before resamples were drawn in blocks, kept verbatim as
    # the reference: one (B, n) index matrix from the seeded generator.
    arr = np.asarray(list(values), dtype=float)
    n = arr.size
    if n == 0:
        raise ValueError("cannot bootstrap an empty sample")
    rng = np.random.default_rng(config.seed)
    idx = rng.integers(0, n, size=(config.iterations, n))
    out = np.empty(config.iterations, dtype=float)
    for i in range(config.iterations):
        out[i] = statistic(arr[idx[i]])
    finite = out[np.isfinite(out)]
    if finite.size == 0:
        raise ValueError("all bootstrap replicates were non-finite")
    alpha = (1.0 - config.confidence) / 2.0
    lo, hi = np.quantile(finite, [alpha, 1.0 - alpha])
    return BootstrapResult(
        mean=float(np.mean(finite)),
        std=float(np.std(finite)),
        ci_low=float(lo),
        ci_high=float(hi),
        iterations=config.iterations,
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:  # squares of 1e300 overflow
        return f"{type(exc).__name__}: {exc}"


def _ratio_statistic(arr) -> float:
    # Women per man in a 0/1 woman-indicator resample, as the report
    # computed it per resample before it drew binomial counts.
    women = float(arr.sum())
    men = float(arr.size - arr.sum())
    return women / men if men > 0 else float("inf")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3000),
    iterations=st.integers(1, 300),
    block=st.integers(1, 5000),
    seed=st.integers(0, 2**32 - 1),
    ratio=st.booleans(),
    men_share=st.floats(0.0, 1.0),
)
def test_bootstrap_blocks_match_one_shot_draw(n, iterations, block, seed, ratio, men_share):
    # Small blocks that do not divide B, and n beyond one block (one row a
    # draw), must continue the generator's stream exactly.  The ratio
    # statistic on a woman-indicator sample with few men yields inf
    # replicates, and none at all makes every replicate inf.
    data_rng = np.random.default_rng(seed)
    if ratio:
        data = (data_rng.random(n) >= men_share).astype(float)
        statistic = _ratio_statistic
    else:
        data = data_rng.normal(size=n)
        statistic = lambda s: float(np.mean(s))
    config = BootstrapConfig(iterations=iterations, seed=seed)
    with mock.patch.object(stats, "_BLOCK", block):
        got = _outcome(bootstrap, data, statistic, config)
    assert got == _outcome(_bootstrap_one_shot, data, statistic, config)


def test_bootstrap_memory_is_bounded_by_the_block():
    # B * n = 10**7 draws: a (B, n) int64 index matrix alone is 80 MB.
    data = rng.random(100_000).tolist()
    tracemalloc.start()
    try:
        bootstrap(data, lambda s: float(np.mean(s)), BootstrapConfig(iterations=100, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * stats._BLOCK * 8 + 8 * len(data) * 8


# Replicate values: few distinct ones, so values repeat, or any finite
# float.  "+ 0.0" turns -0.0 into 0.0: partition and sort may order the
# two zeros differently, and count-based replicates are never -0.0.
_replicates_st = st.lists(
    st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(allow_nan=False, allow_infinity=False, width=64).map(lambda x: x + 0.0),
    ),
    min_size=1,
    max_size=80,
)
_confidence_st = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(1, 53).map(lambda k: 1.0 - 2.0 ** -k),  # near 1: tiny alpha
    st.sampled_from([0.5, 0.9, 0.95, 0.99]),
)


@settings(max_examples=800, deadline=None)
@given(_replicates_st, _confidence_st)
def test_summary_interval_equals_numpy_quantile_bit_for_bit(values, confidence):
    with np.errstate(over="ignore", invalid="ignore"):  # huge floats may overflow
        result = stats._summarise(np.array(values), BootstrapConfig(confidence=confidence))
        alpha = (1.0 - confidence) / 2.0
        lo, hi = np.quantile(np.array(values), [alpha, 1.0 - alpha])
    assert (result.ci_low.hex(), result.ci_high.hex()) == (float(lo).hex(), float(hi).hex())


# ---------------------------------------------------------------------------
# bootstrap from binomial counts

def _share(n):
    return lambda c: c / n


def _ratio(n):
    return lambda c: c / (n - c)


def test_bootstrap_counts_draws_one_binomial_per_replicate():
    cfg = BootstrapConfig(iterations=400, seed=31)
    res = bootstrap_counts(37, 120, _share(120), cfg)
    counts = np.random.default_rng(31).binomial(120, 37 / 120, size=400) / 120
    lo, hi = np.quantile(counts, [0.025, 0.975])
    assert res == BootstrapResult(
        mean=float(np.mean(counts)), std=float(np.std(counts)),
        ci_low=float(lo), ci_high=float(hi), iterations=400,
    )


def test_bootstrap_counts_deterministic_for_fixed_seed():
    cfg = BootstrapConfig(iterations=300, seed=77)
    for statistic in (_share(90), _ratio(90)):
        assert bootstrap_counts(30, 90, statistic, cfg) == bootstrap_counts(
            30, 90, statistic, cfg
        )
    r1 = bootstrap_counts(30, 90, _share(90), BootstrapConfig(iterations=300, seed=1))
    r2 = bootstrap_counts(30, 90, _share(90), BootstrapConfig(iterations=300, seed=2))
    assert (r1.ci_low, r1.ci_high) != (r2.ci_low, r2.ci_high)


def test_bootstrap_counts_calibration():
    # Criterion 8's check, drawn from counts: 95% CIs cover the true
    # proportion in 95% +/- 3 points over 200 trials at n = 400.
    trial_rng = np.random.default_rng(20261018)
    p_true, n, trials = 0.3, 400, 200
    seeds = trial_rng.integers(0, 2**32 - 1, size=trials)
    covered = 0
    for seed in seeds:
        k = int(trial_rng.binomial(n, p_true))
        res = bootstrap_counts(
            k, n, _share(n), BootstrapConfig(iterations=1000, seed=int(seed))
        )
        covered += res.ci_low <= p_true <= res.ci_high
    assert 0.92 * trials <= covered <= 0.98 * trials


@pytest.mark.parametrize("k,n", [(90, 300), (12, 40), (28, 40)])
@pytest.mark.parametrize("name", ["share", "ratio"])
def test_bootstrap_counts_agrees_with_index_bootstrap(k, n, name):
    # Same 0/1 data, two resampling schemes with the same distribution: the
    # count of ones in a resample is Binomial(n, k/n).  Both summaries of
    # B = 4000 replicates agree within Monte-Carlo error, which is taken
    # from that exact distribution (the ratio's tail is heavy at 28/40).
    iterations = 4000
    data = [1.0] * k + [0.0] * (n - k)
    if name == "share":
        counts_stat, array_stat = _share(n), lambda a: float(a.mean())
    else:
        counts_stat, array_stat = _ratio(n), _ratio_statistic
    by_counts = bootstrap_counts(k, n, counts_stat, BootstrapConfig(iterations, seed=5))
    by_index = bootstrap(data, array_stat, BootstrapConfig(iterations, seed=6))

    with np.errstate(divide="ignore"):
        values = counts_stat(np.arange(n + 1))
    pmf = scipy.stats.binom.pmf(np.arange(n + 1), n, k / n)
    finite = np.isfinite(values)
    values, pmf = values[finite], pmf[finite] / pmf[finite].sum()
    mu = float(pmf @ values)
    var = float(pmf @ (values - mu) ** 2)
    m4 = float(pmf @ (values - mu) ** 4)
    se_mean = math.sqrt(var / iterations)
    se_std = math.sqrt((m4 - var**2) / (4 * var * iterations))
    assert by_counts.mean == pytest.approx(by_index.mean, abs=5 * math.sqrt(2) * se_mean)
    assert by_counts.std == pytest.approx(by_index.std, abs=5 * math.sqrt(2) * se_std)
    # The sample q-quantile lies between the exact (q -/+ delta)-quantiles,
    # delta five binomial SEs of the share of replicates below it.
    order = np.argsort(values)
    cdf = np.cumsum(pmf[order])
    for q, got, want in ((0.025, by_counts.ci_low, by_index.ci_low),
                         (0.975, by_counts.ci_high, by_index.ci_high)):
        delta = 5 * math.sqrt(q * (1 - q) / iterations)
        lo = values[order][np.searchsorted(cdf, q - delta)]
        hi = values[order][min(np.searchsorted(cdf, q + delta), cdf.size - 1)]
        assert lo <= got <= hi and lo <= want <= hi


def test_bootstrap_counts_edge_cases():
    cfg = BootstrapConfig(iterations=200, seed=4)
    none = bootstrap_counts(0, 50, _share(50), cfg)
    assert (none.mean, none.std, none.ci_low, none.ci_high) == (0.0, 0.0, 0.0, 0.0)
    every = bootstrap_counts(50, 50, _share(50), cfg)
    assert (every.mean, every.std, every.ci_low, every.ci_high) == (1.0, 0.0, 1.0, 1.0)
    no_women = bootstrap_counts(0, 50, _ratio(50), cfg)
    assert (no_women.mean, no_women.ci_low, no_women.ci_high) == (0.0, 0.0, 0.0)
    # no men: every replicate is inf, as with the index bootstrap
    with pytest.raises(ValueError) as by_counts:
        bootstrap_counts(50, 50, _ratio(50), cfg)
    with pytest.raises(ValueError) as by_index:
        bootstrap([1.0] * 50, _ratio_statistic, cfg)
    assert str(by_counts.value) == str(by_index.value)
    with pytest.raises(ValueError, match="empty sample"):
        bootstrap_counts(0, 0, _share(0), cfg)


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(iterations=0)
    with pytest.raises(ValueError):
        BootstrapConfig(confidence=1.0)
    with pytest.raises(ValueError):
        BootstrapConfig(confidence=0.0)


# ---------------------------------------------------------------------------
# report helpers

def test_gender_ratio_values():
    assert gender_ratio({"Man": 100, "Woman": 25}) == pytest.approx(0.25)
    assert gender_ratio({"Man": 50, "Woman": 50}) == pytest.approx(1.0)


def test_gender_ratio_zero_men_rejected():
    with pytest.raises(ValueError):
        gender_ratio({"Man": 0, "Woman": 5})


def test_gender_ratio_ignores_unknown_key():
    assert gender_ratio({"Man": 10, "Woman": 5, "Unknown": 99}) == pytest.approx(0.5)


def test_cumulative_topn_hand_values():
    shares = cumulative_topn({1: 10, 2: 5, 100: 5}, [5, 100])
    assert shares == pytest.approx([0.75, 1.0])


def test_cumulative_topn_all_at_rank_one():
    assert cumulative_topn({1: 42}, [5]) == pytest.approx([1.0])


def test_cumulative_topn_uniform():
    uniform = {r: 1 for r in range(1, 101)}
    assert cumulative_topn(uniform, [50]) == pytest.approx([0.5])


def test_cumulative_topn_nondecreasing():
    counts = {int(r): float(c) for r, c in
              zip(rng.integers(1, 100, size=40), rng.integers(0, 9, size=40))}
    counts[1] = counts.get(1, 0) + 1  # keep total positive
    cuts = [1, 5, 10, 50, 100]
    shares = cumulative_topn(counts, cuts)
    assert all(a <= b + 1e-12 for a, b in zip(shares, shares[1:]))


def test_cumulative_topn_zero_total_rejected():
    with pytest.raises(ValueError):
        cumulative_topn({1: 0}, [1])


def test_binned_shares_single_group():
    out = binned_shares({"left": {3: 2, 80: 1}}, 50)
    assert out == {"left": [1.0, 1.0]}


def test_binned_shares_even_split():
    counts = {"left": {1: 2, 60: 2}, "right": {1: 2, 60: 2}}
    out = binned_shares(counts, 50)
    assert out["left"] == pytest.approx([0.5, 0.5])
    assert out["right"] == pytest.approx([0.5, 0.5])


def test_binned_shares_hand_value():
    out = binned_shares({"L": {10: 3}, "R": {10: 1}}, 50)
    assert out["L"] == pytest.approx([0.75])
    assert out["R"] == pytest.approx([0.25])


def test_binned_shares_empty_bin_is_none():
    out = binned_shares({"L": {1: 1, 101: 1}}, 50)
    assert out["L"][0] == 1.0
    assert out["L"][1] is None
    assert out["L"][2] == 1.0


def test_binned_shares_sum_to_one_per_nonempty_bin():
    counts = {
        "a": {int(r): 1.0 for r in rng.integers(1, 120, size=25)},
        "b": {int(r): 2.0 for r in rng.integers(1, 120, size=25)},
    }
    out = binned_shares(counts, 25)
    n_bins = len(next(iter(out.values())))
    for b in range(n_bins):
        col = [out[g][b] for g in out]
        if any(v is not None for v in col):
            assert sum(v for v in col if v is not None) == pytest.approx(1.0)


def test_binned_shares_invalid_width():
    with pytest.raises(ValueError):
        binned_shares({"a": {1: 1}}, 0)
