"""Inequality measures and hypothesis tests for the audit report.

All estimators are deterministic pure functions; the bootstrap is seeded
and reproducible bit-for-bit for a given configuration.  Tail
probabilities for the chi-square and Student-t distributions are computed
from the regularized incomplete gamma and beta functions (series plus
continued fractions), accurate to roughly 1e-10, so no statistics
dependency is needed at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

#: A sample is just a sequence of real values; grouped data is a sequence
#: of such sequences.
Sample = Sequence[float]
GroupedSample = Sequence[Sequence[float]]

_EPS = 1e-15
_MAX_ITER = 500
#: Where a continued-fraction term would vanish, modified Lentz uses this.
_TINY = 1e-300


# ---------------------------------------------------------------------------
# tail probabilities


def _gamma_p_series(a: float, x: float) -> float:
    # Lower regularized incomplete gamma by power series, for x < a + 1.
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _lentz_step(an: float, bn: float, c: float, d: float) -> tuple[float, float, float]:
    """One modified-Lentz step of a continued fraction b0 + a1/(b1 + a2/(b2 + ...)).

    Takes the term pair (an, bn) and the running C and 1/D; returns the
    new C and 1/D and the factor the convergent is multiplied by.
    """
    d = an * d + bn
    if abs(d) < _TINY:
        d = _TINY
    c = bn + an / c
    if abs(c) < _TINY:
        c = _TINY
    d = 1.0 / d
    return c, d, d * c


def _gamma_q_cf(a: float, x: float) -> float:
    # Upper regularized incomplete gamma by continued fraction (modified
    # Lentz), for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        b += 2.0
        c, d, delta = _lentz_step(-i * (i - a), b, c, d)
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(x: float, df: float) -> float:
    """Survival function P(X > x) of the chi-square distribution."""
    if df <= 0:
        raise ValueError("df must be positive")
    if x <= 0:
        return 1.0
    a, half = df / 2.0, x / 2.0
    if half < a + 1.0:
        return 1.0 - _gamma_p_series(a, half)
    return _gamma_q_cf(a, half)


def _beta_cf(a: float, b: float, x: float) -> float:
    # Continued fraction of the incomplete beta (modified Lentz): an even
    # and an odd term per iteration.
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = h = 1.0 / d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        c, d, delta = _lentz_step(m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0, c, d)
        h *= delta
        c, d, delta = _lentz_step(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0, c, d)
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _t_two_sided(t: float, df: float) -> float:
    # P(|T| > |t|) for Student's t with df degrees of freedom
    return reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))


def student_t_sf(t: float, df: float) -> float:
    """Survival function P(T > t) of Student's t distribution."""
    if df <= 0:
        raise ValueError("df must be positive")
    p_two = _t_two_sided(t, df)
    return p_two / 2.0 if t >= 0 else 1.0 - p_two / 2.0


# ---------------------------------------------------------------------------
# inequality and association measures


def _as_floats(values: Sample) -> list[float]:
    out = [float(v) for v in values]
    if any(math.isnan(v) or math.isinf(v) for v in out):
        raise ValueError("values must be finite")
    return out


def gini(values: Sample) -> float:
    """Gini coefficient of a non-negative sample with positive mean.

    Equals sum_ij |x_i - x_j| / (2 n^2 mean); 0 for perfect equality and
    at most 1 - 1/n when one unit holds everything.
    """
    xs = _as_floats(values)
    n = len(xs)
    if n < 1:
        raise ValueError("gini needs at least one value")
    if any(v < 0 for v in xs):
        raise ValueError("gini requires non-negative values")
    total = math.fsum(xs)
    if total <= 0:
        raise ValueError("gini requires a positive mean")
    xs.sort()
    weighted = math.fsum(i * x for i, x in enumerate(xs, start=1))
    return (2.0 * weighted - (n + 1) * total) / (n * total)


def _rankdata(values: Sample) -> list[float]:
    """Average ranks (1-based); ties share the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j + 2) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _pearson(x: Sequence[float], y: Sequence[float]) -> float:
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    if sxx == 0 or syy == 0:
        raise ValueError("correlation undefined for a constant sample")
    return sxy / math.sqrt(sxx * syy)


def spearman(x: Sample, y: Sample) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks.

    Tie-safe.  Raises for mismatched lengths, fewer than two pairs, or a
    constant side.
    """
    xs, ys = _as_floats(x), _as_floats(y)
    if len(xs) != len(ys):
        raise ValueError("samples must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two pairs")
    return _pearson(_rankdata(xs), _rankdata(ys))


@dataclass(frozen=True)
class KruskalWallisResult:
    h: float
    p_value: float
    df: int


def kruskal_wallis(groups: GroupedSample) -> KruskalWallisResult:
    """Kruskal-Wallis H test with tie correction.

    H = [12 / (N(N+1))] * sum n_i (rbar_i - (N+1)/2)^2, divided by
    1 - sum(t^3 - t) / (N^3 - N) over tie groups; the p-value is the
    chi-square survival probability at k - 1 degrees of freedom.
    Raises if fewer than two groups, any group is empty, or every value
    in the pooled sample is identical.
    """
    gs = [_as_floats(g) for g in groups]
    if len(gs) < 2:
        raise ValueError("need at least two groups")
    if any(len(g) == 0 for g in gs):
        raise ValueError("groups must be non-empty")
    pooled = [v for g in gs for v in g]
    n = len(pooled)
    ranks = _rankdata(pooled)
    mean_rank = (n + 1) / 2.0
    h = 0.0
    pos = 0
    for g in gs:
        gr = ranks[pos:pos + len(g)]
        pos += len(g)
        rbar = math.fsum(gr) / len(g)
        h += len(g) * (rbar - mean_rank) ** 2
    h *= 12.0 / (n * (n + 1))
    counts: dict[float, int] = {}
    for v in pooled:
        counts[v] = counts.get(v, 0) + 1
    tie_sum = sum(t ** 3 - t for t in counts.values())
    correction = 1.0 - tie_sum / (n ** 3 - n)
    if correction == 0.0:
        raise ValueError("all values tied; H undefined")
    h /= correction
    df = len(gs) - 1
    return KruskalWallisResult(h=h, p_value=chi2_sf(h, df), df=df)


@dataclass(frozen=True)
class WelchResult:
    t: float
    df: float
    p_value: float


def welch_t(a: Sample, b: Sample) -> WelchResult:
    """Welch's unequal-variance t test, two-sided.

    Degrees of freedom follow Welch-Satterthwaite.  Raises ValueError if
    either sample has fewer than two values, or if both variances are
    zero or so small that the df is undefined in floating point.
    """
    return welch_t_counts(
        [(v, 1) for v in _as_floats(a)], [(v, 1) for v in _as_floats(b)]
    )


def welch_t_counts(
    a: Collection[tuple[float, int]], b: Collection[tuple[float, int]]
) -> WelchResult:
    """``welch_t`` on samples given as (value, number of copies) pairs.

    ``math.fsum`` rounds the exact sum of its terms once, in any order, and
    each term is fed once per copy, so the result equals ``welch_t`` on the
    expanded samples bit for bit while memory grows with the pairs only.
    """
    _as_floats([v for v, _ in a] + [v for v, _ in b])  # finite values only
    na, nb = sum(c for _, c in a), sum(c for _, c in b)
    if na < 2 or nb < 2:
        raise ValueError("each sample needs at least two values")

    def fsum(pairs: Collection[tuple[float, int]], term: Callable[[float], float]) -> float:
        # a value with no copies adds no term, so its term is not computed
        return math.fsum(
            chain.from_iterable(repeat(term(float(v)), c) for v, c in pairs if c)
        )

    ma, mb = fsum(a, float) / na, fsum(b, float) / nb
    va = fsum(a, lambda v: (v - ma) ** 2) / (na - 1)
    vb = fsum(b, lambda v: (v - mb) ** 2) / (nb - 1)
    if va == 0.0 and vb == 0.0:
        raise ValueError("both variances are zero; t undefined")
    sa, sb = va / na, vb / nb
    den = sa ** 2 / (na - 1) + sb ** 2 / (nb - 1)
    if den == 0.0:  # the squares underflow, though a variance is not zero
        raise ValueError("variances too small for the Welch-Satterthwaite df; t undefined")
    t = (ma - mb) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / den
    p = _t_two_sided(t, df) if t != 0.0 else 1.0
    return WelchResult(t=t, df=df, p_value=p)


# ---------------------------------------------------------------------------
# bootstrap


#: Resample indices drawn per generator call in ``bootstrap``: 2**20
#: int64 values (8 MB), rounded down to whole rows but never below one.
_BLOCK = 1 << 20


@dataclass(frozen=True)
class BootstrapConfig:
    """Resampling settings: iteration count, seed, confidence level."""

    iterations: int = 1000
    seed: int = 0
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


@dataclass(frozen=True)
class BootstrapResult:
    mean: float
    std: float
    ci_low: float
    ci_high: float
    iterations: int


def bootstrap(
    values: Sample,
    statistic: Callable[[np.ndarray], float],
    config: BootstrapConfig,
) -> BootstrapResult:
    """Percentile bootstrap of an arbitrary statistic.

    Draws ``config.iterations`` resamples of size n with replacement from
    a generator seeded by ``config.seed`` and summarises the resample
    statistics (mean, population standard deviation, percentile interval
    at the configured confidence).  The statistic receives each resample
    as a 1-D numpy array.  Non-finite statistic values (a resample can
    make a ratio blow up) are dropped before summarising; if every
    replicate is non-finite a ValueError is raised.  Results are
    bit-reproducible for a fixed configuration.

    Resample indices are drawn in blocks of whole rows, about ``_BLOCK``
    indices per draw, from the one generator.  The blocks continue its
    stream, so the replicates equal those of a single (B, n) draw.  Memory
    beyond the input is bounded by one block, 8 * max(_BLOCK, n) bytes,
    plus one resample and the B replicate values, whatever B * n.
    """
    arr = np.asarray(list(values), dtype=float)
    n = arr.size
    if n == 0:
        raise ValueError("cannot bootstrap an empty sample")
    rng = np.random.default_rng(config.seed)
    out = np.empty(config.iterations, dtype=float)
    rows = max(1, _BLOCK // n)
    for start in range(0, config.iterations, rows):
        stop = min(start + rows, config.iterations)
        # no name holds the block, so it is freed before the next is drawn
        out[start:stop] = [
            statistic(arr[row]) for row in rng.integers(0, n, size=(stop - start, n))
        ]
    return _summarise(out, config)


def bootstrap_counts(
    k: int,
    n: int,
    statistic: Callable[[np.ndarray], np.ndarray],
    config: BootstrapConfig,
) -> BootstrapResult:
    """Percentile bootstrap of a statistic of the count of ones in a 0/1 sample.

    A resample of n values holding k ones has its count of ones drawn
    from exactly Binomial(n, k/n), so the B resamples are B binomial
    draws from a generator seeded by ``config.seed``, not B * n indices.
    ``statistic`` maps the whole array of drawn counts to the array of
    replicate values, e.g. ``lambda c: c / n``; division by zero in it is
    silent, since non-finite replicates are dropped.  The summary follows
    ``bootstrap``; the replicates differ from its stream on the same data.
    """
    if n <= 0:
        raise ValueError("cannot bootstrap an empty sample")
    counts = np.random.default_rng(config.seed).binomial(n, k / n, size=config.iterations)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(statistic(counts), dtype=float)
    return _summarise(out, config)


def _summarise(replicates: np.ndarray, config: BootstrapConfig) -> BootstrapResult:
    # Non-finite replicates (a ratio can blow up) are dropped; the interval
    # is the percentile one at the configured confidence.
    finite = replicates[np.isfinite(replicates)]
    if finite.size == 0:
        raise ValueError("all bootstrap replicates were non-finite")
    alpha = (1.0 - config.confidence) / 2.0
    ordered = np.sort(finite).tolist()
    return BootstrapResult(
        mean=float(np.mean(finite)),
        std=float(np.std(finite)),
        ci_low=_linear_quantile(ordered, alpha),
        ci_high=_linear_quantile(ordered, 1.0 - alpha),
        iterations=config.iterations,
    )


def _linear_quantile(ordered: Sequence[float], q: float) -> float:
    """``np.quantile(ordered, q)`` (method "linear") of sorted floats, bit for bit.

    The arithmetic is numpy's, step by step, including its branch for an
    index at or past the last value.  ``np.quantile`` itself is avoided
    because in numpy 2 it imports ``numpy.ma`` on first use, about 13 ms
    of every run.
    """
    last = len(ordered) - 1
    index = last * q
    if index >= last:
        below = above = last
        gamma = index + 1.0  # numpy measures it from index -1
    else:
        below = math.floor(index)
        above = below + 1
        gamma = index - below
    a, b = ordered[below], ordered[above]
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1.0 - gamma)
    return a + diff * gamma


# ---------------------------------------------------------------------------
# small report helpers


def gender_ratio(counts: Mapping[str, int]) -> float:
    """Women-to-men ratio from a {"Man": n, "Woman": m} count mapping.

    1.0 means parity; raises when no men are counted (callers report the
    ratio as undefined in that case).  Missing keys count as zero.
    """
    men = int(counts.get("Man", 0))
    women = int(counts.get("Woman", 0))
    if men < 0 or women < 0:
        raise ValueError("counts must be non-negative")
    if men == 0:
        raise ValueError("ratio undefined with zero men")
    return women / men


def cumulative_topn(
    counts_by_rank: Mapping[int, float], cut_points: Sequence[int]
) -> list[float]:
    """Cumulative share of attention captured by the top-n ranks.

    ``counts_by_rank`` maps rank (1 is best) to mention counts; each cut
    point n yields the share of all counts held by ranks <= n.
    """
    total = float(sum(counts_by_rank.values()))
    if total <= 0:
        raise ValueError("total count must be positive")
    shares = []
    for cut in cut_points:
        if cut < 1:
            raise ValueError("cut points must be >= 1")
        top = sum(c for r, c in counts_by_rank.items() if r <= cut)
        shares.append(top / total)
    return shares


def binned_shares(
    counts_by_group: Mapping[str, Mapping[int, float]], bin_width: int
) -> dict[str, list[float | None]]:
    """Per-bin share of each group's mentions, over rank bins.

    Ranks are grouped into consecutive bins of ``bin_width`` (bin 0 covers
    ranks 1..width).  Within each bin the groups' counts are normalised to
    shares that sum to 1; bins with no mentions at all yield None for
    every group.
    """
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    max_rank = 0
    for counts in counts_by_group.values():
        for r in counts:
            if r < 1:
                raise ValueError("ranks must be >= 1")
            max_rank = max(max_rank, r)
    if max_rank == 0:
        raise ValueError("no ranks present")
    n_bins = (max_rank + bin_width - 1) // bin_width
    groups = list(counts_by_group)
    totals = [0.0] * n_bins
    per_group = {g: [0.0] * n_bins for g in groups}
    for g in groups:
        for r, c in counts_by_group[g].items():
            b = (r - 1) // bin_width
            per_group[g][b] += c
            totals[b] += c
    result: dict[str, list[float | None]] = {g: [] for g in groups}
    for b in range(n_bins):
        for g in groups:
            result[g].append(per_group[g][b] / totals[b] if totals[b] > 0 else None)
    return result
