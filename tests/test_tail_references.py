"""Tail probabilities against verbatim copies of their earlier code.

``_gamma_q_cf`` and ``_beta_cf`` now share one modified-Lentz step,
``student_t_sf`` and ``welch_t_counts`` one two-sided t tail, and
``chi2_sf`` one ``x <= 0`` return.  The references below are the code as
it was before, each step written out; the library must return the same
bits on every input, non-finite ones and subnormal tails included.
"""

from __future__ import annotations

import math
from itertools import chain, repeat

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from newsaudit.stats import (
    _EPS,
    _MAX_ITER,
    WelchResult,
    _as_floats,
    _gamma_p_series,
    chi2_sf,
    reg_inc_beta,
    student_t_sf,
    welch_t_counts,
)

# ---------------------------------------------------------------------------
# verbatim references


def ref_gamma_q_cf(a, x):
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def ref_chi2_sf(x, df):
    if df <= 0:
        raise ValueError("df must be positive")
    if x < 0:
        return 1.0
    if x == 0:
        return 1.0
    a, half = df / 2.0, x / 2.0
    if half < a + 1.0:
        return 1.0 - _gamma_p_series(a, half)
    return ref_gamma_q_cf(a, half)


def ref_beta_cf(a, b, x):
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def ref_reg_inc_beta(a, b, x):
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * ref_beta_cf(a, b, x) / a
    return 1.0 - front * ref_beta_cf(b, a, 1.0 - x) / b


def ref_student_t_sf(t, df):
    if df <= 0:
        raise ValueError("df must be positive")
    p_two = ref_reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))
    return p_two / 2.0 if t >= 0 else 1.0 - p_two / 2.0


def ref_welch_t_counts(a, b):
    _as_floats([v for v, _ in a] + [v for v, _ in b])  # finite values only
    na, nb = sum(c for _, c in a), sum(c for _, c in b)
    if na < 2 or nb < 2:
        raise ValueError("each sample needs at least two values")

    def fsum(pairs, term):
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
    if den == 0.0:  # since added: an underflowing df raises, not ZeroDivisionError
        raise ValueError("variances too small for the Welch-Satterthwaite df; t undefined")
    t = (ma - mb) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / den
    p = ref_reg_inc_beta(df / 2.0, 0.5, df / (df + t * t)) if t != 0.0 else 1.0
    return WelchResult(t=t, df=df, p_value=p)


# ---------------------------------------------------------------------------
# differential tests


def _bits(v: float) -> str:
    return v.hex()  # exact, and equal for every nan


def _outcome(fn, *args) -> str:
    """The bits ``fn`` returns, or the error it raises."""
    try:
        return _bits(fn(*args))
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size)).tolist()


_SPECIAL = [0.0, -0.0, 1e-320, 5e-324, 1e-300, 0.5, 1.0, 2.0, 1e300, math.inf, -math.inf,
            math.nan, -1.0, -1e-300]


def test_chi2_sf_equals_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    xs = _log_uniform(rng, 1e-6, 1e4, 20000) + rng.uniform(-5, 5, 2000).tolist() + _SPECIAL
    dfs = _log_uniform(rng, 1e-3, 1e4, len(xs))
    pairs = list(zip(xs, dfs)) + [(x, df) for x in _SPECIAL for df in (0.5, 1.0, 3.0, 1e6)]
    for x, df in pairs:
        assert _outcome(chi2_sf, x, df) == _outcome(ref_chi2_sf, x, df), (x, df)


def test_reg_inc_beta_equals_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    n = 20000
    a, b = _log_uniform(rng, 1e-3, 1e4, n), _log_uniform(rng, 1e-3, 1e4, n)
    xs = rng.uniform(-0.05, 1.05, n).tolist()
    cases = list(zip(a, b, xs))
    cases += [(a[i], b[i], x) for i, x in enumerate(_SPECIAL)]
    cases += [(a[i], b[i], x) for i, x in enumerate((1e-12, 1 - 1e-12, 0.999999, 1e-200))]
    for a_, b_, x in cases:
        assert _outcome(reg_inc_beta, a_, b_, x) == _outcome(ref_reg_inc_beta, a_, b_, x), (
            a_, b_, x)


def test_student_t_sf_equals_reference_bit_for_bit():
    rng = np.random.default_rng(13)
    n = 20000
    ts = (rng.standard_cauchy(n) * 10).tolist() + _SPECIAL + [40.0, -40.0, 1e5, -1e5]
    dfs = _log_uniform(rng, 1e-2, 1e5, len(ts))
    for t, df in zip(ts, dfs):
        assert _outcome(student_t_sf, t, df) == _outcome(ref_student_t_sf, t, df), (t, df)
    # far tails: the sweep passes through subnormal p for every df
    subnormal = 0
    for df in (1.0, 2.0, 7.5, 30.0, 35.5, 60.0):
        for t in np.logspace(0, 45, 600).tolist():
            for tt in (t, -t):
                assert _outcome(student_t_sf, tt, df) == _outcome(ref_student_t_sf, tt, df)
            subnormal += 0.0 < student_t_sf(t, df) < 2.2250738585072014e-308
    assert subnormal > 10


def test_welch_t_counts_subnormal_tails_equal_reference():
    # one sample with no spread, the other with a spread of eps: df is
    # fixed and t grows as eps shrinks until p is subnormal, where
    # 2 * student_t_sf would give other bits
    subnormal = 0
    for eps in np.logspace(-20, -75, 600).tolist():
        for a in ([(0.0, 5), (eps, 1)], [(0.0, 4), (eps, 4)], [(eps, 3), (0.0, 9)]):
            b = [(1.0, 3)]
            got, want = welch_t_counts(a, b), ref_welch_t_counts(a, b)
            assert [_bits(v) for v in (got.t, got.df, got.p_value)] == [
                _bits(v) for v in (want.t, want.df, want.p_value)
            ], (a, b)
            subnormal += 0.0 < got.p_value < 2.2250738585072014e-308
    assert subnormal > 10


_values = st.one_of(
    st.integers(-50, 50).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300, allow_nan=False),
)
_pairs = st.lists(st.tuples(_values, st.integers(0, 4)), min_size=1, max_size=8)


def _welch_outcome(fn, a, b):
    """The bits of ``fn``'s t, df and p, or the error it raises."""
    try:
        r = fn(a, b)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return [_bits(v) for v in (r.t, r.df, r.p_value)]


@settings(max_examples=250, deadline=None)
@given(_pairs, _pairs)
def test_welch_t_counts_equals_reference_bit_for_bit(a, b):
    assert _welch_outcome(welch_t_counts, a, b) == _welch_outcome(ref_welch_t_counts, a, b)
