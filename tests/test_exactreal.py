from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from primevisit import exactreal
from primevisit.errors import PrecisionExhausted
from primevisit.exactreal import QuadExt, RatInterval, sqrt_interval, squarefree_split


def test_squarefree_split():
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(5) == (1, 5)
    assert squarefree_split(49) == (7, 1)
    # a prime beyond the trial-division bound, squared: folded by isqrt
    assert squarefree_split(100003**2 * 7) == (100003, 7)
    assert squarefree_split(4 * 100003 * 100019) == (2, 100003 * 100019)
    assert squarefree_split(100000000000031) == (1, 100000000000031)
    # above 10^15 a hidden square may stay in d0, which is still no square
    d = 100003**2 * 100019
    s, d0 = squarefree_split(d)
    assert s * s * d0 == d and isqrt(d0) ** 2 != d0


def test_arithmetic_keeps_the_split_radicand(monkeypatch):
    x = QuadExt(Fraction(1, 3), 2, 100000000000031)
    monkeypatch.setattr(exactreal, "squarefree_split", None)
    y = (x * 3 + 1) * x - x
    assert y.d == 100000000000031 and (y - y).d == 0
    assert y.floor() == 12 * 100000000000031 + 40000000  # 12d + 1/3 + 4 sqrt(d)


def test_perfect_square_folds_to_rational():
    x = QuadExt(1, Fraction(1, 2), 9)  # 1 + 3/2
    assert x.is_rational and x.a == Fraction(5, 2)


def test_arithmetic_and_sign():
    g = QuadExt.golden()  # (sqrt5 - 1)/2 ~ 0.618
    assert 0 < float(g) < 1
    assert g.sign() == 1
    assert (g - 1).sign() == -1
    assert (g + g + g).floor() == 1  # 1.854
    two_g = g * 2
    assert two_g == QuadExt(-1, 1, 5)
    # golden ratio identity: g^2 = 1 - g
    assert g * g == QuadExt(1) - g


def test_floor_frac_dist():
    s = QuadExt(-1, 1, 2)  # 0.41421...
    assert s.floor() == 0
    assert (s * 5).floor() == 2  # 2.071
    assert float((s * 5).frac()) == pytest.approx(0.07107, abs=1e-4)
    assert float((s * 12).dist_to_nearest_int()) == pytest.approx(0.029437, abs=1e-5)
    # negative values
    assert (-s).floor() == -1
    assert float((-s).frac()) == pytest.approx(1 - 0.414214, abs=1e-6)


def test_floor_near_integers_exact():
    g = QuadExt.golden()
    # Fibonacci multiples of g sit within ~1e-4 of integers; the floor must
    # still satisfy n <= x < n+1 exactly
    for mult in (987, 1597, 2584, 4181, 6765):
        x = g * mult
        n = x.floor()
        assert (x - n).sign() >= 0
        assert (x - (n + 1)).sign() < 0


def test_compare_to_fraction():
    g = QuadExt.golden()
    assert g < Fraction(2, 3)
    assert g > Fraction(3, 5)
    assert not g.is_rational


def test_interval_ops():
    iv = RatInterval(Fraction(1, 3), Fraction(2, 5))
    assert iv.certain_floor() == 0
    iv2 = iv * 3  # [1, 6/5]
    assert iv2.lo == 1
    with pytest.raises(PrecisionExhausted):
        RatInterval(Fraction(9, 10), Fraction(11, 10)).certain_floor()
    d = RatInterval(Fraction(7, 10), Fraction(8, 10)).dist_to_nearest_int()
    assert (d.lo, d.hi) == (Fraction(1, 5), Fraction(3, 10))
    assert d.compare_lt(Fraction(1, 2))
    with pytest.raises(PrecisionExhausted):
        d.compare_lt(Fraction(1, 4))


def test_floor_fuzz_vs_mpmath():
    import mpmath
    import numpy as np

    rng = np.random.default_rng(99)
    with mpmath.workdps(60):
        for _ in range(500):
            d = int(rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23]))
            a = Fraction(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**4)))
            b = Fraction(int(rng.integers(-10**6, 10**6)) or 1, int(rng.integers(1, 10**4)))
            x = QuadExt(a, b, d)
            want = int(
                mpmath.floor(
                    mpmath.mpf(a.numerator) / a.denominator
                    + (mpmath.mpf(b.numerator) / b.denominator) * mpmath.sqrt(d)
                )
            )
            assert x.floor() == want


def test_sqrt_interval_encloses():
    for d in (2, 3, 5, 7, 2026):
        iv = sqrt_interval(d)
        assert iv.lo * iv.lo <= d <= iv.hi * iv.hi
        assert float(iv.width) < 1e-30


def _mp_value(x: QuadExt):
    import mpmath

    return mpmath.mpf(x.a.numerator) / x.a.denominator + (
        mpmath.mpf(x.b.numerator) / x.b.denominator
    ) * mpmath.sqrt(x.d)


def test_float_of_convergent_distances():
    import mpmath

    g = QuadExt.golden()
    fib = [1, 1]
    while fib[-1] < 10**30:
        fib.append(fib[-1] + fib[-2])
    with mpmath.workdps(80):
        for q, p in zip(fib[2:], fib[1:]):  # q * g - p = +-1/(q * phi) roughly
            x = g * q - p
            assert float(x) == pytest.approx(float(_mp_value(x)), rel=1e-15)


def test_float_of_huge_cancelling_terms():
    import mpmath

    n = 10**400  # float(a) alone overflows
    x = QuadExt(-1, 1, 2) * n
    x = x - (x.a + isqrt(2 * n * n))
    with mpmath.workdps(900):
        want = float(_mp_value(x))
    assert 0 < want < 1 and float(x) == pytest.approx(want, rel=1e-15)
    # b*sqrt(d) alone overflows to inf although the sum is finite
    y = QuadExt(-10**308, 10**308, 5)
    with mpmath.workdps(40):
        assert float(y) == pytest.approx(float(_mp_value(y)), rel=1e-15)


@settings(deadline=None)
@given(
    d=st.sampled_from([2, 3, 5, 6, 7, 10, 13, 19, 23, 2026]),
    a=st.fractions(min_value=-10, max_value=10, max_denominator=1000),
    b=st.fractions(min_value=-10, max_value=10, max_denominator=1000).filter(bool),
    n=st.integers(1, 10**20),
    scale=st.fractions(min_value=Fraction(-100), max_value=100,
                       max_denominator=10**6).filter(bool),
)
def test_float_near_cancellation_vs_mpmath(d, a, b, n, scale):
    """n * alpha - (nearest integer), scaled: the terms a and b*sqrt(d) of
    the result nearly cancel."""
    import mpmath

    alpha = QuadExt(a, b, d)
    assume(not alpha.is_rational)
    with mpmath.workdps(60):
        p = int(mpmath.nint(_mp_value(alpha) * n))
        x = (alpha * n - p) * scale
        want = _mp_value(x)
        assert abs(float(x) - want) <= 1e-12 * abs(want)


def test_floor_of_huge_surd_is_exact():
    # the floor is integer arithmetic on (P + sqrt(D))/Q, whatever |x| is
    assert QuadExt(0, 10**30, 5).floor() == isqrt(5 * 10**60)
    assert QuadExt(0, -(10**30), 5).floor() == -isqrt(5 * 10**60) - 1
    # 1/3 + (10^500/7) sqrt(2) = (7 + sqrt(18 * 10^1000)) / 21
    assert QuadExt(Fraction(1, 3), Fraction(10**500, 7), 2).floor() == (
        7 + isqrt(18 * 10**1000)
    ) // 21


@settings(deadline=None)
@given(
    d=st.sampled_from([2, 3, 5, 6, 7, 10, 13, 19, 23, 2026]),
    a=st.fractions(min_value=-10, max_value=10, max_denominator=1000),
    b=st.fractions(min_value=-10, max_value=10, max_denominator=1000).filter(bool),
    n=st.integers(1, 10**30),
    k=st.integers(-(10**30), 10**30),
)
def test_floor_frac_sign_vs_mpmath(d, a, b, n, k):
    """x = n*alpha - nint(n*alpha) + k lies within 1/2 of the integer k, and
    its two terms reach 10^31 in size."""
    import mpmath

    alpha = QuadExt(a, b, d)
    assume(not alpha.is_rational)
    with mpmath.workdps(150):
        p = int(mpmath.nint(_mp_value(alpha) * n))
        for x in (alpha * n - p, alpha * n - p + k):
            want = _mp_value(x)
            fl = int(mpmath.floor(want))
            assert x.floor() == fl
            assert x.sign() == int(mpmath.sign(want))
            f = x.frac()
            assert QuadExt(0) <= f < QuadExt(1)
            assert abs(_mp_value(f) - (want - fl)) < mpmath.mpf(10) ** -100
