from fractions import Fraction
from math import ceil, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primevisit import contfrac
from primevisit.errors import CapExceeded, PrecisionExhausted, UsageError
from primevisit.contfrac import (
    Decimal,
    Quadratic,
    Quotients,
    Rational,
    RealNumberSpec,
    cf_expand,
    check_prop71,
    return_time,
    return_time_bruteforce,
    type_estimate,
)
from primevisit.exactreal import QuadExt

GOLDEN = Quadratic.golden()
SQRT2M1 = Quadratic(QuadExt(-1, 1, 2))


def test_expand_rational():
    cf = cf_expand(Rational(Fraction(355, 113)), 10)
    assert cf.partial_quotients == (3, 7, 16)
    assert cf.terminated
    assert cf.convergents[-1] == (355, 113)


def test_expand_quadratic_periodic():
    cf = cf_expand(GOLDEN, 12)
    assert cf.partial_quotients == (0,) + (1,) * 11
    assert cf.period == 1
    cf2 = cf_expand(SQRT2M1, 12)
    assert cf2.partial_quotients == (0,) + (2,) * 11
    assert cf2.period == 1
    # sqrt(7) = [2; 1,1,1,4 repeating]
    cf3 = cf_expand(Quadratic(QuadExt(0, 1, 7)), 14)
    assert cf3.partial_quotients[:9] == (2, 1, 1, 1, 4, 1, 1, 1, 4)
    assert cf3.period == 4


def test_convergent_identities():
    # p_n q_{n-1} - p_{n-1} q_n = (-1)^{n-1}, q_n strictly increasing (n >= 1)
    for spec in (GOLDEN, SQRT2M1, Quadratic(QuadExt(Fraction(1, 3), Fraction(2, 7), 13))):
        cf = cf_expand(spec, 20)
        conv = cf.convergents
        for n in range(1, len(conv)):
            p1, q1 = conv[n]
            p0, q0 = conv[n - 1]
            assert p1 * q0 - p0 * q1 == (-1) ** (n - 1)
            if n >= 2:
                assert q1 > q0


def test_approximation_quality():
    # ||q_n alpha|| <= 1/q_{n+1}
    for spec in (GOLDEN, SQRT2M1):
        a = spec.exact_value()
        cf = cf_expand(spec, 18)
        qs = [q for _, q in cf.convergents]
        for n in range(len(qs) - 1):
            dist = (a * qs[n]).dist_to_nearest_int()
            assert dist <= QuadExt(Fraction(1, qs[n + 1]))


def test_expand_decimal_truncates():
    cf = cf_expand(Decimal("0.6180339887"), 40)
    # golden to 10 digits: the certified prefix must match the true expansion
    assert cf.partial_quotients[:10] == (0,) + (1,) * 9
    assert cf.depth < 40  # truncated where the half-ulp interval gives out


def test_expand_decimal_too_coarse():
    with pytest.raises(PrecisionExhausted):
        # +- 0.05 straddles several quotients immediately after a0
        rt = return_time(Decimal("0.6"), Fraction(1, 1000))


def test_return_time_examples():
    assert return_time(GOLDEN, Fraction(1, 10)).tau == 5
    rep = return_time(GOLDEN, Fraction(1, 10))
    assert rep.achieved == pytest.approx(0.09017, abs=1e-5)
    assert return_time(GOLDEN, Fraction(1, 20)).tau == 13
    rep = return_time(Rational(Fraction(1, 3)), Fraction(2, 10))
    assert rep.tau == 3 and rep.achieved == 0.0


def _fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _walk(spec, eps):
    """The convergent walk that every kind of number but `Quadratic` uses:
    the oracle for the integer walk."""
    return RealNumberSpec.return_time(spec, eps)


@st.composite
def _quadratic_cases(draw):
    d = draw(st.sampled_from([2, 3, 5, 7, 13, 19, 31, 1000003]))
    a = draw(st.fractions(-20, 20, max_denominator=40))
    b = draw(st.fractions(-20, 20, max_denominator=40).filter(bool))
    eps = Fraction(draw(st.integers(1, 499)), 1000) / 10 ** draw(st.integers(0, 57))
    return Quadratic(QuadExt(a, b, d)), eps


@settings(deadline=None, max_examples=60)
@given(case=_quadratic_cases())
def test_integer_walk_matches_convergent_walk(case):
    """Same report, achieved distance included, for angles inside and
    outside (0, 1), either sign of b, a period > 256 (d = 1000003) and eps
    down to 1e-60."""
    spec, eps = case
    assert return_time(spec, eps) == _walk(spec, eps)


def test_integer_walk_fixed_cases():
    # alpha_1 = (P + sqrt(D))/Q has Q < 0 for these two; the third is a
    # workload angle
    for text in ("sqrt:3:1/4:1/7", "sqrt:2:3/7:2/7", "sqrt:19:-2:2/3"):
        spec = RealNumberSpec.parse(text)
        for j in range(1, 20):
            eps = Fraction(3, 10**j)
            assert return_time(spec, eps) == _walk(spec, eps)
    assert return_time(spec, Fraction(346, 10**6)).tau == 1871
    # frac(golden) = 0.618 > 1/2: q_0 = q_1 = 1 and ||golden|| = 0.382
    for shift in (0, 3, -2):
        spec = Quadratic(QuadExt.golden() + shift)
        for eps, tau in ((Fraction(39, 100), 1), (Fraction(38, 100), 2)):
            assert return_time(spec, eps).tau == tau
            assert return_time(spec, eps) == _walk(spec, eps)


def test_golden_return_time_is_fibonacci():
    # ||F_k golden|| = phi^-k, so tau_eps = F_k for the least k with
    # phi^-k < eps
    import time

    phi = (1 + 5**0.5) / 2
    start = time.perf_counter()
    rep = return_time(GOLDEN, Fraction(1, 10**300))
    assert time.perf_counter() - start < 0.05
    k = ceil(300 * log(10) / log(phi))
    assert rep.tau == _fibonacci(k)
    assert rep.achieved == pytest.approx(phi**-k, rel=1e-12)


def test_return_time_cap_depth():
    # 1/F_(k+1) lies between phi^-k and phi^-(k-1): tau = F_k = q_(k-1).
    # The walk scans q_0 .. q_8191, doubling its depth from 32 past 5000
    assert return_time(GOLDEN, Fraction(1, _fibonacci(8193))).tau == _fibonacci(8192)
    with pytest.raises(CapExceeded) as exc:
        return_time(GOLDEN, Fraction(1, _fibonacci(8194)))
    assert str(exc.value) == "convergent depth cap hit"


def test_return_time_cap_depth_matches_walk(monkeypatch):
    # with a cap of 100 both walks stop after q_127 = F_128
    monkeypatch.setattr(contfrac, "_DEPTH_CAP", 100)
    eps = Fraction(1, _fibonacci(129))
    assert return_time(GOLDEN, eps) == _walk(GOLDEN, eps)
    assert return_time(GOLDEN, eps).tau == _fibonacci(128)
    for walk in (return_time, _walk):
        with pytest.raises(CapExceeded):
            walk(GOLDEN, Fraction(1, _fibonacci(130)))


@pytest.mark.parametrize("spec,eps,distinct", [
    (Quotients((0,) + (1,) * 3000), Fraction(1, 10**20), 95),
    (Quotients((0,) + (1,) * 3000), Fraction(1, 10**60), 287),
    (Decimal("0.6180339887498948482045868343656381177203091798057628621354486227"),
     Fraction(1, 10**30), 143),
], ids=["cf-1e-20", "cf-1e-60", "dec-1e-30"])
def test_walk_tests_each_convergent_once(monkeypatch, spec, eps, distinct):
    # the walk expands to depth 32, 64, ... and used to restart at q_0 after
    # each doubling: 189, 763 and 364 exact distances for these three
    tested, dist_below = [], contfrac._dist_below

    def counting(alpha, n, eps):
        tested.append(n)
        return dist_below(alpha, n, eps)

    monkeypatch.setattr(contfrac, "_dist_below", counting)
    tau = _walk(spec, eps).tau
    assert len(tested) == len(set(tested)) == distinct
    assert tested[-1] == tau


def test_return_time_epsilon_validation():
    with pytest.raises(UsageError):
        return_time(GOLDEN, Fraction(1, 2))
    with pytest.raises(UsageError):
        return_time(GOLDEN, 0)


def test_bruteforce_examples():
    assert return_time_bruteforce(GOLDEN, Fraction(1, 10), 100).tau == 5
    assert return_time_bruteforce(Rational(Fraction(1, 2)), Fraction(3, 10), 10).tau == 2
    t1 = return_time(SQRT2M1, Fraction(1, 10**4)).tau
    t2 = return_time_bruteforce(SQRT2M1, Fraction(1, 10**4), 10**4 + 1).tau
    assert t1 == t2 == 5741


def test_oracle_equivalence_random():
    rng = np.random.default_rng(5)
    for _ in range(12):
        d = int(rng.choice([2, 3, 5, 7, 13]))
        val = QuadExt(
            Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))),
            Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5))),
            d,
        ).frac()
        spec = Quadratic(val)
        for eps in (Fraction(1, 10), Fraction(1, 97), Fraction(1, 1000)):
            cap = int(1 / eps) + 1
            assert return_time(spec, eps).tau == return_time_bruteforce(spec, eps, cap).tau


def test_tau_monotone_in_eps_and_symmetric():
    taus = [
        return_time(GOLDEN, Fraction(1, 10**j)).tau for j in range(1, 6)
    ]
    assert taus == sorted(taus)
    # tau_eps(alpha) = tau_eps(1 - alpha)
    g = QuadExt.golden()
    flipped = QuadExt(1) - g
    spec = Quadratic(flipped)
    for eps in (Fraction(1, 10), Fraction(1, 50), Fraction(1, 997)):
        assert return_time(spec, eps).tau == return_time(GOLDEN, eps).tau


def test_rational_tau_hits_denominator():
    # once eps is below every nonzero ||n alpha||, tau is the denominator
    rep = return_time(Rational(Fraction(3, 7)), Fraction(1, 10**6))
    assert rep.tau == 7 and rep.achieved == 0.0


def test_decimal_return_times_match_exact():
    # 30 certified digits of the golden ratio reach tau at eps = 1e-5
    g30 = Decimal("0.618033988749894848204586834366")
    for eps in (Fraction(1, 10), Fraction(1, 1000), Fraction(1, 10**5)):
        assert return_time(g30, eps).tau == return_time(GOLDEN, eps).tau


def test_quotient_list_return_time():
    spec = Quotients([0] + list(range(1, 20)))
    rep = return_time(spec, Fraction(1, 500))
    rb = return_time_bruteforce(spec, Fraction(1, 500), 600)
    assert rep.tau == rb.tau
    # the golden angle as a 41-term list: the first enclosure of
    # ||6765 alpha||, from 8 terms, is far too wide, so its depth must double
    golden_list = Quotients([0] + [1] * 40)
    rep = return_time(golden_list, Fraction(1, 10**4))
    exact = return_time(GOLDEN, Fraction(1, 10**4))
    assert rep.tau == exact.tau == 6765
    assert 0 < rep.achieved_error < 1e-8
    assert abs(rep.achieved - exact.achieved) <= rep.achieved_error


def test_type_estimates():
    est = type_estimate(GOLDEN, 30)
    assert est.applicable
    assert est.liminf_proxy == pytest.approx(1.0, abs=0.15)
    assert est.exponent_max == pytest.approx(1.0, abs=0.15)

    assert not type_estimate(Rational(Fraction(7, 13)), 10).applicable

    liou = Quotients([0] + [10 ** (2**i) for i in range(6)])
    est = type_estimate(liou, 7)
    assert est.applicable and est.liminf_proxy < 0.7


def test_max_partial_quotient():
    assert GOLDEN.max_partial_quotient() == 1
    assert SQRT2M1.max_partial_quotient() == 2
    assert Rational(Fraction(3, 7)).max_partial_quotient() is None
    # long-period surd (period 712): still confirmed by depth doubling;
    # 8084 cross-checked against a high-precision mpmath expansion
    long_period = Quadratic(QuadExt(Fraction(29, 11), Fraction(-3, 2), 31))
    assert long_period.max_partial_quotient() == 8084


def test_expansion_fuzz_quality():
    """Random quadratics: quotient validity, alternating enclosure, and the
    1/q^2 approximation quality, all by exact comparisons."""
    rng = np.random.default_rng(1234)
    tested = 0
    while tested < 60:
        d = int(rng.choice([2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19]))
        a = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 12)))
        b = Fraction(int(rng.integers(-12, 13)) or 1, int(rng.integers(1, 12)))
        x = QuadExt(a, b, d)
        if x.is_rational:
            continue
        tested += 1
        spec = Quadratic(x)
        cf = cf_expand(spec, 18)
        assert all(q >= 1 for q in cf.partial_quotients[1:])
        for n, (p, q) in enumerate(cf.convergents):
            diff = x - Fraction(p, q)
            assert diff.sign() == (1 if n % 2 == 0 else -1)
            absdiff = diff if diff.sign() > 0 else -diff
            assert absdiff < Fraction(1, q * q)
        assert cf_expand(spec, 30).partial_quotients[:18] == cf.partial_quotients


def test_prop71_rows():
    grid = [Fraction(1, 10**j) for j in range(1, 7)]
    for spec, A in ((GOLDEN, 1), (SQRT2M1, 2)):
        rows = check_prop71(spec, grid)
        for r in rows:
            assert r.lower_kind == "bounded-quotient"
            assert r.upper_ok and r.lower_ok
            assert r.lower == pytest.approx(float(1 / r.epsilon) / (A + 1) ** 3)


def test_prop71_envelope_for_decimal():
    rows = check_prop71(Decimal("0.54627234601"), [Fraction(1, 10)])
    assert rows[0].lower_kind == "envelope"


def test_parse_roundtrip():
    assert RealNumberSpec.parse("golden") == Quadratic.golden()
    assert RealNumberSpec.parse("3/7") == Rational(Fraction(3, 7))
    s = RealNumberSpec.parse("sqrt:2:-1:1")
    assert isinstance(s, Quadratic) and float(s) == pytest.approx(0.41421356, abs=1e-8)
    assert RealNumberSpec.parse("sqrt:4:1:1") == Rational(Fraction(3))
    assert RealNumberSpec.parse("dec:0.125") == Decimal("0.125")
    assert RealNumberSpec.parse("cf:0,1,2,3").quotients == (0, 1, 2, 3)
    for bad in ("banana", "1/0", "sqrt:2:1", "sqrt:5:x:1", "sqrt:2:1/0:1", "cf:",
                "cf:0,1,x", "dec:", "dec:abc", "dec:NaN", "dec:-inf", "dec:3/7"):
        with pytest.raises(UsageError):
            RealNumberSpec.parse(bad)


def test_decimal_half_ulp_from_exponent():
    # the exponent, not the digits after the point, fixes the last place
    iv = Decimal("6.180339887e-1").interval()
    iv2 = Decimal("0.6180339887").interval()
    assert (iv.lo, iv.hi) == (iv2.lo, iv2.hi)
    iv = Decimal("1.5e3").interval()
    assert (iv.lo, iv.hi) == (1450, 1550)
    # golden (tau = 317811) lies inside the literal's interval, so no
    # smaller-than-golden return time may be certified from it
    for text in ("6.180339887e-1", "0.6180339887"):
        with pytest.raises(PrecisionExhausted):
            return_time(Decimal(text), Fraction(1, 500000))


@st.composite
def _real_numbers(draw):
    """One of the four kinds of real number, with small random data."""
    which = draw(st.integers(0, 3))
    if which == 0:
        return Rational(draw(st.fractions(-50, 50, max_denominator=10**6)))
    if which == 1:
        d = draw(st.sampled_from([2, 3, 5, 6, 7, 13, 19, 31]))
        a = draw(st.fractions(-20, 20, max_denominator=60))
        b = draw(st.fractions(-20, 20, max_denominator=60).filter(bool))
        return Quadratic(QuadExt(a, b, d))
    if which == 2:
        mantissa = draw(st.integers(-10**15, 10**15))
        return Decimal(f"{mantissa}e{draw(st.integers(-18, 2))}")
    head = draw(st.integers(-5, 5))
    return Quotients([head] + draw(st.lists(st.integers(1, 10**4), min_size=1, max_size=30)))


@settings(deadline=None, max_examples=200)
@given(x=_real_numbers())
def test_enclosures_and_expansions_agree(x):
    """interval() holds the exact value; a terminated expansion ends at
    it; and the bracket of the quotient list that x expands to holds x (or
    x's whole enclosure)."""
    iv = x.interval()
    exact = x.exact_value()
    if exact is not None:
        assert exact >= iv.lo and exact <= iv.hi
    try:
        cf = cf_expand(x, 12)
    except PrecisionExhausted:  # a decimal too coarse for its integer part
        return
    if cf.terminated:
        assert exact == Fraction(*cf.convergents[-1])
    qs = cf.partial_quotients
    if len(qs) < 2:  # an integer, or a decimal certain of a_0 only
        return
    prefix = Quotients(qs)
    assert cf_expand(prefix, 12).partial_quotients == qs
    bracket = prefix.interval()
    if exact is not None:
        assert exact >= bracket.lo and exact <= bracket.hi
    else:
        assert bracket.lo <= iv.lo and iv.hi <= bracket.hi
