from fractions import Fraction
from math import asinh, sinh, sqrt

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primevisit.errors import (
    BudgetExceeded,
    CapExceeded,
    InvalidParameter,
    SearchFailed,
    UsageError,
)
from primevisit.exactreal import QuadExt
from primevisit.contfrac import Quadratic, Rational
from primevisit.cli import main
from primevisit.clusters import pm
from primevisit.dynamics import (
    Mobius,
    Rotation,
    Shift,
    System,
    UnimodularMatrix,
    UpperHalfPoint,
    _TRANSLATES,
    _cosh_m1_lt,
    early_visit_search,
    first_return,
    kac_empirical,
    mobius_ball_measure,
    prime_visit_times,
    quotient_distance,
    reduce_fundamental,
    verify_certificate,
)

GOLDEN = Quadratic.golden()
SQRT2M1 = Quadratic(QuadExt(-1, 1, 2))


# --- hyperbolic geometry -----------------------------------------------------


def _random_points(seed, n, re=(-8000, 8000), im=(50, 3000)):
    """n exact points whose coordinates are random thousandths in the
    given ranges (bounds in thousandths)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield UpperHalfPoint(Fraction(int(rng.integers(*re)), 1000),
                             Fraction(int(rng.integers(*im)), 1000))


# --- Fraction oracles for the integer kernel ------------------------------------


def cosh_dist_minus_one(z, w):
    """cosh d(z, w) - 1 = |z - w|^2 / (2 Im z Im w), in Fractions."""
    dx = z.re - w.re
    dy = z.im - w.im
    return (dx * dx + dy * dy) / (2 * z.im * w.im)


def act_fractions(g, z):
    """The Moebius action (az+b)/(cz+d), in Fractions."""
    x, y = z.re, z.im
    u = g.c * x + g.d
    v = g.c * y
    den = u * u + v * v
    return UpperHalfPoint(((g.a * x + g.b) * u + g.a * y * v) / den, y / den)


def norm_sq(z):
    """|z|^2, in Fractions."""
    return z.re * z.re + z.im * z.im


def round_half(x):
    """The integer nearest x, an exact half rounding towards zero."""
    f = x + Fraction(1, 2)
    n = f.numerator // f.denominator
    if f == n:
        return n - 1 if n > 0 else n
    return n


_T = UnimodularMatrix(1, 1, 0, 1)
_S = UnimodularMatrix(0, -1, 1, 0)


def translate_words():
    """Identity, T^{+-1}, S and their distinct length-2 words, deduplicated
    up to sign."""
    gens = [_T, UnimodularMatrix(1, -1, 0, 1), _S]
    words = [UnimodularMatrix.identity(), *gens] + [g1 @ g2 for g1 in gens for g2 in gens]
    seen = {}
    for g in words:
        key = g.entries()
        if key not in seen and tuple(-v for v in key) not in seen:
            seen[key] = g
    return tuple(seen.values())


_WORDS = translate_words()


def quotient_cosh_m1(z, w):
    """min over the translate words of cosh d(z, gamma w) - 1, in Fractions."""
    return min(cosh_dist_minus_one(z, act_fractions(g, w)) for g in _WORDS)


def test_translates_are_the_words():
    assert set(_TRANSLATES) == {tuple(map(int, g.entries())) for g in _WORDS}
    assert len(_TRANSLATES) == len(_WORDS) == 10


@st.composite
def _points(draw):
    """Points with denominators up to 10^12."""
    re = draw(st.fractions(min_value=-3, max_value=3, max_denominator=10**12))
    im = draw(st.fractions(min_value=Fraction(1, 1000), max_value=4, max_denominator=10**12))
    return UpperHalfPoint(re, im)


@settings(deadline=None, max_examples=100)
@given(z=_points(), w=_points())
@example(z=UpperHalfPoint(Fraction(-49, 100), Fraction(6, 5)),
         w=UpperHalfPoint(Fraction(49, 100), Fraction(6, 5)))
def test_quotient_distance_matches_fraction_oracle(z, w):
    for a, b in ((z, w), (reduce_fundamental(z), reduce_fundamental(w))):
        want = quotient_cosh_m1(a, b)
        qd = quotient_distance(a, b)
        assert qd.cosh_minus_one == want
        assert qd.value == 2.0 * asinh(sqrt(float(want) / 2.0))


_ENTRY = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)


@settings(deadline=None, max_examples=50)
@given(b=_ENTRY, c=_ENTRY, b2=_ENTRY, z=_points())
def test_act_matches_fraction_oracle(b, c, b2, z):
    lower = UnimodularMatrix(1, 0, c, 1)
    g = UnimodularMatrix(1, b, 0, 1) @ lower @ UnimodularMatrix(1, b2, 0, 1)
    for m in (g, lower, g.power(3)):
        assert m.act(z) == act_fractions(m, z)


def test_det_checked_exactly():
    UnimodularMatrix(Fraction(3, 2), Fraction(1, 2), 1, 1)
    with pytest.raises(InvalidParameter, match="^det = 0 != 1$"):
        UnimodularMatrix(1, 1, 1, 1)
    with pytest.raises(InvalidParameter, match="^det = 1000000000001/1000000000000 != 1$"):
        UnimodularMatrix(1, 0, 0, 1 + Fraction(1, 10**12))


def test_cusp_overflow_is_a_budget_error():
    # i against 10^400 i: cosh d - 1 = (10^400 - 1)^2 / (2 10^400), 400 digits
    far = UpperHalfPoint(0, 10**400)
    with pytest.raises(BudgetExceeded, match="a 400-digit number"):
        quotient_distance(UpperHalfPoint(0, 1), far)
    # beyond the 4,300 digits that str() of an int allows
    with pytest.raises(BudgetExceeded, match="a 5000-digit number"):
        quotient_distance(UpperHalfPoint(0, 1), UpperHalfPoint(0, 10**5000))


def hyp_distance(z, w):
    """Hyperbolic distance in the upper half-plane, acosh(1 + v) written
    stably for small v."""
    v = float(cosh_dist_minus_one(z, w))
    return 2.0 * asinh(sqrt(v / 2.0))


def test_hyp_distance_examples():
    i = UpperHalfPoint(0, 1)
    assert hyp_distance(i, UpperHalfPoint(0, 2)) == pytest.approx(np.log(2))
    assert hyp_distance(i, i) == 0.0
    assert hyp_distance(i, UpperHalfPoint(1, 1)) == pytest.approx(np.arccosh(1.5))
    # symmetry, exactly on the cosh side
    pts = list(_random_points(3, 40))
    for z, w in zip(pts, pts[1:]):
        assert cosh_dist_minus_one(z, w) == cosh_dist_minus_one(w, z)
        assert hyp_distance(z, w) == hyp_distance(w, z)


def _reduce_tracking(z):
    """The Gauss reduction of reduce_fundamental in Fractions, also
    returning the word of generators applied and the matrix gamma with
    gamma(z) = the result."""
    gamma, words, cur = UnimodularMatrix.identity(), [], z
    while True:
        t = round_half(cur.re)
        if t != 0:
            shift = UnimodularMatrix(1, -t, 0, 1)
            cur, gamma = act_fractions(shift, cur), shift @ gamma
            words.append(f"T^{-t}")
        if norm_sq(cur) >= 1:
            return cur, " ".join(words), gamma
        cur, gamma = act_fractions(_S, cur), _S @ gamma
        words.append("S")


def test_reduce_examples():
    z = UpperHalfPoint(0, 2)
    assert reduce_fundamental(z) == z and _reduce_tracking(z)[1] == ""

    z = UpperHalfPoint(Fraction(7, 10), Fraction(4, 5))
    assert reduce_fundamental(z) == UpperHalfPoint(Fraction(30, 73), Fraction(80, 73))
    assert _reduce_tracking(z)[1].split() == ["T^-1", "S"]

    z = UpperHalfPoint(Fraction(53, 10), Fraction(9, 10))
    assert _reduce_tracking(z)[1].startswith("T^-5")
    w = reduce_fundamental(z)
    assert abs(w.re) <= Fraction(1, 2) and norm_sq(w) >= 1


def test_reduce_gamma_tracks_word():
    for z in _random_points(17, 50):
        w, _, gamma = _reduce_tracking(z)
        assert reduce_fundamental(z) == w == gamma.act(z)
        assert abs(w.re) <= Fraction(1, 2) and norm_sq(w) >= 1


def test_reduce_keeps_the_sign_of_an_exact_half():
    for re, want in ((Fraction(-5, 2), Fraction(-1, 2)), (Fraction(-3, 2), Fraction(-1, 2)),
                     (Fraction(-1, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 2)),
                     (Fraction(3, 2), Fraction(1, 2)), (Fraction(5, 2), Fraction(1, 2))):
        z = UpperHalfPoint(re, 2)
        assert reduce_fundamental(z).re == _reduce_tracking(z)[0].re == want


@settings(deadline=None, max_examples=100)
@given(z=st.one_of(
    _points(),
    st.builds(UpperHalfPoint, st.integers(-12, 12).map(lambda k: Fraction(k, 2)),
              st.fractions(min_value=Fraction(1, 8), max_value=3, max_denominator=8)),
))
def test_reduce_matches_fraction_oracle(z):
    assert reduce_fundamental(z) == _reduce_tracking(z)[0]


def test_reduce_exact_points():
    z = UpperHalfPoint(Fraction(7, 10), Fraction(4, 5))
    w = reduce_fundamental(z)
    assert isinstance(w.re, Fraction) and isinstance(w.im, Fraction)
    # T^-1 then S: -1/(-3/10 + 4i/5) = 30/73 + 80i/73, by hand
    assert w.re == Fraction(30, 73)
    assert w.im == Fraction(80, 73)


def test_float_coordinates_refused():
    with pytest.raises(InvalidParameter):
        UpperHalfPoint(0.5, 1.0)
    with pytest.raises(InvalidParameter):
        UnimodularMatrix(1.0, 0.3, 0.0, 1.0)
    # ints are stored as Fractions
    assert isinstance(UpperHalfPoint(0, 1).re, Fraction)
    assert all(isinstance(v, Fraction) for v in UnimodularMatrix(2, 1, 1, 1).entries())


def test_quotient_distance_edge_identification():
    z = UpperHalfPoint(Fraction(-49, 100), Fraction(6, 5))
    w = UpperHalfPoint(Fraction(49, 100), Fraction(6, 5))
    qd = quotient_distance(z, w)
    assert qd.value < 0.02  # via the T-translate
    assert qd.value <= hyp_distance(z, w)
    assert qd.exact_region
    # identity is in the translate set
    assert quotient_distance(z, z).value == 0.0


# --- systems ------------------------------------------------------------------


def test_shift_isometry():
    sh = Shift(12)
    for x in range(12):
        for y in range(12):
            assert sh.dist(sh.iterate(x, 1), sh.iterate(y, 1)) == sh.dist(x, y)


def test_first_return_cap_exceeded():
    # hyperbolic non-integer matrix: the orbit of i wanders without coming
    # back within 1e-6 in the first few dozen steps
    mob = Mobius(UnimodularMatrix(Fraction(3, 2), Fraction(1, 2), 1, 1))
    zi = UpperHalfPoint(Fraction(0), Fraction(1))
    with pytest.raises(CapExceeded):
        first_return(mob, zi, Fraction(1, 10**6), cap=40)


def test_shift_system_basics():
    sh = Shift(4)
    assert sh.iterate(0, 3) == 3
    assert sh.dist(0, 3) == 1.0
    assert sh.ball_measure(0, 0.5) == 0.25
    assert sh.ball_measure(0, 1.5) == 1.0
    assert first_return(Shift(7), 0, 0.5) == 7
    assert first_return(Shift(7), 0, 1.5) == 1


def test_rotation_system_basics():
    rot = Rotation(GOLDEN)
    assert rot.ball_measure(0, 0.05) == pytest.approx(0.1)
    assert first_return(rot, 0, Fraction(1, 10)) == 5
    with pytest.raises(InvalidParameter):
        Rotation(Rational(Fraction(3, 2)))


def test_rotation_isometry_and_measure_preservation():
    rot = Rotation(SQRT2M1)
    rng = np.random.default_rng(23)
    for _ in range(1000):
        x = Fraction(int(rng.integers(0, 997)), 997)
        y = Fraction(int(rng.integers(0, 997)), 997)
        d0 = rot.dist(x, y)
        d1 = rot.dist(rot.iterate(x, 1), rot.iterate(y, 1))
        assert abs(d0 - d1) <= 1e-15  # exact arithmetic underneath
        # preimage of a ball has the same measure
        assert rot.ball_measure(x, 0.03) == rot.ball_measure(rot.iterate(x, 1), 0.03)


def test_rotation_doubling_exact():
    rot = Rotation(GOLDEN)
    for eps in (0.01, 0.05, 0.12):
        assert rot.ball_measure(0, 2 * eps) == pytest.approx(
            2 * rot.ball_measure(0, eps)
        )


def test_mobius_system_basics():
    # integer translation: T(i) reduces back to i
    mob = Mobius(UnimodularMatrix(1, 1, 0, 1))
    zi = UpperHalfPoint(Fraction(0), Fraction(1))
    for p in (2, 3, 7):
        assert mob.dist(mob.iterate(zi, p), zi) == pytest.approx(0.0, abs=1e-12)
    assert first_return(mob, zi, Fraction(1, 100), cap=10) == 1


def test_mobius_isometry_on_cover_and_quotient():
    # rational matrices: exact isometries of the upper half-plane
    pts = list(_random_points(5, 101, re=(-1000, 1000), im=(800, 2000)))
    for g in (UnimodularMatrix(1, Fraction(3, 10), 0, 1),
              UnimodularMatrix(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))):
        for z, w in zip(pts, pts[1:]):
            assert cosh_dist_minus_one(g.act(z), g.act(w)) == cosh_dist_minus_one(z, w)
    # integer matrix: quotient distance preserved (inside the exact region)
    gamma = UnimodularMatrix(2, 1, 1, 1)
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = UpperHalfPoint(Fraction(int(rng.integers(-40, 40)), 100),
                           Fraction(int(rng.integers(110, 200)), 100))
        w = UpperHalfPoint(z.re + Fraction(1, 37), z.im + Fraction(1, 53))
        d0 = quotient_distance(reduce_fundamental(z), reduce_fundamental(w))
        d1 = quotient_distance(reduce_fundamental(gamma.act(z)),
                               reduce_fundamental(gamma.act(w)))
        if d0.exact_region and d1.exact_region:
            assert d1.cosh_minus_one == d0.cosh_minus_one


def test_mobius_threshold_decided_exactly():
    import mpmath

    mob = Mobius(UnimodularMatrix(1, 1, 0, 1))
    zi = UpperHalfPoint(Fraction(0), Fraction(1))
    # distance 0 against a threshold cosh(eps) - 1 below 1e-40, and a
    # threshold beyond float range
    assert prime_visit_times(mob, zi, zi, Fraction(1, 10**21), 2, 1000) == [2, 3]
    assert prime_visit_times(mob, zi, zi, 1000, 2, 1000) == [2, 3]
    # 2i and 2ci, c the 70-digit e^(1/5): distance log c, about 1e-70 off
    with mpmath.workdps(100):
        c = Fraction(mpmath.nstr(mpmath.exp(mpmath.mpf(1) / 5), 70))
        want = mpmath.log(mpmath.mpf(c.numerator) / c.denominator) < mpmath.mpf(1) / 5
    z, w = UpperHalfPoint(Fraction(0), Fraction(2)), UpperHalfPoint(Fraction(0), 2 * c)
    assert mob.ball(w, Fraction(1, 5))(z) == want


@settings(deadline=None, max_examples=200)
@given(
    eps=st.fractions(Fraction(1, 10**6), 50, max_denominator=10**6),
    digits=st.integers(0, 60),
    offset=st.integers(-2, 2),
)
def test_cosh_threshold_matches_mpmath(eps, digits, offset):
    """Rationals within a few 10^-digits of cosh(eps) - 1, on both sides."""
    import mpmath

    with mpmath.workdps(200):
        t = mpmath.cosh(mpmath.mpf(eps.numerator) / eps.denominator) - 1
        v = Fraction(int(mpmath.floor(t * 10**digits)) + offset, 10**digits)
        want = mpmath.mpf(v.numerator) / v.denominator < t
    assert _cosh_m1_lt(v, eps) == want


def test_mobius_doubling_ratio():
    for eps in (0.01, 0.05, 0.1):
        ratio = mobius_ball_measure(2 * eps) / mobius_ball_measure(eps)
        assert ratio <= 4.1
        assert ratio == pytest.approx((sinh(eps) / sinh(eps / 2)) ** 2)


def test_matrix_power_by_squaring():
    # elliptic (rotation by arctan(4/3)): binary powering against repeated
    # products, exactly
    g = UnimodularMatrix(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))
    m = UnimodularMatrix.identity()
    for p in range(1, 201):
        m = m @ g
        assert g.power(p) == m
    assert g.power(-7) @ g.power(7) == UnimodularMatrix.identity()
    # exact parabolic closed form
    shear = UnimodularMatrix(1, Fraction(3, 10), 0, 1)
    assert shear.power(100).entries() == (1, 30, 0, 1)
    assert shear.power(-2).entries() == (1, Fraction(-3, 5), 0, 1)
    # exact non-parabolic
    gm = UnimodularMatrix(2, 1, 1, 1)
    assert gm.power(3).entries() == (gm @ gm @ gm).entries()


# --- prime visits and certificates ---------------------------------------------


def test_prime_visit_shift():
    sh = Shift(4)
    assert prime_visit_times(sh, 0, 1, 0.5, 3, 10**4) == [5, 13, 17]


def test_prime_visit_rotation():
    rot = Rotation(SQRT2M1)
    assert prime_visit_times(rot, 0, Fraction(1, 2), Fraction(1, 20), 1, 100) == [23]


def test_prime_visit_whole_space():
    rot = Rotation(GOLDEN)
    assert prime_visit_times(rot, 0, Fraction(1, 4), Fraction(3, 5), 3, 100) == [2, 3, 5]


def test_shift_visits_match_pm():
    # acceptance criterion c10: every reduced class mod q <= 50, m <= 3
    from math import gcd

    for q in range(2, 51):
        sh = Shift(q)
        for a in range(1, q):
            if gcd(a, q) != 1:
                continue
            for m in (1, 2, 3):
                got = prime_visit_times(sh, 0, a, 0.5, m, 300 * m * q)
                assert tuple(got) == pm(q, a, m).primes


def test_early_visit_shift_example():
    sh = Shift(10)
    cert = early_visit_search(sh, 0, 0.5, 2, 270)
    assert cert.q_return == 10
    assert cert.a_star == 3
    assert cert.primes == (3, 13)
    assert cert.distances == (0.0, 0.0)
    assert cert.q_bound_ok
    ok, det = verify_certificate(sh, cert, 0)
    assert ok, det


def test_early_visit_rotation_golden():
    rot = Rotation(GOLDEN)
    cert = early_visit_search(rot, 0, Fraction(1, 10), 2, 270)
    assert cert.q_return == 2584  # Fibonacci
    assert all(d < 0.1 for d in cert.distances)
    assert cert.q_bound_ok and 1 / cert.mu_ball_quarter == pytest.approx(5400.0)
    ok, det = verify_certificate(rot, cert, 0)
    assert ok, det


def test_early_visit_degenerate_ball():
    rot = Rotation(GOLDEN)
    cert = early_visit_search(rot, 0, Fraction(3, 5), 2, 270)
    assert cert.degenerate and cert.primes == (2, 3) and cert.q_return == 1


def test_early_visit_mobius_shear():
    g = UnimodularMatrix(1, Fraction(3, 10), 0, 1)
    mob = Mobius(g)
    x0 = UpperHalfPoint(Fraction(0), Fraction(1))
    cert = early_visit_search(mob, x0, Fraction(2, 10), 2, 270)
    assert cert.q_return == 10
    assert cert.primes == (3, 13)
    assert cert.distances == (0.0, 0.0)
    ok, det = verify_certificate(mob, cert, x0)
    assert ok, det


def test_float_mobius_matches_exact_short_orbits():
    # float matrices are refused: their orbits drift (by 0.33 at n = 19 for
    # g = (2, 1, 1, 1)) and the visit times read off them would be wrong
    g_exact = UnimodularMatrix(1, Fraction(3, 10), 0, 1)
    with pytest.raises(InvalidParameter):
        Mobius(UnimodularMatrix(1.0, 0.3, 0.0, 1.0))
    me = Mobius(g_exact)
    zi_e = UpperHalfPoint(Fraction(0), Fraction(1))
    pe = prime_visit_times(me, zi_e, me.iterate(zi_e, 3), Fraction(1, 5), 2, 1000)
    assert pe == [3, 7]
    assert first_return(me, zi_e, Fraction(1, 1000), cap=100) == 10


def test_integer_entry_mobius_orbit_is_exact():
    # int entries are stored as Fractions, so the orbit of 2i under the
    # modular matrix (2, 1, 1, 1) returns to 2i at every step
    mob = Mobius(UnimodularMatrix(2, 1, 1, 1))
    z = UpperHalfPoint(0, 2)
    assert prime_visit_times(mob, z, z, Fraction(1, 10**6), 8, 200) == [
        2, 3, 5, 7, 11, 13, 17, 19
    ]


def _cli_certificate(capsys, *argv):
    """The certificate of the `early-visit` CLI record for argv."""
    assert main(["early-visit", *argv]) == 0
    return json.loads(capsys.readouterr().out)["certificate"]


def test_certificate_serializes_and_tamper_fails(capsys):
    doc = _cli_certificate(capsys, "--system", "shift", "--q", "10", "--x0", "0",
                           "--eps", "0.5", "--h", "270")
    assert doc["tool_version"] and doc["schema_version"] == 2
    assert doc["primes"] == [3, 13]
    sh = Shift(10)
    cert = early_visit_search(sh, 0, 0.5, 2, 270)
    bad = dataclasses.replace(cert, primes=(3, 15))  # 15 is not prime
    ok, det = verify_certificate(sh, bad, 0)
    assert not ok and det["problems"]
    bad = dataclasses.replace(cert, primes=(7, 13))  # 7 != 3 mod 10
    ok, det = verify_certificate(sh, bad, 0)
    assert not ok and det["problems"]


def test_certificate_keeps_exact_radii(capsys):
    doc = _cli_certificate(capsys, "--system", "rotation", "--alpha", "golden",
                           "--x0", "0", "--eps", "1/10", "--h", "270")
    assert doc["epsilon"] == "1/10" and Fraction(doc["epsilon"]) == Fraction(1, 10)
    assert Fraction(doc["return_threshold"]) == Fraction(1, 5400)
    cert = early_visit_search(Rotation(GOLDEN), 0, Fraction(1, 10), 2, 270)
    assert cert.epsilon == Fraction(1, 10)
    for gone in ("x0_float", "x_star_float", "certified"):
        assert gone not in doc


def test_early_visit_needs_h_for_larger_m():
    rot = Rotation(GOLDEN)
    with pytest.raises(UsageError):
        early_visit_search(rot, 0, Fraction(1, 10), 3)


def test_early_visit_honest_failure():
    # h = 1/2 cannot ever work: p_2(q, a) >= q + 2 > q h even after the
    # one allowed doubling of h
    rot = Rotation(GOLDEN)
    with pytest.raises(SearchFailed):
        early_visit_search(rot, 0, Fraction(1, 10), 2, h=0.5)


def test_kac_examples():
    rep = kac_empirical(Shift(7), 0, 0.5, 1, 100)
    assert rep.mean_return == 7.0 and rep.relative_error == 0.0
    # eps > 1: the ball is all of Z/7 and every point returns at once
    rep = kac_empirical(Shift(7), 0, 1.5, 1, 100)
    assert rep.mean_return == 1.0 == rep.target and rep.relative_error == 0.0
    assert rep.n_samples == 7

    rep = kac_empirical(
        Rotation(SQRT2M1), 0, 0.05, n_samples=10**4, cap=10**4, seed=42
    )
    assert rep.ergodic and rep.censored == 0
    assert rep.relative_error < 0.10

    rep = kac_empirical(
        Rotation(Rational(Fraction(1, 3))), 0, 0.01, 100, 100, seed=1
    )
    assert not rep.ergodic
    assert rep.mean_return == 3.0  # period-3 cycle, not mu(B)^-1


# --- fast paths against the generic scans of the base class ---------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CapExceeded:
        return "cap exceeded"


_EPS_SHIFT = st.one_of(
    st.just(Fraction(1)),
    st.fractions(min_value=Fraction(1, 100), max_value=3, max_denominator=100),
).filter(lambda e: e > 0)


@settings(deadline=None, max_examples=80)
@given(
    q=st.integers(2, 40),
    x0=st.integers(-50, 50),
    x=st.integers(-50, 50),
    eps=_EPS_SHIFT,
    m=st.integers(1, 3),
    cap=st.integers(2, 3000),
)
def test_shift_fast_paths_match_generic_scans(q, x0, x, eps, m, cap):
    sh = Shift(q)
    assert sh.first_return(x0, eps) == System.first_return(sh, x0, eps)
    assert _outcome(sh.prime_visits, x0, x, eps, m, cap) == _outcome(
        System.prime_visits, sh, x0, x, eps, m, cap
    )


@st.composite
def _angles(draw):
    """Quadratic angles a + b*sqrt(d) mod 1, and now and then a rational."""
    if draw(st.integers(0, 4)) == 0:
        den = draw(st.integers(2, 60))
        return Rational(Fraction(draw(st.integers(1, den - 1)), den))
    d = draw(st.sampled_from([2, 3, 5, 6, 7, 10, 13, 19, 2026]))
    a = draw(st.fractions(min_value=-5, max_value=5, max_denominator=50))
    b = draw(st.fractions(min_value=-5, max_value=5, max_denominator=50).filter(bool))
    alpha = QuadExt(a, b, d).frac()
    return Quadratic(alpha)


_POINTS = st.fractions(min_value=-2, max_value=2, max_denominator=200)


@settings(deadline=None, max_examples=60)
@given(
    alpha=_angles(),
    x0=_POINTS,
    x=_POINTS,
    eps=st.fractions(min_value=Fraction(1, 200), max_value=Fraction(3, 4),
                     max_denominator=400),
    m=st.integers(1, 3),
    cap=st.integers(2, 3000),
)
# every prime but 3 lands exactly on the edge of the ball, which is open
@example(alpha=Rational(Fraction(1, 3)), x0=Fraction(0), x=Fraction(0),
         eps=Fraction(1, 3), m=2, cap=100)
def test_rotation_fast_paths_match_generic_scans(alpha, x0, x, eps, m, cap):
    rot = Rotation(alpha)
    if eps < Fraction(1, 2):  # return_time's domain
        assert rot.first_return(x0, eps) == System.first_return(rot, x0, eps)
    assert _outcome(rot.prime_visits, x0, x, eps, m, cap) == _outcome(
        System.prime_visits, rot, x0, x, eps, m, cap
    )


# --- tampered return times -------------------------------------------------------


def _certificates():
    zi = UpperHalfPoint(Fraction(0), Fraction(1))
    shear = Mobius(UnimodularMatrix(1, Fraction(3, 10), 0, 1))
    rot = Rotation(GOLDEN)
    return [
        (Shift(10), 0, early_visit_search(Shift(10), 0, 0.5, 2, 270)),
        (rot, 0, early_visit_search(rot, 0, Fraction(1, 10), 2, 270)),
        (shear, zi, early_visit_search(shear, zi, Fraction(2, 10), 2, 270)),
    ]


@pytest.mark.parametrize("index", range(3), ids=["shift", "rotation", "mobius"])
def test_tampered_return_time_fails_verification(index):
    system, x0, cert = _certificates()[index]
    assert verify_certificate(system, cert, x0)[0]
    q = cert.q_return
    for tampered in (q - 1, q + 1):
        ok, det = verify_certificate(
            system, dataclasses.replace(cert, q_return=tampered), x0
        )
        assert not ok
        assert "return time does not satisfy d(T^q x0, x0) < eps/2h" in det["problems"]
    # a later return is not the first one: 2q for the shift and the shear,
    # the next Fibonacci number after 2584 for the golden rotation
    later = 4181 if index == 1 else 2 * q
    ok, det = verify_certificate(system, dataclasses.replace(cert, q_return=later), x0)
    assert not ok
    assert f"return time not minimal: n = {q} also returns" in det["problems"]
