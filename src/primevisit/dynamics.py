"""Metric systems and prime-time visits.

Three concrete systems: the right shift on Z/q (discrete metric, counting
measure), irrational circle rotations (circle metric, Lebesgue), and the
orbits of a Moebius map projected to the modular surface (quotient
hyperbolic metric, normalized hyperbolic area).  On top of them: first
return times, the m-th prime visit time to a ball, the early-visit search
that pigeonholes a prime cluster into a progression of return times, and
empirical mean-return statistics.

Each system is a class (Shift, Rotation, Mobius) whose methods carry its
geometry and its exact fast paths.  Everything a certificate depends on is
exact: shift systems are integer arithmetic; rotations with rational or
quadratic angles use quadratic-field arithmetic; Moebius systems take
`UnimodularMatrix` and `UpperHalfPoint`, whose entries are Fractions by
type, and compute orbits and distances in integers, a point z = (x + iy)/d
as (x, y, d) and a matrix over the common denominator of its entries
(parabolic powers are closed form, so orbits stay cheap).  Certificates keep
the radii they were searched at as Fractions.
"""

import json
from dataclasses import dataclass, asdict
from fractions import Fraction
from itertools import count, islice
from math import asinh, ceil, gcd, lcm, log10, sinh, sqrt
from typing import Optional

import numpy as np

from . import __version__ as _pkg_version
from .errors import (
    BudgetExceeded,
    CapExceeded,
    InvalidParameter,
    NonTermination,
    PrecisionExhausted,
    SearchFailed,
    UsageError,
)
from .exactreal import QuadExt
from .clusters import min_pm, default_cap
from .contfrac import Decimal, Rational, RealNumberSpec, return_time
from .primes import is_prime, iter_prime_segments, primes_in_ap, walk_ap

# Default cluster budget h for pair searches (m = 2); other m need an
# explicit budget of shape C * m * exp(4m).
DEFAULT_PAIR_H = 270

# Quotient distances below this are exact (minimizing translate is in the
# finite word set); larger values are flagged approximate.
INJECTIVITY_GUARD = 0.4

_REDUCE_CAP = 10_000


# ---------------------------------------------------------------------------
# hyperbolic plane and the modular quotient
# ---------------------------------------------------------------------------


def parse_fraction(text: str) -> Fraction:
    """An exact number written as an integer, a decimal or p/q; anything
    else is a UsageError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a number: {text!r}") from None


def _rational(value, name: str) -> Fraction:
    """value as a Fraction; only ints and Fractions are exact inputs."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InvalidParameter(f"{name} must be an int or a Fraction, got {value!r}")


@dataclass(frozen=True)
class UpperHalfPoint:
    """Point of the upper half-plane with exact coordinates: ints are stored
    as Fractions, anything else raises InvalidParameter."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", _rational(self.re, "re"))
        object.__setattr__(self, "im", _rational(self.im, "im"))
        if not self.im > 0:
            raise InvalidParameter(f"im must be > 0, got {self.im}")


# The kernel below works on a point z = (x + iy)/d as the integer triple
# (x, y, d); _triple gives the one triple with gcd(x, y, d) = 1 and d > 0.


def _triple(z: UpperHalfPoint) -> tuple[int, int, int]:
    re, im = z.re, z.im
    d = lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


def _point(x: int, y: int, d: int) -> UpperHalfPoint:
    return UpperHalfPoint(Fraction(x, d), Fraction(y, d))


@dataclass(frozen=True)
class UnimodularMatrix:
    """2x2 rational matrix with det exactly 1: ints are stored as
    Fractions, anything else raises InvalidParameter."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _rational(getattr(self, name), name))
        a, b, c, d, e = self._integer_form()
        if a * d - b * c != e * e:
            raise InvalidParameter(f"det = {Fraction(a * d - b * c, e * e)} != 1")

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(1, 0, 0, 1)

    def __matmul__(self, o: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def _integer_form(self) -> tuple[int, int, int, int, int]:
        """(A, B, C, D, e): the entries are A/e, B/e, C/e, D/e over their
        least common denominator e, so det = 1 reads AD - BC = e^2."""
        e = lcm(*(v.denominator for v in self.entries()))
        return (*(v.numerator * (e // v.denominator) for v in self.entries()), e)

    def act(self, z: UpperHalfPoint) -> UpperHalfPoint:
        """Moebius action (az+b)/(cz+d), exactly, in integers: with
        z = (x + iy)/d and Z = x + iy the image is (AZ + Bd)/(CZ + Dd), and
        the imaginary part of (AZ + Bd) conj(CZ + Dd) is (AD - BC) d y."""
        a, b, c, dd, e = self._integer_form()
        x, y, d = _triple(z)
        u, v = c * x + dd * d, c * y
        return _point((a * x + b * d) * u + a * y * v, e * e * d * y, u * u + v * v)

    def power(self, n: int) -> "UnimodularMatrix":
        """g^n, in integers over a power of the common denominator: closed
        form I + nN for parabolic g = s(I + N), s = +-1 (the power of the +I
        representative; the Moebius action ignores the sign), binary
        powering otherwise."""
        if n == 0:
            return UnimodularMatrix.identity()
        if n < 0:
            inv = UnimodularMatrix(self.d, -self.b, -self.c, self.a)
            return inv.power(-n)
        a, b, c, d, e = self._integer_form()
        tr = a + d  # the trace is tr/e
        if tr == 2 * e or tr == -2 * e:
            # N = s g - I has trace 0 and det 1 - s tr + 1 = 0, so N^2 = 0
            s = 1 if tr > 0 else -1
            m = (e + n * (s * a - e), n * s * b, n * s * c, e + n * (s * d - e))
        else:
            e, m = e ** n, _int_matrix_power((a, b, c, d), n)
        return UnimodularMatrix(*(Fraction(v, e) for v in m))


def _int_matrix_power(m: tuple[int, int, int, int], n: int) -> tuple[int, int, int, int]:
    """m^n for an integer 2x2 matrix (a, b, c, d) and n >= 1, by squaring."""
    def mul(p, q):
        return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
                p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])

    result = None
    while n:
        if n & 1:
            result = m if result is None else mul(result, m)
        n >>= 1
        if n:
            m = mul(m, m)
    return result


def reduce_fundamental(z: UpperHalfPoint) -> UpperHalfPoint:
    """Gauss reduction to |Re z| <= 1/2, |z| >= 1 (the standard fundamental
    domain) by the generators T^t and S, in integers; a reduced z comes back
    as itself."""
    x, y, d = _triple(z)
    for step in range(_REDUCE_CAP):
        # t = the integer nearest x/d, an exact half rounding towards zero
        t, r = divmod(2 * x + d, 2 * d)
        if r == 0 and t > 0:
            t -= 1
        x -= t * d
        n = x * x + y * y
        if n >= d * d:
            return z if step == 0 and t == 0 else _point(x, y, d)
        # S: z -> -1/z = (-x + iy) d / (x^2 + y^2)
        x, y, d = -x * d, y * d, n
        g = gcd(x, y, d)
        x, y, d = x // g, y // g, d // g
    raise NonTermination(f"reduction did not terminate within {_REDUCE_CAP} steps")


# Identity, T^{+-1}, S and their distinct length-2 words, up to sign, as
# integer (a, b, c, d).
_TRANSLATES = (
    (1, 0, 0, 1), (1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0), (1, 2, 0, 1),
    (1, -2, 0, 1), (1, -1, 1, 0), (-1, -1, 1, 0), (0, -1, 1, 1), (0, -1, 1, -1),
)


@dataclass(frozen=True)
class QuotientDistance:
    value: float
    exact_region: bool  # min < injectivity guard: exact on the quotient
    cosh_minus_one: Fraction


def quotient_distance(z: UpperHalfPoint, w: UpperHalfPoint) -> QuotientDistance:
    """min over the finite translate set of d(z, gamma w); callers reduce
    first.  Exact on the quotient whenever the minimum is below the
    injectivity-radius guard.

    Exact integer arithmetic: for det gamma = 1, cosh d(z, gamma w) - 1 =
    |z (cw + d) - (aw + b)|^2 / (2 Im z Im w).  With z = Z/d1 and w = W/d2
    (Z, W Gaussian integers) that is |N|^2 / (2 y1 y2 d1 d2), where
    N = Z (cW + d d2) - d1 (aW + b d2).  Every translate shares the
    denominator, so the minimum is taken over the integers |N|^2.
    """
    x1, y1, d1 = _triple(z)
    x2, y2, d2 = _triple(w)
    best = None
    for a, b, c, d in _TRANSLATES:
        ur, ui = c * x2 + d * d2, c * y2  # cW + d d2
        vr, vi = a * x2 + b * d2, a * y2  # aW + b d2
        nr = x1 * ur - y1 * ui - d1 * vr
        ni = x1 * ui + y1 * ur - d1 * vi
        n = nr * nr + ni * ni
        if best is None or n < best:
            best = n
    cosh_m1 = Fraction(best, 2 * y1 * y2 * d1 * d2)
    try:
        val = 2.0 * asinh(sqrt(float(cosh_m1) / 2.0))
    except OverflowError:
        # digits from logs: str() refuses ints of more than 4,300 digits
        digits = int(log10(cosh_m1.numerator) - log10(cosh_m1.denominator)) + 1
        raise BudgetExceeded(
            f"cosh d - 1 (a {digits}-digit number) left float range: a point "
            "lies deep in the cusp"
        ) from None
    return QuotientDistance(
        value=val, exact_region=val < INJECTIVITY_GUARD, cosh_minus_one=cosh_m1
    )


def _cosh_m1_lt(value: Fraction, eps: Fraction) -> bool:
    """Certified cosh(d) - 1 < cosh(eps) - 1, given value = cosh(d) - 1.

    Sums cosh(eps) - 1 = sum_{n>=1} eps^(2n)/(2n)! in integers over the
    common denominator q^n (2n)!.  A partial sum above the value answers
    True.  Once the term ratio is at most 1/2 (it falls with n) the tail is
    at most twice the next term, and a partial sum plus that bound at or
    below the value answers False.  For rational eps != 0 the threshold is
    transcendental (Lindemann-Weierstrass), so it is never equal to the
    value; the work is bounded by refusing values within 2^-(4b + 64) of
    it, b the inputs' bit size.
    """
    a, b = value.as_integer_ratio()  # value = a/b
    p, q = eps.numerator ** 2, eps.denominator ** 2  # eps^2 = p/q
    floor_bits = 4 * sum(x.bit_length() for x in (a, b, p, q)) + 64
    s = t = p  # partial sum s/den and its last term t/den
    den = 2 * q
    for n in count(1):
        if s * b > a * den:
            return True
        m = q * (2 * n + 1) * (2 * n + 2)  # term n+1 = term n * p/m
        s, t, den = s * m, t * p, den * m
        if 2 * p <= m:  # t/den is now the next term, and the tail <= 2t/den
            if (s + 2 * t) * b <= a * den:
                return False
            if (2 * t) << floor_bits < den:
                raise PrecisionExhausted("distance too close to the threshold to decide")
        s += t


# ---------------------------------------------------------------------------
# the systems
# ---------------------------------------------------------------------------


def _to_eps_fraction(epsilon: Fraction) -> Fraction:
    """The radius as searched; an int or float is taken at its exact value."""
    eps = Fraction(epsilon)
    if eps <= 0:
        raise UsageError(f"epsilon must be > 0, got {float(eps)}")
    return eps


class System:
    """A metric space with ball measures and an orbit n -> T^n x.

    For the shift and the rotations T is a measure-preserving isometry of
    the space; a Mobius system is the projected orbit described in Mobius.

    Each subclass has `description` and these methods: iterate(x, n) = T^n x
    (closed forms or matrix powers, not repeated composition); dist(x, y), a
    float; ball(x, eps), the test y -> d(y, x) < eps of the open ball
    B(x; eps), the one certified comparison that searches and certificate
    checks use; ball_measure(x, eps) in [0, 1]; point_repr(x) for
    certificates; and parse_point(text), which reads a point from CLI text
    and answers malformed text with a UsageError.  The scans below are
    generic; a subclass overrides them where it has an exact fast path.
    """

    description: str

    def first_return(self, x0, eps: Fraction, cap: Optional[int] = None) -> int:
        """Least n >= 1 with d(T^n x0, x0) < eps, by scanning n = 1..cap;
        the default cap is twice the recurrence bound mu(B(x0; eps/2))^-1."""
        mu = self.ball_measure(x0, float(eps) / 2.0)
        if cap is None:
            if mu <= 0:
                raise InvalidParameter("ball has measure zero at this radius")
            cap = max(1000, ceil(2.0 / mu))
        inside = self.ball(x0, eps)
        for n in range(1, cap + 1):
            try:
                if inside(self.iterate(x0, n)):
                    return n
            except BudgetExceeded as exc:
                raise BudgetExceeded(f"at step n = {n}, {exc}") from exc
        raise CapExceeded(
            f"no return within {cap} steps (recurrence bound mu(B(x0; eps/2))^-1 "
            f"= {1.0 / mu:.3g})"
        )

    def prime_visits(self, x0, x, eps: Fraction, m: int, cap: int) -> list[int]:
        """The m smallest primes p <= cap with d(T^p x0, x) < eps, by testing
        every prime in turn."""
        inside = self.ball(x, eps)
        found = []
        for seg in iter_prime_segments(2, cap + 1):
            for p in map(int, seg.primes()):
                if inside(self.iterate(x0, p)):
                    found.append(p)
                    if len(found) == m:
                        return found
        raise CapExceeded(f"only {len(found)} prime visits up to {cap}")

    def kac(self, x0, eps: float, target: float, n_samples: int, cap: int,
            seed: int) -> "KacReport":
        """Mean return time of points sampled in B(x0; eps), against target
        = mu(B)^-1; implemented by the systems that can sample their balls."""
        raise UsageError("empirical mean returns implemented for shift and rotation")


class Shift(System):
    """X = Z/q with the discrete metric, counting measure / q, T: a -> a+1.

    Every eps in (0, 1] gives the same balls (single points); eps > 1 makes
    the ball all of X.
    """

    def __init__(self, q: int):
        if q < 2:
            raise InvalidParameter(f"need q >= 2, got {q}")
        self.q = q
        self.description = f"right shift on Z/{q}"

    def iterate(self, x, n):
        return (x + n) % self.q

    def dist(self, x, y) -> float:
        return 0.0 if (x - y) % self.q == 0 else 1.0

    def ball(self, x, eps):
        return lambda y: self.dist(y, x) < eps

    def ball_measure(self, x, eps) -> float:
        return 1.0 / self.q if eps <= 1 else 1.0

    def point_repr(self, x) -> str:
        return str(int(x))

    def parse_point(self, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"a shift point is an integer, got {text!r}") from None

    def first_return(self, x0, eps: Fraction, cap: Optional[int] = None) -> int:
        return self.q if eps <= 1 else 1

    def prime_visits(self, x0, x, eps: Fraction, m: int, cap: int) -> list[int]:
        """Visits to a point are the primes in one progression mod q: its
        first m primes, walked, for a reduced class; a class that is not
        reduced holds at most one prime."""
        if eps > 1:
            return super().prime_visits(x0, x, eps, m, cap)
        r = (x - x0) % self.q
        if gcd(r, self.q) == 1:
            found = list(islice(walk_ap(self.q, r, cap), m))
        else:
            found = primes_in_ap(self.q, r, cap)[:m]
        if len(found) < m:
            raise CapExceeded(f"only {len(found)} prime visits up to {cap}")
        return found

    def kac(self, x0, eps, target, n_samples, cap, seed) -> "KacReport":
        # every point of the ball ({x0}, or all of Z/q once eps > 1) returns
        # after first_return steps
        tau = self.first_return(x0, eps)
        return KacReport(
            mean_return=float(tau), target=target,
            relative_error=abs(tau - target) / target,
            n_samples=1 if eps <= 1 else self.q, censored=0, ergodic=True,
            note="deterministic cycle",
        )


def _circle_point(x) -> QuadExt:
    if isinstance(x, QuadExt):
        return x.frac()
    return QuadExt(Fraction(x)).frac()


class Rotation(System):
    """X = [0, 1) with the circle metric ||x - y||, Lebesgue measure,
    T: x -> x + alpha mod 1.

    Rational and quadratic angles are exact; decimal literals are taken at
    their exact rational value (the rotation by that rational).
    """

    def __init__(self, alpha: RealNumberSpec):
        if isinstance(alpha, Decimal):
            alpha = Rational(alpha.value)
        a = alpha.exact_value()
        if a is None:
            raise InvalidParameter("rotation needs a rational/quadratic/decimal angle")
        if not (QuadExt(0) < a and a < QuadExt(1)):
            raise InvalidParameter("alpha must lie in (0, 1)")
        self.alpha = alpha
        self.a = a
        self.description = f"circle rotation by {alpha.describe()}"

    def iterate(self, x, n) -> QuadExt:
        return (_circle_point(x) + self.a * n).frac()

    def dist(self, x, y) -> float:
        return float((_circle_point(x) - _circle_point(y)).dist_to_nearest_int())

    def ball(self, x, eps):
        # y is an orbit point (a QuadExt) or a rational; ||y - x|| does not
        # need y reduced mod 1
        centre, eps = _circle_point(x), Fraction(eps)
        return lambda y: (centre - y).dist_to_nearest_int() < eps

    def ball_measure(self, x, eps) -> float:
        return min(2.0 * float(eps), 1.0)

    def point_repr(self, x) -> str:
        return repr(_circle_point(x))

    def parse_point(self, text: str) -> Fraction:
        return parse_fraction(text)

    def first_return(self, x0, eps: Fraction, cap: Optional[int] = None) -> int:
        # returns of a rotation do not depend on the base point
        return return_time(self.alpha, eps).tau

    def prime_visits(self, x0, x, eps: Fraction, m: int, cap: int) -> list[int]:
        """Float prescan over all primes <= cap with exact confirmation of
        every candidate within the error margin; nothing outside the margin
        can pass."""
        af = float(self.alpha)
        x0q = _circle_point(x0)
        x0f, xf, eps_f = float(x0q), float(_circle_point(x)), float(eps)
        inside = self.ball(x, eps)

        found = []
        for seg in iter_prime_segments(2, cap + 1):
            ps = seg.primes()
            pos = np.mod(x0f + ps.astype(np.float64) * af, 1.0)
            d = np.abs(pos - xf)
            d = np.minimum(d, 1.0 - d)
            margin = float(seg.hi) * 2.0 ** -50 + 1e-12
            for p in map(int, ps[d < eps_f + margin]):
                if inside(x0q + self.a * p):
                    found.append(p)
                    if len(found) == m:
                        return found
        raise CapExceeded(f"only {len(found)} prime visits up to {cap}")

    def kac(self, x0, eps, target, n_samples, cap, seed) -> "KacReport":
        """One sample uniform in each of n_samples equal sub-arcs of the
        arc, stepped in floats: the statistic needs no certification.

        For small alpha the return time is 1 on most of the arc and about
        1/alpha on a thin strip; stratifying keeps the share of samples in
        that strip fixed, where iid draws let the mean stray by over 10%
        on some seeds.
        """
        ergodic = not self.a.is_rational
        af = float(self.alpha)
        x0f = float(_circle_point(x0))
        rng = np.random.default_rng(seed)
        u = (np.arange(n_samples) + rng.random(n_samples)) / n_samples
        samples = np.mod(x0f + eps * (2.0 * u - 1.0), 1.0)

        # step all samples together until each has returned to the arc
        pos = samples.copy()
        times = np.zeros(n_samples, dtype=np.int64)
        active = np.ones(n_samples, dtype=bool)
        for n in range(1, cap + 1):
            pos[active] = np.mod(pos[active] + af, 1.0)
            d = np.abs(pos[active] - x0f)
            d = np.minimum(d, 1.0 - d)
            back = d < eps
            idx = np.flatnonzero(active)[back]
            times[idx] = n
            active[idx] = False
            if not active.any():
                break
        censored = int(active.sum())
        returned = times[times > 0]
        mean = float(returned.mean()) if len(returned) else float("inf")
        return KacReport(
            mean_return=mean,
            target=target,
            relative_error=abs(mean - target) / target,
            n_samples=n_samples,
            censored=censored,
            ergodic=ergodic,
            note="" if ergodic else "rational angle: system not ergodic",
        )


def mobius_ball_measure(eps: float) -> float:
    """Normalized area of an embedded eps-ball: 4 pi sinh^2(eps/2) over the
    covolume pi/3, i.e. 12 sinh^2(eps/2)."""
    return min(12.0 * sinh(eps / 2.0) ** 2, 1.0)


class Mobius(System):
    """X = fundamental domain of the modular group, quotient hyperbolic
    distance, normalized hyperbolic measure (density (3/pi) y^-2).

    The system computes the projected orbit: T^n x is g^n x on the upper
    half-plane, reduced back to the fundamental domain.  Only g in PSL2(Z)
    passes to the surface, and it fixes every point there; for any other g
    the orbit is not that of a map of X, isometric or measure-preserving.
    The orbit is exact because g is: float matrix powers would drift from
    the true orbit within a few dozen steps.  Orbits and distances are
    exact integer arithmetic (see UnimodularMatrix.act, reduce_fundamental
    and quotient_distance).
    """

    def __init__(self, g: UnimodularMatrix):
        self.g = g
        self.description = (
            f"Moebius action by {tuple(map(float, g.entries()))} on the modular surface"
        )

    def iterate(self, x, n) -> UpperHalfPoint:
        return reduce_fundamental(self.g.power(n).act(x))

    def dist(self, x, y) -> float:
        return quotient_distance(reduce_fundamental(x), reduce_fundamental(y)).value

    def ball(self, x, eps):
        # the centre is reduced once for every point tested against it
        centre, eps = reduce_fundamental(x), Fraction(eps)
        return lambda y: _cosh_m1_lt(
            quotient_distance(reduce_fundamental(y), centre).cosh_minus_one, eps
        )

    def ball_measure(self, x, eps) -> float:
        return mobius_ball_measure(float(eps))

    def point_repr(self, x) -> str:
        return f"({x.re!r}, {x.im!r})"

    def parse_point(self, text: str) -> UpperHalfPoint:
        parts = text.split(",")
        if len(parts) != 2:
            raise UsageError(f"a Moebius point is re,im, got {text!r}")
        return UpperHalfPoint(*map(parse_fraction, parts))


# ---------------------------------------------------------------------------
# first returns, prime visits, early-visit certificates
# ---------------------------------------------------------------------------


def first_return(
    system: System, x0, epsilon: Fraction, cap: Optional[int] = None
) -> int:
    """Least n >= 1 with d(T^n x0, x0) < eps.

    Guaranteed to exist with n <= mu(B(x0; eps/2))^-1 by recurrence
    (pigeonhole).
    """
    return system.first_return(x0, _to_eps_fraction(epsilon), cap)


def prime_visit_times(
    system: System, x0, x, epsilon: Fraction, m: int, cap: int
) -> list[int]:
    """The m smallest primes p <= cap with d(T^p x0, x) < eps."""
    eps = _to_eps_fraction(epsilon)
    if m < 1:
        raise UsageError(f"need m >= 1, got {m}")
    return system.prime_visits(x0, x, eps, m, cap)


@dataclass(frozen=True)
class EarlyVisitCertificate:
    """Self-contained record of one early-visit search: the return time q,
    the winning residue a*, the target x* = T^{a*} x0, and the m primes whose
    orbit points all land within eps of x*.  Everything re-verifies from
    scratch via verify_certificate.

    Schema 2: `epsilon` and `return_threshold` are the exact radii searched,
    written to JSON as "p/q" strings; `distances` and `mu_ball_quarter` are
    floats that verify_certificate does not read."""

    system: str
    x0_repr: str
    epsilon: Fraction
    m: int
    h: float
    q_return: int
    a_star: int
    x_star_repr: str
    primes: tuple[int, ...]
    distances: tuple[float, ...]
    q_bound_ok: bool
    mu_ball_quarter: float  # mu(B(x0; eps/4h))
    return_threshold: Fraction  # eps / 2h (eps for a degenerate ball)
    degenerate: bool = False  # ball was the whole space
    tool_version: str = _pkg_version
    schema_version: int = 2

    def to_json(self) -> str:
        d = asdict(self)
        d["primes"] = list(self.primes)
        d["distances"] = list(self.distances)
        for key in ("epsilon", "return_threshold"):
            d[key] = f"{d[key].numerator}/{d[key].denominator}"
        d["tolerances"] = {"injectivity_guard": INJECTIVITY_GUARD}
        return json.dumps(d, sort_keys=True)


def early_visit_search(
    system: System,
    x0,
    epsilon: Fraction,
    m: int,
    h: Optional[float] = None,
    cap: Optional[int] = None,
) -> EarlyVisitCertificate:
    """Find a point x* whose eps-ball the orbit visits at m early primes.

    Recipe: q = first return of x0 to within eps/2h; a* = argmin of p_m(q, a)
    over reduced residues; x* = T^{a*} x0.  Every certificate distance is
    verified directly with certified arithmetic.  If p_m(q, a*) > q h or a
    distance check fails, h is doubled and the search re-runs once; a second
    failure raises SearchFailed (success is only guaranteed for small eps).
    """
    eps = _to_eps_fraction(epsilon)
    if m < 1:
        raise UsageError(f"need m >= 1, got {m}")
    if h is None:
        if m == 2:
            h = float(DEFAULT_PAIR_H)
        else:
            raise UsageError(
                "h budget required for m != 2 (shape C * m * exp(4m))"
            )
    if not h > 0:
        raise UsageError(f"need h > 0, got {h}")

    last_fail = None
    for h_try in (h, 2 * h):
        try:
            return _early_visit_once(system, x0, eps, m, h_try, cap)
        except SearchFailed as exc:
            last_fail = exc
    raise SearchFailed(
        f"search failed at h = {h} and after doubling to {2 * h}: {last_fail}"
    )


def _early_visit_once(
    system: System, x0, eps: Fraction, m: int, h: float, cap: Optional[int]
) -> EarlyVisitCertificate:
    h_frac = Fraction(h)
    mu_quarter = system.ball_measure(x0, float(eps / (4 * h_frac)))

    # degenerate: the eps-ball is (essentially) the whole space, so q = 1,
    # x* = x0 and any m primes work; their distances are still verified
    degenerate = system.ball_measure(x0, float(eps)) >= 1.0
    if degenerate:
        threshold, q = eps, 1
    else:
        threshold = eps / (2 * h_frac)
        q = first_return(system, x0, threshold, cap=cap)

    if q == 1:
        a_star, primes = 0, primes_in_ap(1, 0, max(100, 20 * m) - 1)[:m]
        p_m_val = primes[-1]
    else:
        pm_cap = max(default_cap(q, m), int(ceil(h * q)) + q)
        try:
            a_star, res = min_pm(q, m, cap=pm_cap)
        except CapExceeded as exc:
            # no residue class completes below the budget: a genuine search
            # failure (retryable at 2h), not a caller-side cap problem
            raise SearchFailed(
                f"min_pm found no {m}-cluster below {pm_cap} for q={q}"
            ) from exc
        primes = list(res.primes)
        p_m_val = res.p_m

    if not degenerate and p_m_val > h * q:
        raise SearchFailed(
            f"p_m(q={q}, a*={a_star}) = {p_m_val} exceeds budget h*q = {h * q:g}"
        )

    x_star = x0 if degenerate else system.iterate(x0, a_star)
    inside = system.ball(x_star, eps)
    dists = []
    for p in primes:
        xp = system.iterate(x0, p)
        if not inside(xp):
            raise SearchFailed(
                f"degenerate ball but d(T^{p} x0, x0) >= eps (boundary tie)"
                if degenerate else
                f"verification failed: d(T^{p} x0, x*) = "
                f"{system.dist(xp, x_star):.6g} >= eps = {float(eps):.6g}"
            )
        dists.append(system.dist(xp, x_star))

    return EarlyVisitCertificate(
        system=system.description,
        x0_repr=system.point_repr(x0),
        epsilon=eps,
        m=m,
        h=h,
        q_return=q,
        a_star=a_star,
        x_star_repr=system.point_repr(x_star),
        primes=tuple(primes),
        distances=tuple(dists),
        q_bound_ok=degenerate or (mu_quarter > 0 and q <= 1.0 / mu_quarter),
        mu_ball_quarter=mu_quarter,
        return_threshold=threshold,
        degenerate=degenerate,
    )


def verify_certificate(
    system: System, cert: EarlyVisitCertificate, x0
) -> tuple[bool, dict]:
    """Recompute everything in the certificate from scratch, at the exact
    radii it records."""
    eps = cert.epsilon
    problems = []
    if not cert.degenerate:
        thr = cert.return_threshold
        if not system.ball(x0, thr)(system.iterate(x0, cert.q_return)):
            problems.append("return time does not satisfy d(T^q x0, x0) < eps/2h")
        else:
            # T^q returns, so the first return is some n <= q
            n = system.first_return(x0, thr, cap=cert.q_return)
            if n != cert.q_return:
                problems.append(f"return time not minimal: n = {n} also returns")
    inside = system.ball(system.iterate(x0, cert.a_star), eps)
    for p in cert.primes:
        if not is_prime(p):
            problems.append(f"{p} is not prime")
        if cert.q_return > 1 and p % cert.q_return != cert.a_star % cert.q_return:
            problems.append(f"{p} != a* mod q")
        if not cert.degenerate and p > cert.h * cert.q_return:
            problems.append(f"{p} exceeds q*h")
        if not inside(system.iterate(x0, p)):
            problems.append(f"d(T^{p} x0, x*) >= eps")
    return (not problems), {"problems": problems}


# ---------------------------------------------------------------------------
# empirical mean return times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KacReport:
    mean_return: float
    target: float  # mu(B)^-1
    relative_error: float
    n_samples: int
    censored: int  # samples that never returned within the cap
    ergodic: bool
    note: str = ""


def kac_empirical(
    system: System,
    x0,
    epsilon: float,
    n_samples: int,
    cap: int,
    seed: int = 0,
) -> KacReport:
    """Sample points of B(x0; eps), measure each one's first return to the
    ball, compare the mean to mu(B)^-1 (the ergodic expectation)."""
    if n_samples < 1 or cap < 1:
        raise UsageError(
            f"need n_samples >= 1 and cap >= 1, got {n_samples} and {cap}"
        )
    eps_f = float(epsilon)
    mu = system.ball_measure(x0, eps_f)
    if mu <= 0:
        raise InvalidParameter("ball has measure zero")
    return system.kac(x0, eps_f, 1.0 / mu, n_samples, cap, seed)
