"""Metric-measure-preserving systems and prime-time visits.

Three concrete systems: the right shift on Z/q (discrete metric, counting
measure), irrational circle rotations (circle metric, Lebesgue), and Moebius
actions on the modular surface (quotient hyperbolic metric, normalized
hyperbolic area).  On top of them: first return times, the m-th prime visit
time to a ball, the early-visit search that pigeonholes a prime cluster into
a progression of return times, and empirical mean-return statistics.

Each system is a class (Shift, Rotation, Mobius) whose methods carry its
geometry and its exact fast paths.  Everything a certificate depends on is
exact: shift systems are integer arithmetic; rotations with rational or
quadratic angles use quadratic-field arithmetic; Moebius systems use
`UnimodularMatrix` and `UpperHalfPoint`, whose entries are Fractions by type
(parabolic powers are closed form, so orbits stay cheap).  Certificates keep
the radii they were searched at as Fractions.
"""

import json
from dataclasses import dataclass, asdict
from fractions import Fraction
from itertools import count
from math import asinh, ceil, sinh, sqrt
from typing import Optional

import numpy as np

from . import __version__ as _pkg_version
from .errors import (
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
from .primes import is_prime, iter_prime_segments, primes_in_ap

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

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im


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
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise InvalidParameter(f"det = {det} != 1")

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

    def act(self, z: UpperHalfPoint) -> UpperHalfPoint:
        """Moebius action (az+b)/(cz+d), exactly."""
        x, y = z.re, z.im
        u = self.c * x + self.d
        v = self.c * y
        den = u * u + v * v
        re = ((self.a * x + self.b) * u + self.a * y * v) / den
        im = y / den  # det = 1
        return UpperHalfPoint(re, im)

    def power(self, n: int) -> "UnimodularMatrix":
        """g^n: closed form I + nN for parabolic g = s(I + N), s = +-1 (the
        power of the +I representative; the Moebius action ignores the
        sign), binary powering otherwise."""
        if n == 0:
            return UnimodularMatrix.identity()
        if n < 0:
            inv = UnimodularMatrix(self.d, -self.b, -self.c, self.a)
            return inv.power(-n)
        tr = self.a + self.d
        if tr == 2 or tr == -2:
            # N = s g - I has trace 0 and det 1 - s tr + 1 = 0, so N^2 = 0
            s = 1 if tr == 2 else -1
            return UnimodularMatrix(
                1 + n * (s * self.a - 1), n * s * self.b, n * s * self.c,
                1 + n * (s * self.d - 1),
            )
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result @ base
            n >>= 1
            if n:
                base = base @ base
        return result


def cosh_dist_minus_one(z: UpperHalfPoint, w: UpperHalfPoint) -> Fraction:
    """cosh d(z, w) - 1 = |z - w|^2 / (2 Im z Im w), exactly."""
    dx = z.re - w.re
    dy = z.im - w.im
    return (dx * dx + dy * dy) / (2 * z.im * w.im)


def hyp_distance(z: UpperHalfPoint, w: UpperHalfPoint) -> float:
    """Hyperbolic distance in the upper half-plane."""
    v = float(cosh_dist_minus_one(z, w))
    # acosh(1 + v), stable for small v
    return 2.0 * asinh(sqrt(v / 2.0))


def _round_half(x: Fraction) -> int:
    """Nearest integer (half rounds down)."""
    f = x + Fraction(1, 2)
    n = f.numerator // f.denominator
    if f == n:  # exactly .5: prefer the smaller shift
        return n - 1 if n > 0 else n
    return n


@dataclass(frozen=True)
class ReducedPoint:
    point: UpperHalfPoint
    word: str  # generators applied, e.g. "T^-5 S T^1"
    gamma: UnimodularMatrix  # integer matrix with gamma(input) = point


def reduce_fundamental(z: UpperHalfPoint, cap: int = _REDUCE_CAP) -> ReducedPoint:
    """Gauss reduction to |Re z| <= 1/2, |z| >= 1 (the standard fundamental
    domain), tracking the word of generators applied."""
    S = UnimodularMatrix(0, -1, 1, 0)
    gamma = UnimodularMatrix.identity()
    words: list[str] = []
    cur = z
    for _ in range(cap):
        t = _round_half(cur.re)
        if t != 0:
            shift = UnimodularMatrix(1, -t, 0, 1)
            cur = shift.act(cur)
            gamma = shift @ gamma
            words.append(f"T^{-t}")
        if cur.norm_sq() < 1:
            cur = S.act(cur)
            gamma = S @ gamma
            words.append("S")
        else:
            return ReducedPoint(cur, " ".join(words), gamma)
    raise NonTermination(f"reduction did not terminate within {cap} steps")


def _translate_set() -> tuple[UnimodularMatrix, ...]:
    """Identity, T^{+-1}, S and their distinct length-2 words (actions
    deduplicated up to sign)."""
    T = UnimodularMatrix(1, 1, 0, 1)
    Ti = UnimodularMatrix(1, -1, 0, 1)
    S = UnimodularMatrix(0, -1, 1, 0)
    gens = [T, Ti, S]
    out = [UnimodularMatrix.identity()] + gens
    for g1 in gens:
        for g2 in gens:
            out.append(g1 @ g2)
    seen = {}
    for m in out:
        key = m.entries()
        neg = tuple(-v for v in key)
        if key not in seen and neg not in seen:
            seen[key] = m
    return tuple(seen.values())


_TRANSLATES = _translate_set()


@dataclass(frozen=True)
class QuotientDistance:
    value: float
    exact_region: bool  # min < injectivity guard: exact on the quotient
    cosh_minus_one: Fraction


def quotient_distance(z: UpperHalfPoint, w: UpperHalfPoint) -> QuotientDistance:
    """min over the finite translate set of d(z, gamma w); callers reduce
    first.  Exact on the quotient whenever the minimum is below the
    injectivity-radius guard."""
    best = None
    for g in _TRANSLATES:
        v = cosh_dist_minus_one(z, g.act(w))
        if best is None or v < best:
            best = v
    val = 2.0 * asinh(sqrt(float(best) / 2.0))
    return QuotientDistance(
        value=val, exact_region=val < INJECTIVITY_GUARD, cosh_minus_one=best
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
    """A metric space with a measure-preserving isometry T and ball measures.

    Each subclass has `description` and these methods: iterate(x, n) = T^n x
    (closed forms or matrix powers, not repeated composition); dist(x, y), a
    float; dist_lt(x, y, eps), the certified comparison d(x, y) < eps that
    searches and certificate checks use; ball_measure(x, eps) in [0, 1];
    point_repr(x) for certificates; and parse_point(text), which reads a
    point from CLI text and answers malformed text with a UsageError.  The
    scans below are generic; a subclass overrides them where it has an exact
    fast path.
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
        for n in range(1, cap + 1):
            if self.dist_lt(self.iterate(x0, n), x0, eps):
                return n
        raise CapExceeded(
            f"no return within {cap} steps (recurrence bound mu(B(x0; eps/2))^-1 "
            f"= {1.0 / mu:.3g})",
            cap=cap,
            context={"system": self.description, "epsilon": float(eps)},
        )

    def prime_visits(self, x0, x, eps: Fraction, m: int, cap: int) -> list[int]:
        """The m smallest primes p <= cap with d(T^p x0, x) < eps, by testing
        every prime in turn."""
        found = []
        for seg in iter_prime_segments(2, cap + 1):
            for p in map(int, seg.primes()):
                if self.dist_lt(self.iterate(x0, p), x, eps):
                    found.append(p)
                    if len(found) == m:
                        return found
        raise CapExceeded(f"only {len(found)} prime visits up to {cap}", cap=cap)

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

    def dist_lt(self, x, y, eps) -> bool:
        return self.dist(x, y) < eps

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
        """Visits to a point are the primes in one progression mod q."""
        if eps > 1:
            return super().prime_visits(x0, x, eps, m, cap)
        found = primes_in_ap(self.q, (x - x0) % self.q, cap)[:m]
        if len(found) < m:
            raise CapExceeded(f"only {len(found)} prime visits up to {cap}", cap=cap)
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

    def _dist_exact(self, x, y) -> QuadExt:
        return (_circle_point(x) - _circle_point(y)).dist_to_nearest_int()

    def dist(self, x, y) -> float:
        return float(self._dist_exact(x, y))

    def dist_lt(self, x, y, eps) -> bool:
        return self._dist_exact(x, y) < Fraction(eps)

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
        xq = _circle_point(x)
        x0f, xf, eps_f = float(x0q), float(xq), float(eps)

        found = []
        for seg in iter_prime_segments(2, cap + 1):
            ps = seg.primes()
            pos = np.mod(x0f + ps.astype(np.float64) * af, 1.0)
            d = np.abs(pos - xf)
            d = np.minimum(d, 1.0 - d)
            margin = float(seg.hi) * 2.0 ** -50 + 1e-12
            for p in map(int, ps[d < eps_f + margin]):
                if (x0q + self.a * p - xq).dist_to_nearest_int() < eps:
                    found.append(p)
                    if len(found) == m:
                        return found
        raise CapExceeded(f"only {len(found)} prime visits up to {cap}", cap=cap)

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
    distance, normalized hyperbolic measure (density (3/pi) y^-2); the map
    is z -> g z with orbits computed by matrix powers and reduced back to
    the fundamental domain.  The orbit is exact because g is: float matrix
    powers would drift from the true orbit within a few dozen steps.
    """

    def __init__(self, g: UnimodularMatrix):
        self.g = g
        self.description = (
            f"Moebius action by {tuple(map(float, g.entries()))} on the modular surface"
        )

    def iterate(self, x, n) -> UpperHalfPoint:
        return reduce_fundamental(self.g.power(n).act(x)).point

    def _quotient_distance(self, x, y) -> QuotientDistance:
        return quotient_distance(
            reduce_fundamental(x).point, reduce_fundamental(y).point
        )

    def dist(self, x, y) -> float:
        return self._quotient_distance(x, y).value

    def dist_lt(self, x, y, eps) -> bool:
        return _cosh_m1_lt(self._quotient_distance(x, y).cosh_minus_one, Fraction(eps))

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


def _first_m_primes(m: int) -> list[int]:
    out = []
    for seg in iter_prime_segments(2, max(100, 20 * m)):
        out.extend(map(int, seg.primes()))
        if len(out) >= m:
            return out[:m]
    return out[:m]


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

    last_fail = None
    for h_try in (h, 2 * h):
        try:
            return _early_visit_once(system, x0, eps, m, h_try, cap)
        except SearchFailed as exc:
            last_fail = exc
    raise SearchFailed(
        f"search failed at h = {h} and after doubling to {2 * h}: {last_fail}",
        detail=getattr(last_fail, "detail", {}),
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
        a_star, primes = 0, _first_m_primes(m)
        p_m_val = primes[-1]
    else:
        pm_cap = max(default_cap(q, m), int(ceil(h * q)) + q)
        try:
            a_star, res = min_pm(q, m, cap=pm_cap)
        except CapExceeded as exc:
            # no residue class completes below the budget: a genuine search
            # failure (retryable at 2h), not a caller-side cap problem
            raise SearchFailed(
                f"min_pm found no {m}-cluster below {pm_cap} for q={q}",
                detail={"q": q, "cap": pm_cap},
            ) from exc
        primes = list(res.primes)
        p_m_val = res.p_m

    if not degenerate and p_m_val > h * q:
        raise SearchFailed(
            f"p_m(q={q}, a*={a_star}) = {p_m_val} exceeds budget h*q = {h * q:g}",
            detail={"q": q, "a_star": a_star, "p_m": p_m_val, "h": h},
        )

    x_star = x0 if degenerate else system.iterate(x0, a_star)
    dists = []
    for p in primes:
        xp = system.iterate(x0, p)
        if not system.dist_lt(xp, x_star, eps):
            raise SearchFailed(
                f"degenerate ball but d(T^{p} x0, x0) >= eps (boundary tie)"
                if degenerate else
                f"verification failed: d(T^{p} x0, x*) = "
                f"{system.dist(xp, x_star):.6g} >= eps = {float(eps):.6g}",
                detail={"q": q, "a_star": a_star, "prime": p},
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
        if not system.dist_lt(system.iterate(x0, cert.q_return), x0, thr):
            problems.append("return time does not satisfy d(T^q x0, x0) < eps/2h")
        else:
            # T^q returns, so the first return is some n <= q
            n = system.first_return(x0, thr, cap=cert.q_return)
            if n != cert.q_return:
                problems.append(f"return time not minimal: n = {n} also returns")
    x_star = system.iterate(x0, cert.a_star)
    for p in cert.primes:
        if not is_prime(p):
            problems.append(f"{p} is not prime")
        if cert.q_return > 1 and p % cert.q_return != cert.a_star % cert.q_return:
            problems.append(f"{p} != a* mod q")
        if not cert.degenerate and p > cert.h * cert.q_return:
            problems.append(f"{p} exceeds q*h")
        if not system.dist_lt(system.iterate(x0, p), x_star, eps):
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
    eps_f = float(epsilon)
    mu = system.ball_measure(x0, eps_f)
    if mu <= 0:
        raise InvalidParameter("ball has measure zero")
    return system.kac(x0, eps_f, 1.0 / mu, n_samples, cap, seed)
