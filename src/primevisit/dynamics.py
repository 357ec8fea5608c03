"""Metric-measure-preserving systems and prime-time visits.

Three concrete systems: the right shift on Z/q (discrete metric, counting
measure), irrational circle rotations (circle metric, Lebesgue), and Moebius
actions on the modular surface (quotient hyperbolic metric, normalized
hyperbolic area).  On top of them: first return times, the m-th prime visit
time to a ball, the early-visit search that pigeonholes a prime cluster into
a progression of return times, and empirical mean-return statistics.

Certification strategy: shift systems are integer arithmetic; rotations with
rational/quadratic angles use exact quadratic-field arithmetic; Moebius
systems with rational matrices use exact Fraction points (parabolic powers
are closed form, so orbits stay cheap).  Float matrices fall back to float
matrix powers (renormalizing the determinant), adequate for short orbits
only.
"""

import json
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from math import asinh, ceil, cosh, sinh, sqrt
from typing import Callable, Optional, Union

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
from .contfrac import RealNumberSpec, return_time
from .primes import is_prime, iter_prime_segments, primes_in_ap

Scalar = Union[int, float, Fraction]

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


@dataclass(frozen=True)
class UpperHalfPoint:
    """Point of the upper half-plane; exact when both coordinates are
    Fractions."""

    re: Scalar
    im: Scalar

    def __post_init__(self):
        if not self.im > 0:
            raise InvalidParameter(f"im must be > 0, got {self.im}")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.re, (int, Fraction)) and isinstance(
            self.im, (int, Fraction)
        )

    def floats(self) -> tuple[float, float]:
        return float(self.re), float(self.im)

    def norm_sq(self) -> Scalar:
        return self.re * self.re + self.im * self.im


@dataclass(frozen=True)
class UnimodularMatrix:
    """2x2 real matrix with det 1 (exactly for rational entries, within
    1e-12 otherwise)."""

    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if self.is_exact:
            if det != 1:
                raise InvalidParameter(f"det = {det} != 1")
        elif abs(det - 1.0) > 1e-12:
            raise InvalidParameter(f"|det - 1| = {abs(det - 1.0):.2e} > 1e-12")

    @property
    def is_exact(self) -> bool:
        return all(
            isinstance(v, (int, Fraction)) for v in (self.a, self.b, self.c, self.d)
        )

    @classmethod
    def exact(cls, a, b, c, d) -> "UnimodularMatrix":
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls.exact(1, 0, 0, 1)

    def __matmul__(self, o: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def entries(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.a, self.b, self.c, self.d)

    def act(self, z: UpperHalfPoint) -> UpperHalfPoint:
        """Moebius action (az+b)/(cz+d); exact on exact inputs."""
        x, y = z.re, z.im
        u = self.c * x + self.d
        v = self.c * y
        den = u * u + v * v
        re = ((self.a * x + self.b) * u + self.a * y * v) / den
        im = y / den  # det = 1
        return UpperHalfPoint(re, im)

    def _parabolic_nilpotent(self) -> Optional["_Nilpotent"]:
        """For exact parabolic matrices +/-(I + N), N^2 = 0, return N of the
        +I representative (the Moebius action ignores the sign)."""
        if not self.is_exact:
            return None
        tr = self.a + self.d
        if tr == 2:
            m = self
        elif tr == -2:
            m = UnimodularMatrix(-self.a, -self.b, -self.c, -self.d)
        else:
            return None
        n = _Nilpotent(m.a - 1, m.b, m.c, m.d - 1)
        return n if n.is_nilpotent() else None

    def power(self, n: int) -> "UnimodularMatrix":
        """g^n: closed form for exact parabolic matrices (I + nN), binary
        powering otherwise (floats renormalize det after each multiply)."""
        if n == 0:
            return UnimodularMatrix.identity()
        if n < 0:
            inv = UnimodularMatrix(self.d, -self.b, -self.c, self.a)
            return inv.power(-n)
        nil = self._parabolic_nilpotent()
        if nil is not None:
            return UnimodularMatrix(
                1 + n * nil.a, n * nil.b, n * nil.c, 1 + n * nil.d
            )
        result = None
        base = self
        exact = self.is_exact
        while n:
            if n & 1:
                result = base if result is None else _renorm(result @ base, exact)
            n >>= 1
            if n:
                base = _renorm(base @ base, exact)
        return result


@dataclass(frozen=True)
class _Nilpotent:
    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar

    def is_nilpotent(self) -> bool:
        return (
            self.a + self.d == 0 and self.a * self.d - self.b * self.c == 0
        )


def _renorm(m: UnimodularMatrix, exact: bool) -> UnimodularMatrix:
    if exact:
        return m
    det = m.a * m.d - m.b * m.c
    s = sqrt(abs(det))
    return UnimodularMatrix(m.a / s, m.b / s, m.c / s, m.d / s)


def cosh_dist_minus_one(z: UpperHalfPoint, w: UpperHalfPoint) -> Scalar:
    """cosh d(z, w) - 1 = |z - w|^2 / (2 Im z Im w); exact on exact points."""
    dx = z.re - w.re
    dy = z.im - w.im
    return (dx * dx + dy * dy) / (2 * z.im * w.im)


def hyp_distance(z: UpperHalfPoint, w: UpperHalfPoint) -> float:
    """Hyperbolic distance in the upper half-plane."""
    v = float(cosh_dist_minus_one(z, w))
    # acosh(1 + v), stable for small v
    return 2.0 * asinh(sqrt(v / 2.0))


def _round_half(x: Scalar) -> int:
    """Nearest integer, exact for Fractions (half rounds down)."""
    if isinstance(x, (int, Fraction)):
        f = Fraction(x) + Fraction(1, 2)
        n = f.numerator // f.denominator
        if f == n:  # exactly .5: prefer the smaller shift
            return n - 1 if n > 0 else n
        return n
    return int(np.floor(x + 0.5))


@dataclass(frozen=True)
class ReducedPoint:
    point: UpperHalfPoint
    word: str  # generators applied, e.g. "T^-5 S T^1"
    gamma: UnimodularMatrix  # integer matrix with gamma(input) = point


def reduce_fundamental(z: UpperHalfPoint, cap: int = _REDUCE_CAP) -> ReducedPoint:
    """Gauss reduction to |Re z| <= 1/2, |z| >= 1 (the standard fundamental
    domain), tracking the word of generators applied."""
    S = UnimodularMatrix.exact(0, -1, 1, 0)
    gamma = UnimodularMatrix.identity()
    words: list[str] = []
    cur = z
    for _ in range(cap):
        t = _round_half(cur.re)
        if t != 0:
            shift = UnimodularMatrix.exact(1, -t, 0, 1)
            cur = shift.act(cur)
            gamma = shift @ gamma
            words.append(f"T^{-t}")
        one = 1 if cur.is_exact else 1.0 - 1e-15
        if cur.norm_sq() < one:
            cur = S.act(cur)
            gamma = S @ gamma
            words.append("S")
        else:
            return ReducedPoint(cur, " ".join(words), gamma)
    raise NonTermination(f"reduction did not terminate within {cap} steps")


def _translate_set() -> tuple[UnimodularMatrix, ...]:
    """Identity, T^{+-1}, S and their distinct length-2 words (actions
    deduplicated up to sign)."""
    T = UnimodularMatrix.exact(1, 1, 0, 1)
    Ti = UnimodularMatrix.exact(1, -1, 0, 1)
    S = UnimodularMatrix.exact(0, -1, 1, 0)
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
    cosh_minus_one: Scalar  # exact Fraction for exact inputs


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


def _cosh_m1_threshold(eps: Fraction) -> tuple[float, float]:
    """cosh(eps) - 1 with a guard band for certified float comparisons."""
    t = cosh(float(eps)) - 1.0
    return t, max(1e-14, 1e-9 * t)


def _cosh_m1_lt(value: Scalar, eps: Fraction) -> bool:
    """Certified cosh(d) - 1 < cosh(eps) - 1, escalating to high precision
    near the boundary (exact rational `value` vs transcendental threshold)."""
    t, band = _cosh_m1_threshold(eps)
    v = float(value)
    if v < t - band:
        return True
    if v > t + band:
        return False
    import mpmath

    with mpmath.workdps(60):
        thresh = mpmath.cosh(mpmath.mpf(eps.numerator) / eps.denominator) - 1
        if isinstance(value, (int, Fraction)):
            value = Fraction(value)
            vv = mpmath.mpf(value.numerator) / value.denominator
        else:
            vv = mpmath.mpf(value)
        if abs(vv - thresh) < mpmath.mpf(10) ** -40:
            raise PrecisionExhausted("distance sits exactly at the threshold")
        return vv < thresh


# ---------------------------------------------------------------------------
# the system abstraction
# ---------------------------------------------------------------------------


@dataclass
class MMPSystem:
    """A metric space with a measure-preserving isometry and ball measures.

    apply/iterate compute the orbit of a point (iterate uses closed forms or
    matrix powers, not repeated composition); dist is the metric; dist_lt is
    the certified comparison d(x, y) < eps used by searches and certificate
    verification.
    """

    name: str
    description: str
    apply: Callable
    iterate: Callable  # (x, n) -> T^n x
    dist: Callable  # (x, y) -> float
    dist_lt: Callable  # (x, y, eps: Fraction) -> bool, certified
    ball_measure: Callable  # (x, eps) -> float in [0, 1]
    doubling_lambda: float
    diameter: Optional[float] = None
    return_time_fn: Optional[Callable] = None  # (x0, eps) -> n, exact fast path
    point_repr: Callable = staticmethod(lambda x: repr(x))
    point_float: Callable = staticmethod(lambda x: x)
    certified: bool = True
    payload: dict = field(default_factory=dict)
    ball_caveat: Optional[Callable] = None  # (x, eps) -> str | None


def _to_eps_fraction(epsilon: Scalar) -> Fraction:
    eps = Fraction(epsilon)
    if eps <= 0:
        raise UsageError(f"epsilon must be > 0, got {float(eps)}")
    return eps


def make_right_shift(q: int) -> MMPSystem:
    """X = Z/q with the discrete metric, counting measure / q, T: a -> a+1.

    Every eps in (0, 1] gives the same balls (single points); eps > 1 makes
    the ball all of X.
    """
    if q < 2:
        raise InvalidParameter(f"need q >= 2, got {q}")

    def dist(x, y):
        return 0.0 if (x - y) % q == 0 else 1.0

    def rt(x0, eps):
        return q if eps <= 1 else 1

    return MMPSystem(
        name=f"shift_{q}",
        description=f"right shift on Z/{q}",
        apply=lambda x: (x + 1) % q,
        iterate=lambda x, n: (x + n) % q,
        dist=dist,
        dist_lt=lambda x, y, eps: dist(x, y) < eps,
        ball_measure=lambda x, eps: 1.0 / q if eps <= 1 else 1.0,
        doubling_lambda=1.0,
        diameter=1.0,
        return_time_fn=rt,
        point_repr=lambda x: str(int(x)),
        point_float=lambda x: int(x),
        payload={"q": q},
    )


def _circle_point(x) -> QuadExt:
    if isinstance(x, QuadExt):
        return x.frac()
    return QuadExt(Fraction(x)).frac()


def make_rotation(alpha: RealNumberSpec) -> MMPSystem:
    """X = [0, 1) with the circle metric ||x - y||, Lebesgue measure,
    T: x -> x + alpha mod 1; lambda = 2.

    Rational and quadratic angles are exact; decimal literals are taken at
    their exact rational value (the rotation by that rational).
    """
    if alpha.kind == "decimal":
        alpha = RealNumberSpec.rational(Fraction(alpha.digits))
    if alpha.kind == "quotients":
        raise InvalidParameter("rotation needs a rational/quadratic/decimal angle")
    a = alpha.exact_value()
    if not (QuadExt(0) < a and a < QuadExt(1)):
        raise InvalidParameter("alpha must lie in (0, 1)")

    def dist_exact(x, y):
        return (_circle_point(x) - _circle_point(y)).dist_to_nearest_int()

    def rt(x0, eps):
        # returns of a rotation do not depend on the base point
        return return_time(alpha, eps).tau

    return MMPSystem(
        name="rotation",
        description=f"circle rotation by {alpha.describe()}",
        apply=lambda x: (_circle_point(x) + a).frac(),
        iterate=lambda x, n: (_circle_point(x) + a * n).frac(),
        dist=lambda x, y: float(dist_exact(x, y)),
        dist_lt=lambda x, y, eps: dist_exact(x, y) < Fraction(eps),
        ball_measure=lambda x, eps: min(2.0 * float(eps), 1.0),
        doubling_lambda=2.0,
        diameter=0.5,
        return_time_fn=rt,
        point_repr=lambda x: repr(_circle_point(x)),
        point_float=lambda x: float(_circle_point(x)),
        payload={"alpha": alpha},
    )


# modular surface constants: area pi/3, elliptic points i and e^{i pi/3}
_ELLIPTIC_I = (0.0, 1.0)
_ELLIPTIC_RHO = (0.5, sqrt(3.0) / 2.0)


def mobius_ball_measure(eps: float) -> float:
    """Normalized area of an embedded eps-ball: 4 pi sinh^2(eps/2) over the
    covolume pi/3, i.e. 12 sinh^2(eps/2)."""
    return min(12.0 * sinh(eps / 2.0) ** 2, 1.0)


def mobius_ball_caveat(x: UpperHalfPoint, eps: float) -> Optional[str]:
    """Embedded-ball formula breaks near the elliptic points and the cusp."""
    xf, yf = x.floats()
    for ex, ey in (_ELLIPTIC_I, _ELLIPTIC_RHO):
        d = hyp_distance(UpperHalfPoint(xf, yf), UpperHalfPoint(ex, ey))
        if d < 2 * eps:
            return f"center within 2*eps of elliptic point ({ex}, {ey})"
    if yf > 1.0 / (2.0 * eps):
        return "center in the cusp region (im > 1/(2 eps))"
    return None


def make_mobius(g: UnimodularMatrix) -> MMPSystem:
    """X = fundamental domain of the modular group, quotient hyperbolic
    distance, normalized hyperbolic measure (density (3/pi) y^-2); the map
    is z -> g z with orbits computed by matrix powers and reduced back to
    the fundamental domain.  lambda = 4 (+ tolerance at small eps).
    """
    exact = g.is_exact

    def iterate(x, n):
        return reduce_fundamental(g.power(n).act(x)).point

    def dist(x, y):
        zx = reduce_fundamental(x).point
        zy = reduce_fundamental(y).point
        return quotient_distance(zx, zy).value

    def dist_lt(x, y, eps):
        zx = reduce_fundamental(x).point
        zy = reduce_fundamental(y).point
        qd = quotient_distance(zx, zy)
        if exact and zx.is_exact and zy.is_exact:
            return _cosh_m1_lt(qd.cosh_minus_one, Fraction(eps))
        return qd.value < float(eps)

    return MMPSystem(
        name="mobius",
        description=f"Moebius action by {tuple(map(float, g.entries()))} on the modular surface",
        apply=lambda x: reduce_fundamental(g.act(x)).point,
        iterate=iterate,
        dist=dist,
        dist_lt=dist_lt,
        ball_measure=lambda x, eps: mobius_ball_measure(float(eps)),
        doubling_lambda=4.0,
        diameter=None,  # noncompact (cusp)
        point_repr=lambda x: f"({x.re!r}, {x.im!r})",
        point_float=lambda x: x.floats(),
        certified=exact,
        payload={"g": g},
        ball_caveat=mobius_ball_caveat,
    )


# ---------------------------------------------------------------------------
# first returns, prime visits, early-visit certificates
# ---------------------------------------------------------------------------


def recommended_return_cap(system: MMPSystem, x0, epsilon: float) -> int:
    mu = system.ball_measure(x0, float(epsilon) / 2.0)
    if mu <= 0:
        raise InvalidParameter("ball has measure zero at this radius")
    return max(1000, ceil(2.0 / mu))


def first_return(
    system: MMPSystem, x0, epsilon: Scalar, cap: Optional[int] = None
) -> int:
    """Least n >= 1 with d(T^n x0, x0) < eps.

    Guaranteed to exist with n <= mu(B(x0; eps/2))^-1 by recurrence
    (pigeonhole); the default cap is twice that.
    """
    eps = _to_eps_fraction(epsilon)
    if system.return_time_fn is not None:
        return system.return_time_fn(x0, eps)
    if cap is None:
        cap = recommended_return_cap(system, x0, float(eps))
    for n in range(1, cap + 1):
        if system.dist_lt(system.iterate(x0, n), x0, eps):
            return n
    mu = system.ball_measure(x0, float(eps) / 2.0)
    raise CapExceeded(
        f"no return within {cap} steps (recurrence bound mu(B(x0; eps/2))^-1 "
        f"= {1.0 / mu:.3g})",
        cap=cap,
        context={"system": system.name, "epsilon": float(eps)},
    )


def prime_visit_times(
    system: MMPSystem, x0, x, epsilon: Scalar, m: int, cap: int
) -> list[int]:
    """The m smallest primes p <= cap with d(T^p x0, x) < eps."""
    eps = _to_eps_fraction(epsilon)
    if m < 1:
        raise UsageError(f"need m >= 1, got {m}")

    if system.name.startswith("shift") and eps <= 1:
        q = system.payload["q"]
        target = (x - x0) % q
        found = primes_in_ap(q, target, cap)[:m]
        if len(found) < m:
            raise CapExceeded(
                f"only {len(found)} prime visits up to {cap}", cap=cap
            )
        return found

    if system.name == "rotation":
        return _rotation_prime_visits(system, x0, x, eps, m, cap)

    found = []
    for seg in iter_prime_segments(2, cap + 1):
        for p in map(int, seg.primes()):
            if system.dist_lt(system.iterate(x0, p), x, eps):
                found.append(p)
                if len(found) == m:
                    return found
    raise CapExceeded(f"only {len(found)} prime visits up to {cap}", cap=cap)


def _rotation_prime_visits(system, x0, x, eps: Fraction, m: int, cap: int):
    """Float prescan over all primes <= cap with exact confirmation of every
    candidate within the error margin; nothing outside the margin can pass."""
    alpha = system.payload["alpha"]
    af = float(alpha)
    x0f = float(system.point_float(x0))
    xf = float(system.point_float(x))
    eps_f = float(eps)
    x0q = _circle_point(x0)
    xq = _circle_point(x)
    a_exact = alpha.exact_value()

    found = []
    for seg in iter_prime_segments(2, cap + 1):
        ps = seg.primes()
        pos = np.mod(x0f + ps.astype(np.float64) * af, 1.0)
        d = np.abs(pos - xf)
        d = np.minimum(d, 1.0 - d)
        margin = float(seg.hi) * 2.0 ** -50 + 1e-12
        for p in map(int, ps[d < eps_f + margin]):
            diff = (x0q + a_exact * p - xq).dist_to_nearest_int()
            if diff < eps:
                found.append(p)
                if len(found) == m:
                    return found
    raise CapExceeded(f"only {len(found)} prime visits up to {cap}", cap=cap)


@dataclass(frozen=True)
class EarlyVisitCertificate:
    """Self-contained record of one early-visit search: the return time q,
    the winning residue a*, the target x* = T^{a*} x0, and the m primes whose
    orbit points all land within eps of x*.  Everything re-verifies from
    scratch via verify_certificate."""

    system: str
    x0_repr: str
    x0_float: object
    epsilon: float
    m: int
    h: float
    q_return: int
    a_star: int
    x_star_repr: str
    x_star_float: object
    primes: tuple[int, ...]
    distances: tuple[float, ...]
    q_bound_ok: bool
    mu_ball_quarter: float  # mu(B(x0; eps/4h))
    return_threshold: float  # eps / 2h
    degenerate: bool = False  # ball was the whole space
    certified: bool = True  # comparisons decided exactly (vs guarded floats)
    tool_version: str = _pkg_version
    schema_version: int = 1

    def to_json(self) -> str:
        d = asdict(self)
        d["primes"] = list(self.primes)
        d["distances"] = list(self.distances)
        d["tolerances"] = {
            "injectivity_guard": INJECTIVITY_GUARD,
            "float_threshold_band_rel": 1e-9,
        }
        return json.dumps(d, sort_keys=True, default=str)


def _first_m_primes(m: int) -> list[int]:
    out = []
    for seg in iter_prime_segments(2, max(100, 20 * m)):
        out.extend(map(int, seg.primes()))
        if len(out) >= m:
            return out[:m]
    return out[:m]


def early_visit_search(
    system: MMPSystem,
    x0,
    epsilon: Scalar,
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
    system: MMPSystem, x0, eps: Fraction, m: int, h: float, cap: Optional[int]
) -> EarlyVisitCertificate:
    h_frac = Fraction(h)
    mu_quarter = system.ball_measure(x0, float(eps / (4 * h_frac)))

    # degenerate: the eps-ball is (essentially) the whole space; any m primes
    # work, but the distances are still verified like everything else
    if system.ball_measure(x0, float(eps)) >= 1.0:
        primes = _first_m_primes(m)
        for p in primes:
            if not system.dist_lt(system.iterate(x0, p), x0, eps):
                raise SearchFailed(
                    f"degenerate ball but d(T^{p} x0, x0) >= eps (boundary tie)",
                    detail={"prime": p},
                )
        dists = tuple(
            system.dist(system.iterate(x0, p), x0) for p in primes
        )
        return EarlyVisitCertificate(
            system=system.description,
            x0_repr=system.point_repr(x0),
            x0_float=system.point_float(x0),
            epsilon=float(eps),
            m=m,
            h=h,
            q_return=1,
            a_star=0,
            x_star_repr=system.point_repr(x0),
            x_star_float=system.point_float(x0),
            primes=tuple(primes),
            distances=dists,
            q_bound_ok=True,
            mu_ball_quarter=mu_quarter,
            return_threshold=float(eps),
            degenerate=True,
            certified=system.certified,
        )

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

    if p_m_val > h * q:
        raise SearchFailed(
            f"p_m(q={q}, a*={a_star}) = {p_m_val} exceeds budget h*q = {h * q:g}",
            detail={"q": q, "a_star": a_star, "p_m": p_m_val, "h": h},
        )

    x_star = system.iterate(x0, a_star)
    dists = []
    for p in primes:
        xp = system.iterate(x0, p)
        if not system.dist_lt(xp, x_star, eps):
            raise SearchFailed(
                f"verification failed: d(T^{p} x0, x*) = "
                f"{system.dist(xp, x_star):.6g} >= eps = {float(eps):.6g}",
                detail={"q": q, "a_star": a_star, "prime": p},
            )
        dists.append(system.dist(xp, x_star))

    q_bound_ok = mu_quarter > 0 and q <= 1.0 / mu_quarter
    return EarlyVisitCertificate(
        system=system.description,
        x0_repr=system.point_repr(x0),
        x0_float=system.point_float(x0),
        epsilon=float(eps),
        m=m,
        h=h,
        q_return=q,
        a_star=a_star,
        x_star_repr=system.point_repr(x_star),
        x_star_float=system.point_float(x_star),
        primes=tuple(primes),
        distances=tuple(dists),
        q_bound_ok=q_bound_ok,
        mu_ball_quarter=mu_quarter,
        return_threshold=float(threshold),
        certified=system.certified,
    )


def verify_certificate(
    system: MMPSystem, cert: EarlyVisitCertificate, x0
) -> tuple[bool, dict]:
    """Recompute everything in the certificate from scratch."""
    eps = Fraction(cert.epsilon)
    problems = []
    if not cert.degenerate:
        thr = Fraction(cert.return_threshold)
        if not system.dist_lt(system.iterate(x0, cert.q_return), x0, thr):
            problems.append("return time does not satisfy d(T^q x0, x0) < eps/2h")
        for n in range(1, cert.q_return):
            if system.return_time_fn is not None:
                break  # exact fast path already certified minimality
            if system.dist_lt(system.iterate(x0, n), x0, thr):
                problems.append(f"return time not minimal: n = {n} also returns")
                break
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
    system: MMPSystem,
    x0,
    epsilon: Scalar,
    n_samples: int,
    cap: int,
    seed: int = 0,
) -> KacReport:
    """Sample points of B(x0; eps), measure each one's first return to the
    ball, compare the mean to mu(B)^-1 (the ergodic expectation).

    Rotation sampling is uniform in the arc (float fast path; the statistic
    needs no certification); the shift ball is a single point.
    """
    eps_f = float(epsilon)
    mu = system.ball_measure(x0, eps_f)
    if mu <= 0:
        raise InvalidParameter("ball has measure zero")
    target = 1.0 / mu

    if system.name.startswith("shift"):
        q = system.payload["q"]
        # ball is {x0}; the single sample returns in exactly q steps
        return KacReport(
            mean_return=float(q), target=target,
            relative_error=abs(q - target) / target,
            n_samples=1, censored=0, ergodic=True,
            note="deterministic cycle",
        )

    if system.name != "rotation":
        raise UsageError("empirical mean returns implemented for shift and rotation")

    alpha = system.payload["alpha"]
    ergodic = alpha.kind != "rational"
    af = float(alpha)
    x0f = float(system.point_float(x0))
    rng = np.random.default_rng(seed)
    samples = np.mod(x0f + rng.uniform(-eps_f, eps_f, size=n_samples), 1.0)

    # step all samples together until each has returned to the arc
    pos = samples.copy()
    times = np.zeros(n_samples, dtype=np.int64)
    active = np.ones(n_samples, dtype=bool)
    for n in range(1, cap + 1):
        pos[active] = np.mod(pos[active] + af, 1.0)
        d = np.abs(pos[active] - x0f)
        d = np.minimum(d, 1.0 - d)
        back = d < eps_f
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
