"""Continued fractions and first-return times for circle rotations.

The angle alpha is a `Rational`, a `Quadratic` irrational, a `Quotients`
list or a `Decimal` literal: one class per kind of real number, each with
its own enclosure and expansion.  `RealNumberSpec.parse` reads the CLI syntax.

tau_eps(alpha) = min{n >= 1 : ||n*alpha|| < eps} is computed two ways: via
convergents (the minimizer is always a convergent denominator, by the best
rational approximation property) and by certified brute-force scan.  Both
paths decide every comparison exactly or with certified rational intervals
(decimal / truncated inputs).  A quadratic angle walks its complete
quotients (P + sqrt(D))/Q in integers and confirms the one return time it
finds in quadratic-field arithmetic; the other kinds of number test each
convergent denominator with an exact or certified distance.
"""

import decimal
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, log
from typing import Optional, Sequence, Union

import numpy as np

from .errors import PrecisionExhausted, CapExceeded, SearchFailed, UsageError
from .exactreal import QuadExt, RatInterval, _floor_surd, _surd_form, sqrt_interval

Number = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients a_0; a_1, a_2, ... with their convergents p_n/q_n."""

    partial_quotients: tuple[int, ...]
    terminated: bool = False  # rational input fully expanded
    period: Optional[int] = None  # quadratic inputs: length of the cycle

    @cached_property
    def convergents(self) -> tuple[tuple[int, int], ...]:
        return tuple(_convergents(self.partial_quotients))

    @property
    def depth(self) -> int:
        return len(self.partial_quotients)


def _convergents(quotients: Sequence[int]) -> list[tuple[int, int]]:
    out = []
    p, q, p_prev, q_prev = 1, 0, 0, 1  # (p_-1, q_-1) and (p_-2, q_-2)
    for a in quotients:
        p, q, p_prev, q_prev = a * p + p_prev, a * q + q_prev, p, q
        out.append((p, q))
    return out


# ---------------------------------------------------------------------------
# alpha specifications: one class per kind of real number
# ---------------------------------------------------------------------------


class RealNumberSpec:
    """A real number given exactly (`Rational`, `Quadratic`, `Quotients`)
    or approximately (`Decimal`).  Subclasses give `interval()`,
    `expand(depth)` and `describe()`; `parse` builds one from CLI text."""

    @staticmethod
    def parse(text: str) -> "RealNumberSpec":
        """CLI syntax: 'p/q', 'sqrt:d:a:b' (a + b*sqrt(d)), 'dec:<digits>',
        'cf:a0,a1,...', or the alias 'golden'; anything else is a UsageError."""
        text = text.strip()
        try:
            if text == "golden":
                return Quadratic.golden()
            if text.startswith("sqrt:"):
                _, d, a, b = text.split(":")
                x = QuadExt(Fraction(a), Fraction(b), int(d))
                return Rational(x.a) if x.is_rational else Quadratic(x)
            if text.startswith("dec:"):
                return Decimal(text[4:])
            if text.startswith("cf:"):
                return Quotients(tuple(int(t) for t in text[3:].split(",")))
            if "/" in text:
                p, q = text.split("/")
                return Rational(Fraction(int(p), int(q)))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"cannot parse alpha spec {text!r}") from exc
        raise UsageError(f"cannot parse alpha spec {text!r}")

    def exact_value(self) -> Optional[QuadExt]:
        """Exact field representation, when one exists."""
        return None

    def interval(self) -> RatInterval:
        """Certified rational enclosure."""
        raise NotImplementedError

    def expand(self, depth: int) -> ContinuedFraction:
        """Up to `depth` partial quotients; see `cf_expand`."""
        raise NotImplementedError

    def __float__(self) -> float:
        iv = self.interval()
        return float((iv.lo + iv.hi) / 2)

    def dist_enclosure(self, n: int, eps: Optional[Fraction] = None) -> RatInterval:
        """Certified enclosure of ||n*alpha||, narrow enough to decide
        ||n*alpha|| < eps when eps is given."""
        out = (self.interval() * n).dist_to_nearest_int()
        if eps is not None:
            out.compare_lt(eps)
        return out

    def max_partial_quotient(self) -> Optional[int]:
        """max a_n over n >= 1 when it is proven, else None."""
        return None

    def return_time(self, eps: Fraction) -> "ReturnTimeReport":
        """tau_eps for 0 < eps < 1/2: test q_0 < q_1 < ... with
        `_dist_below`, expanding to each depth of `_walk_depths` in turn.
        A deeper expansion extends the shallower one, so each depth tests
        only the convergents past the last depth's."""
        tested, last_q = 0, 0
        for depth in _walk_depths():
            cf = cf_expand(self, depth)
            for _, q_n in cf.convergents[tested:]:
                if q_n == last_q:  # q_0 = q_1 = 1 when a_1 = 1
                    continue
                last_q = q_n
                found = _dist_below(self, q_n, eps)
                if found is not None:
                    achieved, err = found
                    return ReturnTimeReport(
                        q_n, achieved, "convergent", achieved_error=err
                    )
            if cf.terminated or cf.depth < depth:
                raise PrecisionExhausted(
                    f"expansion exhausted at depth {cf.depth} before "
                    f"||n*alpha|| < {float(eps)} was certified"
                )
            tested = cf.depth
        raise CapExceeded("convergent depth cap hit")


@dataclass(frozen=True)
class Rational(RealNumberSpec):
    """p/q, exact; its expansion terminates."""

    value: Fraction

    def exact_value(self) -> QuadExt:
        return QuadExt(self.value)

    def interval(self) -> RatInterval:
        return RatInterval(self.value, self.value)

    def expand(self, depth: int) -> ContinuedFraction:
        p, q = self.value.numerator, self.value.denominator
        qs = []
        while q:
            a, r = divmod(p, q)
            qs.append(a)
            p, q = q, r
        return ContinuedFraction(tuple(qs[:depth]), terminated=len(qs) <= depth)

    def describe(self) -> str:
        return f"{self.value.numerator}/{self.value.denominator}"


@dataclass(frozen=True)
class Quadratic(RealNumberSpec):
    """An irrational a + b*sqrt(d), exact; its expansion is periodic from
    some point on (Lagrange)."""

    x: QuadExt

    def __post_init__(self):
        if self.x.is_rational:
            raise UsageError(f"{self.x!r} is rational; use Rational")

    @classmethod
    def golden(cls) -> "Quadratic":
        """(sqrt(5) - 1) / 2."""
        return cls(QuadExt.golden())

    def exact_value(self) -> QuadExt:
        return self.x

    def interval(self) -> RatInterval:
        x = self.x
        s = sqrt_interval(x.d)
        return RatInterval(*sorted((x.a + x.b * s.lo, x.a + x.b * s.hi)))

    def _surd_state(self) -> tuple[int, int, int]:
        """(P, D, Q) with x = (P + sqrt(D))/Q and Q | D - P^2, so that the
        surd algorithm stays in integers."""
        P, D, Q = _surd_form(self.x)
        if (D - P * P) % Q != 0:
            P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
        return P, D, Q

    def expand(self, depth: int) -> ContinuedFraction:
        """Surd algorithm on (P + sqrt(D))/Q; the cycle is detected from a
        repeated (P, Q) state and unrolled to the requested depth."""
        P, D, Q = self._surd_state()
        quotients: list[int] = []
        seen: dict[tuple[int, int], int] = {}
        period = None
        while len(quotients) < depth:
            state = (P, Q)
            if state in seen:
                period = len(quotients) - seen[state]
                break
            seen[state] = len(quotients)
            a = _floor_surd(P, D, Q)
            quotients.append(a)
            P = a * Q - P
            Q = (D - P * P) // Q
        if period is not None:
            start = seen[(P, Q)]
            cycle = quotients[start : start + period]
            while len(quotients) < depth:
                quotients.append(cycle[(len(quotients) - start) % period])
        return ContinuedFraction(tuple(quotients), period=period)

    def __float__(self) -> float:
        return float(self.x)

    def describe(self) -> str:
        return f"{self.x.a}+{self.x.b}*sqrt({self.x.d})"

    def max_partial_quotient(self) -> Optional[int]:
        """Exact, read off one full period; None when the period is not
        confirmed within 2^16 quotients."""
        depth = 128
        while (cf := cf_expand(self, depth)).period is None and depth < 1 << 16:
            depth *= 2
        return None if cf.period is None else max(cf.partial_quotients[1:])

    def return_time(self, eps: Fraction) -> "ReturnTimeReport":
        """tau_eps in integers, from the surd algorithm of `expand`.

        After a_n the state (P, Q) is the complete quotient
        alpha_{n+1} = (P + sqrt(D))/Q, and
        |q_n alpha - p_n| = 1/(q_n alpha_{n+1} + q_{n-1}).  With eps = u/v
        that is below eps iff N + R*sqrt(D) has the sign of Q, where
        N = u (q_n P + q_{n-1} Q) - v Q and R = u q_n > 0.  For n >= 1 the
        left side is ||q_n alpha||; for n = 0 it is frac(alpha), which
        exceeds ||alpha|| only when frac(alpha) > 1/2, and then q_1 = 1
        tests ||alpha||.  The q_n found is confirmed by one exact distance,
        which also gives `achieved`.
        """
        u, v = eps.numerator, eps.denominator
        P, D, Q = self._surd_state()
        q, q_prev = 0, 1  # q_{n-1}, q_{n-2}
        for _ in range(max(_walk_depths())):
            a = _floor_surd(P, D, Q)
            P = a * Q - P
            Q = (D - P * P) // Q
            q, q_prev = a * q + q_prev, q
            N = u * (q * P + q_prev * Q) - v * Q
            R = u * q
            # N + R*sqrt(D) > 0 (R > 0, D no square), against the sign of Q
            if (N >= 0 or R * R * D > N * N) == (Q > 0):
                found = _dist_below(self, q, eps)
                if found is None:
                    raise SearchFailed(
                        f"||{q}*alpha|| < {float(eps)} fails its exact check"
                    )
                return ReturnTimeReport(q, found[0], "convergent")
        raise CapExceeded("convergent depth cap hit")


@dataclass(frozen=True)
class Decimal(RealNumberSpec):
    """A finite decimal literal such as '0.618' or '6.18e-1', standing for
    an unknown real within half a unit of its last place."""

    digits: str

    def __post_init__(self):
        # with InvalidOperation untrapped, text that is no number reads as NaN
        if not decimal.Decimal(self.digits, decimal.Context(traps=[])).is_finite():
            raise UsageError(f"not a finite decimal literal: {self.digits!r}")

    @property
    def value(self) -> Fraction:
        """The literal's own exact value."""
        return Fraction(decimal.Decimal(self.digits))

    def interval(self) -> RatInterval:
        d = decimal.Decimal(self.digits)
        half_ulp = Fraction(10) ** d.as_tuple().exponent / 2
        return RatInterval(Fraction(d) - half_ulp, Fraction(d) + half_ulp)

    def expand(self, depth: int) -> ContinuedFraction:
        """Interval expansion: emit a quotient only when the whole enclosure
        agrees on its floor; stop (truncate) as soon as it does not."""
        iv = self.interval()
        out = []
        while len(out) < depth:
            try:
                a = iv.certain_floor()
            except PrecisionExhausted:
                break
            out.append(a)
            frac = RatInterval(iv.lo - a, iv.hi - a)
            if frac.lo <= 0:  # could be exact here; cannot certify further
                break
            iv = frac.recip()
        if not out:
            raise PrecisionExhausted("cannot certify even the first quotient")
        return ContinuedFraction(tuple(out))

    def describe(self) -> str:
        return f"dec:{self.digits}"


@dataclass(frozen=True)
class Quotients(RealNumberSpec):
    """[a_0; a_1, ..., a_n], an explicit list of partial quotients: exact
    as far as it goes, enclosed by its last two convergents."""

    quotients: tuple[int, ...]

    def __post_init__(self):
        qs = tuple(int(a) for a in self.quotients)
        if len(qs) < 2:
            raise UsageError("need at least [a0; a1]")
        if any(a < 1 for a in qs[1:]):
            raise UsageError("partial quotients a_j must be >= 1 for j >= 1")
        object.__setattr__(self, "quotients", qs)

    def interval(self) -> RatInterval:
        """Between the last two convergents: every real whose expansion
        starts with the list lies there."""
        (p1, q1), (p2, q2) = _convergents(self.quotients)[-2:]
        return RatInterval(*sorted((Fraction(p1, q1), Fraction(p2, q2))))

    def expand(self, depth: int) -> ContinuedFraction:
        return ContinuedFraction(self.quotients[:depth])

    def dist_enclosure(self, n: int, eps: Optional[Fraction] = None) -> RatInterval:
        """Tries the first 8, 16, ... quotients before the whole list: the
        shallower enclosure is cheaper, and often narrow enough."""
        d = 8
        while d < len(self.quotients):
            try:
                return RealNumberSpec.dist_enclosure(Quotients(self.quotients[:d]), n, eps)
            except PrecisionExhausted:
                d *= 2
        return super().dist_enclosure(n, eps)

    def describe(self) -> str:
        qs = ",".join(map(str, self.quotients[:8]))
        more = "..." if len(self.quotients) > 8 else ""
        return f"cf:[{qs}{more}]"


def cf_expand(alpha: RealNumberSpec, depth: int) -> ContinuedFraction:
    """Expand to (up to) `depth` partial quotients.

    Exact and complete for rational inputs (terminates) and quadratic ones
    (periodic; cycle detected and unrolled).  Decimal inputs are truncated at
    the last quotient the error interval certifies.
    """
    if depth < 1:
        raise UsageError(f"depth must be >= 1, got {depth}")
    return alpha.expand(depth)


# ---------------------------------------------------------------------------
# return times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnTimeReport:
    tau: int
    achieved: float  # ||tau * alpha||
    method: str  # 'convergent' | 'bruteforce'
    achieved_error: float = 0.0  # half-width of the enclosure (interval inputs)


def _dist_value(alpha: RealNumberSpec, n: int) -> tuple[float, float]:
    """||n*alpha|| as (value, half-width of its enclosure); exact (half-width
    0) for rational and quadratic inputs."""
    x = alpha.exact_value()
    if x is not None:
        return float((x * n).dist_to_nearest_int()), 0.0
    iv = alpha.dist_enclosure(n)
    return float((iv.lo + iv.hi) / 2), float(iv.width / 2)


def _dist_below(
    alpha: RealNumberSpec, n: int, eps: Fraction
) -> Optional[tuple[float, float]]:
    """`_dist_value(alpha, n)` when ||n*alpha|| < eps is certified, else
    None; an exact distance is computed once for both."""
    x = alpha.exact_value()
    if x is not None:
        dist = (x * n).dist_to_nearest_int()
        return (float(dist), 0.0) if dist < eps else None
    if alpha.dist_enclosure(n, eps).compare_lt(eps):
        return _dist_value(alpha, n)
    return None


_DEPTH_CAP = 5000


def _walk_depths():
    """Expansion depths of the convergent walk: 32, 64, ... up to the first
    one >= _DEPTH_CAP, past which return times give up."""
    depth = 32
    while depth < _DEPTH_CAP:
        yield depth
        depth *= 2
    yield depth


def return_time(alpha: RealNumberSpec, epsilon: Number) -> ReturnTimeReport:
    """First return time via convergents.

    The best-approximation property of convergents means the first n with
    ||n*alpha|| < eps is a convergent denominator, so it suffices to walk
    q_0 < q_1 < ... and stop at the first one below eps.  Comparisons are
    exact (or certified); ties at exactly eps count as not inside.  Each
    kind of number walks in its own `return_time` method: a quadratic
    angle in integers, the others by the generic walk of `RealNumberSpec`.
    """
    eps = Fraction(epsilon)
    if not 0 < eps < Fraction(1, 2):
        raise UsageError(f"epsilon must be in (0, 1/2), got {float(eps)}")
    return alpha.return_time(eps)


# 2^14 floats (128 KiB) per temporary array of the prescan: peak memory
# stays flat in the cap
_BRUTE_CHUNK = 1 << 14


def return_time_bruteforce(
    alpha: RealNumberSpec, epsilon: Number, cap: int
) -> ReturnTimeReport:
    """Linear scan n = 1..cap, independent of the convergent machinery.

    A float prescan proposes candidates; every candidate (and nothing else)
    can have ||n*alpha|| < eps, by an explicit error margin; candidates are
    confirmed exactly in increasing order.
    """
    eps = Fraction(epsilon)
    if cap < 1:
        raise UsageError(f"cap must be >= 1, got {cap}")

    a_float = float(alpha)
    a_err = float(alpha.interval().width / 2) + 2.0 ** -50

    eps_f = float(eps)
    for lo in range(1, cap + 1, _BRUTE_CHUNK):
        hi = min(lo + _BRUTE_CHUNK - 1, cap)
        n = np.arange(lo, hi + 1, dtype=np.float64)
        x = np.mod(n * a_float, 1.0)
        dist = np.minimum(x, 1.0 - x)
        margin = hi * a_err + 2.0 ** -50 * hi
        for idx in np.flatnonzero(dist < eps_f + margin):
            cand = lo + int(idx)
            found = _dist_below(alpha, cand, eps)
            if found is not None:
                achieved, err = found
                return ReturnTimeReport(cand, achieved, "bruteforce", achieved_error=err)
    raise CapExceeded(f"no n <= {cap} with ||n*alpha|| < {float(eps)}")


# ---------------------------------------------------------------------------
# type estimation and the two-sided return-time bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeEstimate:
    """Finite-depth ESTIMATE of the approximation type; no convergence
    guarantee.

    exponent_max estimates the type as max_n log(q_{n+1}) / log(q_n); the
    proxy is the empirical liminf of log(tau_eps) / log(1/eps) sampled just
    above the grid eps_n = ||q_n alpha|| (where tau = q_n).
    """

    applicable: bool
    exponent_max: Optional[float] = None
    liminf_proxy: Optional[float] = None


def type_estimate(alpha: RealNumberSpec, depth: int) -> TypeEstimate:
    if depth < 3:
        raise UsageError(f"depth must be >= 3, got {depth}")
    cf = cf_expand(alpha, depth)
    if cf.terminated:  # rational input: the type is degenerate
        return TypeEstimate(applicable=False)
    qs = [q for _, q in cf.convergents]
    usable = [i for i in range(len(qs) - 1) if qs[i] >= 2]
    # liminf/limsup proxies: discard the shallow half as burn-in
    usable = usable[len(usable) // 2 :]
    exps = []
    proxies = []
    for i in usable:
        exps.append(log(qs[i + 1]) / log(qs[i]))
        try:
            dist, _ = _dist_value(alpha, qs[i])
        except PrecisionExhausted:
            continue
        if dist > 0:
            proxies.append(log(qs[i]) / log(1.0 / dist))
    if not exps or not proxies:  # too few certified convergents
        return TypeEstimate(applicable=False)
    return TypeEstimate(
        applicable=True, exponent_max=max(exps), liminf_proxy=min(proxies)
    )


@dataclass(frozen=True)
class Prop71Row:
    epsilon: Fraction
    tau: int
    upper: int  # ceil(1/eps), from the Dirichlet bound
    upper_ok: bool
    lower: float
    lower_ok: bool
    lower_kind: str  # 'bounded-quotient' (c_alpha = (A+1)^-3) or 'envelope'


def check_prop71(
    alpha: RealNumberSpec,
    epsilon_grid: Sequence[Number],
    delta: float = 0.01,
) -> list[Prop71Row]:
    """Two-sided check: tau <= ceil(1/eps) always (Dirichlet); for bounded
    partial quotients additionally (A+1)^-3 / eps <= tau.  For inputs where
    A is unknown the lower bound is the almost-everywhere envelope
    eps^-1 (log eps^-1)^(-2(1+delta)) with test constant 1 (an envelope, not
    an asserted theorem constant)."""
    A = alpha.max_partial_quotient()
    rows = []
    for e in epsilon_grid:
        eps = Fraction(e)
        rep = return_time(alpha, eps)
        tau = rep.tau
        upper = ceil(1 / eps)
        if A is not None:
            lower = Fraction(1, (A + 1) ** 3) / eps
            lower_ok = tau >= lower
            lower_kind = "bounded-quotient"
            lower_f = float(lower)
        else:
            inv = float(1 / eps)
            lower_f = inv * log(inv) ** (-2 * (1 + delta))
            lower_ok = tau >= lower_f
            lower_kind = "envelope"
        rows.append(
            Prop71Row(
                epsilon=eps, tau=tau, upper=upper, upper_ok=tau <= upper,
                lower=lower_f, lower_ok=bool(lower_ok), lower_kind=lower_kind,
            )
        )
    return rows
