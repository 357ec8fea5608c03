"""Continued fractions and first-return times for circle rotations.

tau_eps(alpha) = min{n >= 1 : ||n*alpha|| < eps} is computed two ways: via
convergents (the minimizer is always a convergent denominator, by the best
rational approximation property) and by certified brute-force scan.  Both
paths decide every comparison exactly (quadratic-field arithmetic) or with
certified rational intervals (decimal / truncated inputs).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, log
from typing import Optional, Sequence, Union

import numpy as np

from .errors import PrecisionExhausted, CapExceeded, UsageError
from .exactreal import QuadExt, RatInterval, _floor_surd, _surd_form, sqrt_interval

Number = Union[int, float, Fraction]


def _to_fraction(x: Number) -> Fraction:
    # Fraction(float) is exact (binary value); strings go through Fraction too
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# alpha specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealNumberSpec:
    """A real number given exactly (rational, quadratic irrational, explicit
    partial quotients) or approximately (decimal literal with half-ulp bound).
    """

    kind: str  # 'rational' | 'quadratic' | 'decimal' | 'quotients'
    rat: Optional[Fraction] = None
    quad: Optional[QuadExt] = None
    digits: Optional[str] = None
    quotients: Optional[tuple[int, ...]] = None

    # --- constructors ---------------------------------------------------

    @classmethod
    def rational(cls, p, q=None) -> "RealNumberSpec":
        v = Fraction(p, q) if q is not None else Fraction(p)
        return cls(kind="rational", rat=v)

    @classmethod
    def quadratic(cls, a, b, d: int) -> "RealNumberSpec":
        x = QuadExt(Fraction(a), Fraction(b), d)
        if x.is_rational:
            return cls(kind="rational", rat=x.a)
        return cls(kind="quadratic", quad=x)

    @classmethod
    def golden(cls) -> "RealNumberSpec":
        """(sqrt(5) - 1) / 2."""
        return cls(kind="quadratic", quad=QuadExt.golden())

    @classmethod
    def decimal(cls, digits: str) -> "RealNumberSpec":
        Fraction(digits)  # validate
        return cls(kind="decimal", digits=digits)

    @classmethod
    def from_quotients(cls, quotients: Sequence[int]) -> "RealNumberSpec":
        qs = tuple(int(a) for a in quotients)
        if len(qs) < 2:
            raise UsageError("need at least [a0; a1]")
        if any(a < 1 for a in qs[1:]):
            raise UsageError("partial quotients a_j must be >= 1 for j >= 1")
        return cls(kind="quotients", quotients=qs)

    @classmethod
    def parse(cls, text: str) -> "RealNumberSpec":
        """CLI syntax: 'p/q', 'sqrt:d:a:b' (a + b*sqrt(d)), 'dec:<digits>',
        'cf:a0,a1,...', or the alias 'golden'."""
        text = text.strip()
        if text == "golden":
            return cls.golden()
        if text.startswith("sqrt:"):
            _, d, a, b = text.split(":")
            return cls.quadratic(Fraction(a), Fraction(b), int(d))
        if text.startswith("dec:"):
            return cls.decimal(text[4:])
        if text.startswith("cf:"):
            return cls.from_quotients([int(t) for t in text[3:].split(",")])
        if "/" in text:
            p, q = text.split("/")
            return cls.rational(int(p), int(q))
        raise UsageError(f"cannot parse alpha spec {text!r}")

    # --- value access -----------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.kind in ("rational", "quadratic", "quotients")

    def exact_value(self) -> Optional[QuadExt]:
        """Exact field representation, when one exists."""
        if self.kind == "rational":
            return QuadExt(self.rat)
        if self.kind == "quadratic":
            return self.quad
        return None

    def interval(self, depth: Optional[int] = None) -> RatInterval:
        """Certified rational enclosure."""
        if self.kind == "rational":
            return RatInterval(self.rat, self.rat)
        if self.kind == "quadratic":
            x = self.quad
            s = sqrt_interval(x.d)
            if x.b >= 0:
                return RatInterval(x.a + x.b * s.lo, x.a + x.b * s.hi)
            return RatInterval(x.a + x.b * s.hi, x.a + x.b * s.lo)
        if self.kind == "decimal":
            v = Fraction(self.digits)
            places = len(self.digits.split(".")[1]) if "." in self.digits else 0
            half_ulp = Fraction(1, 2 * 10**places)
            return RatInterval(v - half_ulp, v + half_ulp)
        # quotients: bracket by two consecutive deep convergents
        conv = _convergents(self.quotients if depth is None else self.quotients[:depth])
        if len(conv) < 2:
            raise PrecisionExhausted("need two convergents to bracket")
        (p1, q1), (p2, q2) = conv[-2], conv[-1]
        lo, hi = sorted((Fraction(p1, q1), Fraction(p2, q2)))
        return RatInterval(lo, hi)

    def __float__(self) -> float:
        if self.kind == "quadratic":
            return float(self.quad)
        iv = self.interval()
        return float((iv.lo + iv.hi) / 2)

    def describe(self) -> str:
        if self.kind == "rational":
            return f"{self.rat.numerator}/{self.rat.denominator}"
        if self.kind == "quadratic":
            x = self.quad
            return f"{x.a}+{x.b}*sqrt({x.d})"
        if self.kind == "decimal":
            return f"dec:{self.digits}"
        qs = ",".join(map(str, self.quotients[:8]))
        more = "..." if len(self.quotients) > 8 else ""
        return f"cf:[{qs}{more}]"


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients a_0; a_1, a_2, ... with their convergents p_n/q_n."""

    partial_quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    exact: bool
    terminated: bool = False  # rational input fully expanded
    period: Optional[int] = None  # quadratic inputs: length of the cycle

    @property
    def depth(self) -> int:
        return len(self.partial_quotients)


def _convergents(quotients: Sequence[int]) -> list[tuple[int, int]]:
    out = []
    p_prev, q_prev = 1, 0
    p, q = None, None
    for a in quotients:
        if p is None:
            p, q = a, 1
        else:
            p, q, p_prev, q_prev = a * p + p_prev, a * q + q_prev, p, q
        out.append((p, q))
    return out


def _expand_rational(x: Fraction) -> list[int]:
    p, q = x.numerator, x.denominator
    out = []
    while q:
        a, r = divmod(p, q)
        out.append(a)
        p, q = q, r
    return out


def _expand_quadratic(x: QuadExt, depth: int) -> tuple[list[int], Optional[int]]:
    """Surd algorithm on (P + sqrt(D))/Q; returns quotients and period length."""
    P, D, Q = _surd_form(x)
    if (D - P * P) % Q != 0:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)

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
    return quotients, period


def _expand_decimal(spec: RealNumberSpec, depth: int) -> list[int]:
    """Interval expansion: emit a quotient only when the whole enclosure
    agrees on its floor; stop (truncate) as soon as it does not."""
    iv = spec.interval()
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
    return out


def cf_expand(alpha: RealNumberSpec, depth: int) -> ContinuedFraction:
    """Expand to (up to) `depth` partial quotients.

    Exact and complete for rational inputs (terminates) and quadratic ones
    (periodic; cycle detected and unrolled).  Decimal inputs are truncated at
    the last quotient the error interval certifies.
    """
    if depth < 1:
        raise UsageError(f"depth must be >= 1, got {depth}")
    period = None
    terminated = False
    exact = alpha.is_exact
    if alpha.kind == "rational":
        qs = _expand_rational(alpha.rat)
        terminated = len(qs) <= depth
        qs = qs[:depth]
    elif alpha.kind == "quadratic":
        qs, period = _expand_quadratic(alpha.quad, depth)
    elif alpha.kind == "quotients":
        qs = list(alpha.quotients[:depth])
    else:
        qs = _expand_decimal(alpha, depth)
    return ContinuedFraction(
        partial_quotients=tuple(qs),
        convergents=tuple(_convergents(qs)),
        exact=exact,
        terminated=terminated,
        period=period,
    )


# ---------------------------------------------------------------------------
# return times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnTimeReport:
    alpha: RealNumberSpec
    epsilon: Fraction
    tau: int
    achieved: float  # ||tau * alpha||
    method: str  # 'convergent' | 'bruteforce'
    achieved_error: float = 0.0  # half-width of the enclosure (interval inputs)


def _dist_enclosure(
    alpha: RealNumberSpec, n: int, eps: Optional[Fraction] = None
) -> RatInterval:
    """Certified enclosure of ||n*alpha||, narrow enough to decide
    ||n*alpha|| < eps when eps is given.  Quotient-list inputs double their
    truncation depth until it is; other inputs have one fixed enclosure."""
    d = 8
    while True:
        try:
            out = (alpha.interval(depth=d) * n).dist_to_nearest_int()
            if eps is not None:
                out.compare_lt(eps)
            return out
        except PrecisionExhausted:
            if alpha.kind != "quotients" or d >= len(alpha.quotients):
                raise
            d *= 2


def _dist_lt(alpha: RealNumberSpec, n: int, eps: Fraction) -> bool:
    """Certified ||n*alpha|| < eps."""
    x = alpha.exact_value()
    if x is not None:
        return (x * n).dist_to_nearest_int() < eps
    return _dist_enclosure(alpha, n, eps).compare_lt(eps)


def _dist_value(alpha: RealNumberSpec, n: int) -> tuple[float, float]:
    """||n*alpha|| as (value, half-width of its enclosure); exact (half-width
    0) for rational and quadratic inputs."""
    x = alpha.exact_value()
    if x is not None:
        return float((x * n).dist_to_nearest_int()), 0.0
    iv = _dist_enclosure(alpha, n)
    return float((iv.lo + iv.hi) / 2), float(iv.width / 2)


_DEPTH_CAP = 5000


def return_time(alpha: RealNumberSpec, epsilon: Number) -> ReturnTimeReport:
    """First return time via convergents.

    The best-approximation property of convergents means the first n with
    ||n*alpha|| < eps is a convergent denominator, so it suffices to walk
    q_0 < q_1 < ... and stop at the first one below eps.  Comparisons are
    exact (or certified); ties at exactly eps count as not inside.
    """
    eps = _to_fraction(epsilon)
    if not 0 < eps < Fraction(1, 2):
        raise UsageError(f"epsilon must be in (0, 1/2), got {float(eps)}")

    depth = 32
    while True:
        cf = cf_expand(alpha, depth)
        last_q = 0
        for _, q_n in cf.convergents:
            if q_n == last_q:  # q_0 = q_1 = 1 when a_1 = 1
                continue
            last_q = q_n
            if _dist_lt(alpha, q_n, eps):
                achieved, err = _dist_value(alpha, q_n)
                return ReturnTimeReport(
                    alpha, eps, q_n, achieved, "convergent", achieved_error=err
                )
        if cf.terminated or (alpha.kind == "quotients" and cf.depth >= len(alpha.quotients)) or (alpha.kind == "decimal" and cf.depth < depth):
            raise PrecisionExhausted(
                f"expansion exhausted at depth {cf.depth} before ||n*alpha|| < "
                f"{float(eps)} was certified"
            )
        if depth >= _DEPTH_CAP:
            raise CapExceeded("convergent depth cap hit", cap=_DEPTH_CAP)
        depth *= 2


_BRUTE_CHUNK = 1 << 21


def return_time_bruteforce(
    alpha: RealNumberSpec, epsilon: Number, cap: int
) -> ReturnTimeReport:
    """Linear scan n = 1..cap, independent of the convergent machinery.

    A float prescan proposes candidates; every candidate (and nothing else)
    can have ||n*alpha|| < eps, by an explicit error margin; candidates are
    confirmed exactly in increasing order.
    """
    eps = _to_fraction(epsilon)
    if cap < 1:
        raise UsageError(f"cap must be >= 1, got {cap}")

    x = alpha.exact_value()
    if x is not None:
        a_float = float(x)
        a_err = 2.0 ** -50
    else:
        iv = alpha.interval()
        a_float = float((iv.lo + iv.hi) / 2)
        a_err = float(iv.width / 2) + 2.0 ** -50

    eps_f = float(eps)
    for lo in range(1, cap + 1, _BRUTE_CHUNK):
        hi = min(lo + _BRUTE_CHUNK - 1, cap)
        n = np.arange(lo, hi + 1, dtype=np.float64)
        x = np.mod(n * a_float, 1.0)
        dist = np.minimum(x, 1.0 - x)
        margin = hi * a_err + 2.0 ** -50 * hi
        for idx in np.flatnonzero(dist < eps_f + margin):
            cand = lo + int(idx)
            if _dist_lt(alpha, cand, eps):
                achieved, err = _dist_value(alpha, cand)
                return ReturnTimeReport(
                    alpha, eps, cand, achieved, "bruteforce", achieved_error=err
                )
    raise CapExceeded(
        f"no n <= {cap} with ||n*alpha|| < {float(eps)}", cap=cap,
        context={"alpha": alpha.describe()},
    )


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
    depth_used: int = 0
    note: str = ""


def type_estimate(alpha: RealNumberSpec, depth: int) -> TypeEstimate:
    if depth < 3:
        raise UsageError(f"depth must be >= 3, got {depth}")
    cf = cf_expand(alpha, depth)
    if cf.terminated:
        return TypeEstimate(
            applicable=False, depth_used=cf.depth,
            note="rational input: expansion terminates, type degenerate",
        )
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
    if not exps or not proxies:
        return TypeEstimate(
            applicable=False, depth_used=cf.depth,
            note="not enough certified convergents for an estimate",
        )
    return TypeEstimate(
        applicable=True,
        exponent_max=max(exps),
        liminf_proxy=min(proxies),
        depth_used=cf.depth,
        note="finite-depth estimate",
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


def max_partial_quotient(alpha: RealNumberSpec, depth: int = 128) -> Optional[int]:
    """max a_n over n >= 1; exact for quadratic inputs (needs one full
    period), finite-data for quotient lists and decimals, None for rationals
    or when the period cannot be confirmed."""
    cf = cf_expand(alpha, depth)
    if cf.terminated:
        return None
    if alpha.kind == "quadratic":
        d = depth
        while cf.period is None and d < 1 << 16:
            d *= 2
            cf = cf_expand(alpha, d)
        if cf.period is None:  # unconfirmed: don't claim a bound
            return None
    tail = cf.partial_quotients[1:]
    return max(tail) if tail else None


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
    A = max_partial_quotient(alpha)
    rows = []
    for e in epsilon_grid:
        eps = _to_fraction(e)
        rep = return_time(alpha, eps)
        tau = rep.tau
        upper = ceil(1 / eps)
        if A is not None and alpha.kind == "quadratic":
            c = Fraction(1, (A + 1) ** 3)
            lower = c / eps
            lower_ok = tau >= lower
            kind = "bounded-quotient"
            lower_f = float(lower)
        else:
            inv = float(1 / eps)
            lower_f = inv * log(inv) ** (-2 * (1 + delta))
            lower_ok = tau >= lower_f
            kind = "envelope"
        rows.append(
            Prop71Row(
                epsilon=eps, tau=tau, upper=upper, upper_ok=tau <= upper,
                lower=lower_f, lower_ok=bool(lower_ok), lower_kind=kind,
            )
        )
    return rows
