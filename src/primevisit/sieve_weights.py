"""Sieve weights over reduced residues and their diagnostics.

The weight w_a is the square of a signed divisor sum with a smooth cutoff F
supported (through its mixed derivative) on the simplex
Delta_k(theta; eps) = {t >= 0 : t_1 + ... + t_k <= (theta - eps)/2}.
It concentrates mass on residues a mod q for which several of the shifted
values a + q*h_i are prime.  This module computes:

  * the small-prime setup (w, W_q, b_0) that removes small-prime obstructions;
  * the two cutoff families, one class each: TensorCutoff, a product of
    one-dimensional pieces, and PsiCutoff, Maynard's psi-product on the
    simplex;
  * the divisor sums lambda_f(n) = sum_{d | n} mu(d) f(log d / log q) and
    the weights themselves, exactly, for tensor cutoffs (the product of
    one-dimensional divisor sums);
  * the singular integrals I(F), J_i(F) of the mixed derivative, methods of
    the cutoff: in closed form for TensorCutoff and by dimension-reduced grid
    quadrature for PsiCutoff (the Monte-Carlo cross-check of the grid lives
    with the acceptance suite);
  * the detection ratio sum_i J_i / I and the (k, rho) selection rule;
  * the exact finite sum S = sum_a (#primes - (m-1) - k * #small-factors) w_a
    whose positivity pigeonholes an m-cluster into some progression;
  * the exact discrepancy of reduced residues in progressions (level of
    distribution diagnostic).

Everything below the asymptotic regime is computed exactly by enumeration;
no main-term/error-term estimates are asserted.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import ceil, exp, floor, fsum, gcd, isqrt, log, log10, prod
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, InvalidParameter, UsageError
from .primes import _base_primes, factorize, iter_prime_segments

# ---------------------------------------------------------------------------
# small-prime setup: w, W_q, b_0
# ---------------------------------------------------------------------------


def small_primorial_coprime(
    q: int, w_override: Optional[int] = None
) -> tuple[int, int]:
    """(w, W_q): w = max(2, floor(log log log q)) or the override; W_q is the
    product of primes <= w not dividing q.

    At desk scale the triple logarithm is below 2, so W_q is usually trivial;
    the override lets callers exercise a nontrivial W_q.
    """
    if w_override is not None:
        w = int(w_override)
        if w < 2:
            raise UsageError(f"w override must be >= 2, got {w}")
    else:
        if q < 16:
            raise UsageError(f"need q >= 16 for log log log q (got {q})")
        lll = log(log(log(q)))
        w = max(2, floor(lll))
    Wq = 1
    for p in map(int, _base_primes(w)):
        if q % p != 0:
            Wq *= p
    return w, Wq


def choose_b0(q: int, Wq: int, offsets: Sequence[int]) -> int:
    """Smallest b0 in [1, Wq] with gcd(b0 + q*h_i, Wq) = 1 for all offsets.

    Existence is guaranteed by admissibility of the offsets (CRT over the
    primes dividing Wq, each of which misses a class).
    """
    if Wq == 1:
        return 1
    for b0 in range(1, Wq + 1):
        if all(gcd((b0 + q * h) % Wq, Wq) == 1 for h in offsets):
            return b0
    raise InvalidParameter(
        f"no admissible b0 mod {Wq}; offsets {tuple(offsets)} are not "
        f"admissible for the primes dividing W_q"
    )


# ---------------------------------------------------------------------------
# cutoff functions
# ---------------------------------------------------------------------------


class PiecewiseLinear:
    """Continuous piecewise-linear f on [0, s], zero outside; f(s) = 0."""

    def __init__(self, nodes: Sequence[tuple[float, float]]):
        nodes = tuple((float(t), float(v)) for t, v in nodes)
        if len(nodes) < 2:
            raise UsageError("need at least two nodes")
        ts = [t for t, _ in nodes]
        if ts != sorted(ts) or len(set(ts)) != len(ts):
            raise UsageError("node times must be strictly increasing")
        if ts[0] != 0.0:
            raise UsageError("support must start at 0")
        if nodes[-1][1] != 0.0:
            raise UsageError("f must vanish at the end of its support")
        self.nodes = nodes
        self.support = ts[-1]

    @classmethod
    def ramp(cls, s: float) -> "PiecewiseLinear":
        """f(t) = 1 - t/s on [0, s]."""
        return cls(((0.0, 1.0), (float(s), 0.0)))

    def __call__(self, t: float) -> float:
        if t < 0.0 or t > self.support:
            return 0.0
        for (t0, v0), (t1, v1) in zip(self.nodes, self.nodes[1:]):
            if t <= t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return 0.0

    def deriv_segments(self) -> list[tuple[float, float, float]]:
        """(t0, t1, slope) triples."""
        return [
            (t0, t1, (v1 - v0) / (t1 - t0))
            for (t0, v0), (t1, v1) in zip(self.nodes, self.nodes[1:])
        ]

    def integral_deriv(self) -> float:
        """int f' = -f(0)."""
        return -self.nodes[0][1]

    def integral_deriv_sq(self) -> float:
        """int (f')^2."""
        return fsum(s * s * (t1 - t0) for t0, t1, s in self.deriv_segments())


class CutoffF:
    """A cutoff F on [0, inf)^k, seen through its mixed derivative dF.

    Subclasses give `family` (the name reports print), `k`, `theta` (the
    level of distribution the cutoff was built for, or None) and the
    singular integrals of dF."""

    family: str
    k: int
    theta: Optional[float] = None

    def singular_I(self) -> float:
        """I(dF) = int (dF)^2."""
        raise NotImplementedError

    def singular_J(self, i: int) -> float:
        """J_i(dF) = int (int dF dt_i)^2 over the remaining coordinates."""
        if not 0 <= i < self.k:
            raise UsageError(f"coordinate {i} outside range(k={self.k})")
        return self._J(i)

    def _J(self, i: int) -> float:
        raise NotImplementedError

    def J_sum(self) -> float:
        return fsum(self.singular_J(i) for i in range(self.k))


@dataclass(frozen=True)
class TensorCutoff(CutoffF):
    """F(t) = prod_i f_i(t_i): exact weights and closed-form integrals."""

    fs: tuple[PiecewiseLinear, ...]
    family = "tensor"

    def __post_init__(self):
        object.__setattr__(self, "fs", tuple(self.fs))
        if not self.fs:
            raise UsageError("empty tensor family")

    @classmethod
    def ramp(cls, k: int, s: float) -> "TensorCutoff":
        return cls((PiecewiseLinear.ramp(s),) * k)

    @property
    def k(self) -> int:
        return len(self.fs)

    def check_support(self, theta: float, eps_k: float):
        """The supports must fit inside the simplex: sum s_i <= (theta-eps)/2."""
        total = fsum(f.support for f in self.fs)
        if total > (theta - eps_k) / 2.0 + 1e-12:
            raise InvalidParameter(
                f"tensor supports sum to {total:.6f} > (theta-eps)/2 = "
                f"{(theta - eps_k) / 2:.6f}"
            )

    def singular_I(self) -> float:
        return prod(f.integral_deriv_sq() for f in self.fs)

    def _J(self, i: int) -> float:
        return prod(
            [self.fs[i].integral_deriv() ** 2]
            + [f.integral_deriv_sq() for j, f in enumerate(self.fs) if j != i]
        )


@dataclass(frozen=True)
class PsiCutoff(CutoffF):
    """The cutoff whose mixed derivative is 1_Delta(t) * prod_i psi(t_i),
    psi(t) = 1/(c + (k-1) t), c = 1/log k - 1/log^2 k, on the simplex
    Delta = {t >= 0 : sum t_i <= (theta - eps_k)/2}.

    Its integrals come from a dimension-reduced grid quadrature, cached per
    cutoff; J_i is the same for every i."""

    k: int
    theta: float = 0.5
    eps_k: Optional[float] = None
    family = "psi_product"

    def __post_init__(self):
        if self.k < 2:
            raise UsageError("psi family needs k >= 2")
        eps_k = 1.0 / log(self.k) if self.eps_k is None else self.eps_k
        if not 0 <= eps_k < self.theta:
            raise UsageError(f"need 0 <= eps_k < theta, got {eps_k} vs {self.theta}")
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "eps_k", float(eps_k))

    @property
    def simplex_cap(self) -> float:
        """(theta - eps_k)/2."""
        return (self.theta - self.eps_k) / 2.0

    @property
    def psi_c(self) -> float:
        lk = log(self.k)
        return 1.0 / lk - 1.0 / lk**2

    def psi(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (self.psi_c + (self.k - 1) * x)

    def Psi(self, x: np.ndarray) -> np.ndarray:
        """Psi(x) = int_0^x psi."""
        return np.log1p((self.k - 1) * x / self.psi_c) / (self.k - 1)

    def singular_I(self) -> float:
        return _grid_I_J_refined(self)[0]

    def _J(self, i: int) -> float:
        return _grid_I_J_refined(self)[1]

    def J_sum(self) -> float:
        return self.k * self.singular_J(0)


# ---------------------------------------------------------------------------
# sieve parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SieveParams:
    """All sieve configuration: level of distribution theta, simplex shrink
    eps_k, tuple length k, small-prime cutoff exponent rho = 1/(100k),
    small-prime bound w, primorial W_q, residue b0."""

    theta: float
    eps_k: float
    k: int
    rho: Fraction
    w: int
    Wq: int
    b0: int

    @classmethod
    def build(
        cls,
        q: int,
        offsets: Sequence[int],
        theta: float = 0.5,
        eps_k: Optional[float] = None,
        w_override: Optional[int] = None,
    ) -> "SieveParams":
        k = len(offsets)
        if k < 1:
            raise UsageError("need at least one offset")
        if eps_k is None:
            eps_k = 1.0 / log(k) if k >= 2 else 0.0
        w, Wq = small_primorial_coprime(q, w_override)
        b0 = choose_b0(q, Wq, offsets)
        return cls(
            theta=float(theta), eps_k=float(eps_k), k=k, rho=Fraction(1, 100 * k),
            w=w, Wq=Wq, b0=b0,
        )


# ---------------------------------------------------------------------------
# divisor sums
# ---------------------------------------------------------------------------


def _distinct_primes(n: int) -> list[int]:
    return sorted(factorize(n))


def _mu_divisors_bounded(primes: Sequence[int], cap: float) -> list[tuple[float, int]]:
    """(log d, mu(d)) over squarefree divisors d = products of the given
    primes with log d <= cap.  Primes above exp(cap) are pruned up front."""
    logs = [log(p) for p in primes if log(p) <= cap + 1e-12]
    out = [(0.0, 1)]
    for lp in logs:
        out.extend(
            (ld + lp, -mu) for ld, mu in list(out) if ld + lp <= cap + 1e-12
        )
    return out


def _lambda_from_primes(primes: Sequence[int], f: PiecewiseLinear, logq: float) -> float:
    """lambda_f(n) = sum over squarefree d | n of mu(d) * f(log d / log q),
    from the distinct primes of n, enumerating only divisors inside the
    support (d <= q^s)."""
    terms = [
        mu * f(ld / logq)
        for ld, mu in _mu_divisors_bounded(primes, f.support * logq)
    ]
    return fsum(terms)


def weight(
    a: int, q: int, params: SieveParams, F: CutoffF, offsets: Sequence[int]
) -> float:
    """The sieve weight w_a >= 0 (a square), vanishing off the b0 class.

    Tensor cutoffs only: they factor exactly as
    (prod_i lambda_{f_i}(a + q h_i))^2.
    """
    if not isinstance(F, TensorCutoff):
        raise UsageError("weight needs the tensor family (exact weights)")
    if gcd(a, q) != 1:
        raise UsageError(f"gcd({a}, {q}) != 1")
    if len(offsets) != params.k:
        raise UsageError("offsets length differs from params.k")
    F.check_support(params.theta, params.eps_k)
    if params.Wq > 1 and a % params.Wq != params.b0 % params.Wq:
        return 0.0
    logq = log(q)
    inner = 1.0
    for h, f_i in zip(offsets, F.fs):
        inner *= _lambda_from_primes(_distinct_primes(a + q * h), f_i, logq)
    return inner * inner


# ---------------------------------------------------------------------------
# psi-family singular integrals
# ---------------------------------------------------------------------------

_GRID_N = 1 << 13
_GRID_TOL = 1e-6


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT handles fast."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _trap_conv(f: np.ndarray, g: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid discretization of (f*g)(t) = int_0^t f(u) g(t-u) du on the
    same grid.  The linear convolution is an FFT product of length
    >= 2n - 1, so no wrap-around reaches the first n entries."""
    n = len(f)
    m = _fft_size(2 * n - 1)
    s = np.fft.irfft(np.fft.rfft(f, m) * np.fft.rfft(g, m), m)[:n]
    s = s - 0.5 * (f[0] * g + f * g[0])
    return s * dx


def _grid_I_J(F: PsiCutoff, n_grid: int) -> tuple[float, float]:
    """I and J_1 for the psi family by dimension reduction:
    I = int_0^R rho^{*k}, J = int_0^R rho^{*(k-1)}(s) Psi(R-s)^2 ds,
    rho = psi^2 (convolutions on a 1-d grid)."""
    R = F.simplex_cap
    x = np.linspace(0.0, R, n_grid + 1)
    dx = R / n_grid
    rho = F.psi(x) ** 2
    conv = rho.copy()
    for _ in range(F.k - 2):
        conv = _trap_conv(conv, rho, dx)
    # conv is now rho^{*(k-1)}
    J = float(np.trapezoid(conv * F.Psi(R - x) ** 2, dx=dx))
    conv_k = _trap_conv(conv, rho, dx)
    I = float(np.trapezoid(conv_k, dx=dx))
    return I, J


@lru_cache(maxsize=64)
def _grid_I_J_refined(F: PsiCutoff) -> tuple[float, float]:
    """Richardson-checked grid values; raises when not converged."""
    I1, J1 = _grid_I_J(F, _GRID_N)
    I2, J2 = _grid_I_J(F, 2 * _GRID_N)
    if abs(I2 - I1) > _GRID_TOL * max(1.0, abs(I2)) or abs(J2 - J1) > _GRID_TOL * max(
        1.0, abs(J2)
    ):
        raise BudgetExceeded(
            f"grid quadrature did not converge for k={F.k}: "
            f"dI={abs(I2 - I1):.2e}, dJ={abs(J2 - J1):.2e}"
        )
    return I2, J2


@dataclass(frozen=True)
class RatioReport:
    ratio: float  # sum_i J_i / I
    I: float
    J_sum: float
    bound: Optional[float]  # (theta/2) log k - C2
    exceeds_bound: Optional[bool]
    detects_m: Optional[bool]  # ratio > m - 1


def detection_ratio(
    F: CutoffF,
    theta: Optional[float] = None,
    C2: float = 0.0,
    m: Optional[int] = None,
) -> RatioReport:
    """sum_i J_i(dF) / I(dF), flagged against (theta/2) log k - C2 and, when
    m is given, against the m-cluster success criterion ratio > m - 1.
    theta defaults to the cutoff's own (none for a tensor cutoff)."""
    I = F.singular_I()
    if I <= 0:
        raise InvalidParameter("I(F) must be positive")
    J_sum = F.J_sum()
    theta = F.theta if theta is None else theta
    ratio = J_sum / I
    bound = None
    exceeds = None
    if theta is not None and F.k >= 2:
        bound = (theta / 2.0) * log(F.k) - C2
        exceeds = ratio > bound
    return RatioReport(
        ratio=ratio, I=I, J_sum=J_sum, bound=bound, exceeds_bound=exceeds,
        detects_m=(ratio > m - 1) if m is not None else None,
    )


@dataclass(frozen=True)
class SelectKRho:
    k: int
    rho_log10: float
    rho_ok_smallprime: bool  # rho <= 1/(100 k)
    desk_scale: bool  # k <= 12; larger k is proof-scale only


def select_k_rho(m: int, theta: float, C2: float = 0.0) -> SelectKRho:
    """k = ceil(exp((2/theta)(m + C2))), rho = k^-k.

    rho is reported in log10.  k > 12 is proof-scale, not desk-scale.
    """
    if m < 2:
        raise UsageError(f"need m >= 2, got {m}")
    if not 0 < theta <= 1:
        raise UsageError(f"need theta in (0, 1], got {theta}")
    if C2 < 0:
        raise UsageError(f"need C2 >= 0, got {C2}")
    k = ceil(exp((2.0 / theta) * (m + C2)))
    # rho <= 1/(100k)  <=>  k^(k-1) >= 100
    ok = (k - 1) * log(k) >= log(100.0)
    return SelectKRho(
        k=k, rho_log10=-k * log10(k), rho_ok_smallprime=ok, desk_scale=k <= 12
    )


# ---------------------------------------------------------------------------
# the exact pigeonhole sum S
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SSumReport:
    """Component sums of S over the b0 class of reduced residues.

    S = sum_i prime_sums[i] - (m-1) * nonprime_sum - k * sum_i smallfactor_sums[i]
    and #{a : at least m of the a + q h_i are prime} >= S / (k * max_weight).
    """

    q: int
    m: int
    k: int
    offsets: tuple[int, ...]
    nonprime_sum: float
    prime_sums: tuple[float, ...]
    smallfactor_sums: tuple[float, ...]
    S: float
    max_weight: float
    census_lower_bound: float
    residues_enumerated: int
    smallprime_cutoff: int  # floor(q^rho)

    def recombine(self) -> float:
        """Recompute S from the stored parts (canonical order)."""
        return fsum(self.prime_sums) - (self.m - 1) * self.nonprime_sum - self.k * fsum(
            self.smallfactor_sums
        )


# Residue positions per numpy chunk of s_sum_bruteforce.
_SSUM_CHUNK = 1 << 15


def _log_cut(cap: float, top: int) -> int:
    """Largest t <= top with log(t) <= cap + 1e-12, the prime filter of
    _mu_divisors_bounded.  Below 2^40 consecutive integers differ in log by
    more than 1e-13, far above the error of math.log, so the filter keeps
    exactly the primes p <= t."""
    c = cap + 1e-12
    if log(top) <= c:
        return top
    t = floor(exp(c))
    while log(t + 1) <= c:
        t += 1
    while log(t) > c:
        t -= 1
    return t


def _factor_keys(
    n: np.ndarray, trial: Sequence[int], cut: int, p_cut: int, cofactor: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Per entry of n: the product of its distinct prime factors p <= cut,
    and the number of its distinct prime factors p <= p_cut.

    trial holds the primes up to min(max(cut, p_cut), isqrt(max n)).  When
    cofactor is set it holds every prime up to isqrt(max n); dividing them
    out leaves 1 or the one prime factor above isqrt(max n).
    """
    key = np.ones_like(n)
    small = np.zeros(n.shape, dtype=np.int64)
    rest = n.copy() if cofactor else None
    for p in trial:
        hit = n % p == 0
        if p <= cut:
            key[hit] *= p
        if p <= p_cut:
            small += hit
        if cofactor:
            idx = np.flatnonzero(hit)
            while idx.size:
                rest[idx] //= p
                idx = idx[rest[idx] % p == 0]
    if cofactor:
        big = rest > 1
        sel = big & (rest <= cut)
        key[sel] *= rest[sel]
        small += big & (rest <= p_cut)
    return key, small


def _key_primes(key: int, trial: Sequence[int]) -> list[int]:
    """Increasing primes of a key built by _factor_keys."""
    ps = [p for p in trial if key % p == 0]
    for p in ps:
        key //= p
    if key > 1:
        ps.append(key)
    return ps


def s_sum_bruteforce(
    q: int,
    m: int,
    offsets: Sequence[int],
    params: SieveParams,
    F: CutoffF,
    work_cap: int = 2_000_000,
) -> SSumReport:
    """Exact evaluation of all three component sums over the reduced
    residues a = b0 (mod W_q).  Tensor cutoffs only (exact weights).

    The residues are processed in numpy chunks.  lambda_{f_i}(a + q h_i)
    depends only on the primes p <= q^{s_i} dividing a + q h_i, so each
    residue gets the product of those primes as an integer key, found by
    trial division of the whole chunk, and the divisor sum runs once per
    distinct key.  Products, squares and small-factor counts are taken
    elementwise, and every sum is an fsum, so the report does not depend on
    the order or the chunking of the residues.
    """
    if not isinstance(F, TensorCutoff):
        raise UsageError("s_sum_bruteforce needs the tensor family (exact weights)")
    F.check_support(params.theta, params.eps_k)
    offsets = tuple(offsets)
    k = len(offsets)
    if k != params.k:
        raise UsageError("offsets length differs from params.k")
    if min(offsets) < 0:
        raise UsageError(f"offsets must be >= 0, got {offsets}")
    top = q + q * max(offsets)
    n_residues = q // max(params.Wq, 1) + 1
    if n_residues * k > work_cap or top > 2**40:
        raise BudgetExceeded(
            f"{n_residues} residues x {k} offsets exceeds work cap {work_cap}"
        )

    # prime flags of a + q h_i for a in [1, q]: one window per offset
    flags = []
    for h in offsets:
        bits = np.zeros(q, dtype=bool)
        base = q * h + 1
        for seg in iter_prime_segments(base, base + q):
            bits[seg.lo - base : seg.hi - base] = seg.bits
        flags.append(bits)

    logq = log(q)
    p_cut = floor(exp(float(params.rho) * logq))
    step = params.Wq if params.Wq > 1 else 1
    start = params.b0 % step or step

    cuts = [_log_cut(f.support * logq, top) for f in F.fs]
    reach = max(max(cuts), p_cut)
    root = isqrt(top)
    trial = [int(p) for p in _base_primes(min(reach, root))]
    lam_cache: dict[PiecewiseLinear, dict[int, float]] = {}

    w_chunks: list[np.ndarray] = []
    prime_chunks: list[list[np.ndarray]] = [[] for _ in range(k)]
    small_chunks: list[list[np.ndarray]] = [[] for _ in range(k)]
    max_w = 0.0
    count = 0
    for lo in range(start, q + 1, step * _SSUM_CHUNK):
        a = np.arange(lo, min(lo + step * _SSUM_CHUNK, q + 1), step, dtype=np.int64)
        a = a[np.gcd(a, q) == 1]
        count += a.size
        prod = np.ones(a.size)
        counts = []
        for h, f_i, cut in zip(offsets, F.fs, cuts):
            key, small = _factor_keys(a + q * h, trial, cut, p_cut, reach > root)
            uniq, inv = np.unique(key, return_inverse=True)
            cache = lam_cache.setdefault(f_i, {})
            lam = []
            for kk in uniq.tolist():
                if kk not in cache:
                    cache[kk] = _lambda_from_primes(_key_primes(kk, trial), f_i, logq)
                lam.append(cache[kk])
            prod = prod * np.array(lam, dtype=np.float64)[inv]
            counts.append(small)
        w = prod * prod
        nz = w != 0.0
        w = w[nz]
        if w.size:
            max_w = max(max_w, float(w.max()))
        w_chunks.append(w)
        idx = a[nz] - 1
        for i in range(k):
            prime_chunks[i].append(w[flags[i][idx]])
            if p_cut >= 2:
                c = counts[i][nz]
                hit = c != 0
                small_chunks[i].append(c[hit] * w[hit])

    def total(chunks: list[np.ndarray]) -> float:
        return fsum(chain.from_iterable(c.tolist() for c in chunks))

    nonprime = total(w_chunks)
    primes_s = tuple(total(cs) for cs in prime_chunks)
    smalls = tuple(total(cs) for cs in small_chunks)
    S = fsum(primes_s) - (m - 1) * nonprime - k * fsum(smalls)
    lower = S / (k * max_w) if max_w > 0 else 0.0
    return SSumReport(
        q=q, m=m, k=k, offsets=offsets,
        nonprime_sum=nonprime, prime_sums=primes_s, smallfactor_sums=smalls,
        S=S, max_weight=max_w, census_lower_bound=lower,
        residues_enumerated=count, smallprime_cutoff=p_cut,
    )


# ---------------------------------------------------------------------------
# level of distribution of reduced residues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscrepancyReport:
    q: int
    R: int
    value: float
    exact: Fraction
    moduli_used: int


def discrepancy_reduced(q: int, R: int, work_cap: int = 10**9) -> DiscrepancyReport:
    """Exact sum over r <= R coprime to q of
    max_c | #{a <= q reduced, a = c mod r} - phi(q)/r |."""
    if not 1 <= R < q:
        raise UsageError(f"need 1 <= R < q, got R={R}, q={q}")
    if q * R > work_cap:
        raise BudgetExceeded(f"q*R = {q * R} exceeds work cap {work_cap}")
    a = np.arange(1, q + 1, dtype=np.int64)
    reduced = a[np.gcd(a, q) == 1]
    phi = len(reduced)
    total = Fraction(0)
    used = 0
    for r in range(1, R + 1):
        if gcd(r, q) != 1:
            continue
        used += 1
        counts = np.bincount(reduced % r, minlength=r)
        dev = np.abs(counts * r - phi)  # |r*count_c - phi| over classes c
        total += Fraction(int(dev.max()), r)
    return DiscrepancyReport(q=q, R=R, value=float(total), exact=total, moduli_used=used)
