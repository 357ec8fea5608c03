"""Prime clusters in arithmetic progressions and admissible tuples.

Computes the m-th least prime p_m(q, a) in a progression, minimizes it over
reduced residues, counts residues whose m-th prime arrives by a given bound,
and constructs/verifies admissible k-tuples (the offset patterns that make
simultaneous primality of a + q*h_i possible).
"""

from dataclasses import dataclass
from itertools import islice
from math import ceil, exp, gcd, log
from typing import Optional, Sequence

import numpy as np

from .errors import (BudgetExceeded, CapExceeded, KTooLarge, NonCoprimeResidue,
                     UsageError)
from .primes import (  # noqa: F401  (is_prime stays importable from here)
    is_prime,
    iter_prime_segments,
    primes_in_ap,
    walk_ap,
    _base_primes,
)

# Default search cap multiplier: cap = CAP_FACTOR * m * q.  Comfortably above
# the proven m=2 budget constant (270) and the phi(q) log q scale at desk size.
CAP_FACTOR = 300

# Proven budget constant for pair clusters (m = 2): min_a p_2(q, a) <= 270 q
# for all large q.
PAIR_BUDGET = 270

# Largest modulus whose residue classes min_pm and cluster_census count one
# by one: a count is one byte for m < 256, so this is 200 MB.
MAX_CLASSES = 2 * 10**8

# Exhaustive narrowest-tuple search is exact up to this k; greedy beyond.
EXACT_TUPLE_K = 12
TUPLE_K_CAP = 50


@dataclass(frozen=True)
class Progression:
    """A modulus/residue pair with gcd(a, q) = 1."""

    q: int
    a: int

    def __post_init__(self):
        if self.q < 2:
            raise UsageError(f"modulus must be >= 2, got {self.q}")
        if not 0 <= self.a < self.q:
            raise UsageError(f"residue {self.a} outside [0, {self.q})")
        if gcd(self.a, self.q) != 1:
            raise NonCoprimeResidue(
                f"residue not coprime to modulus: gcd({self.a}, {self.q}) = "
                f"{gcd(self.a, self.q)}"
            )


@dataclass(frozen=True)
class PrimeClusterResult:
    """The m smallest primes in a progression and the normalized m-th one."""

    progression: Progression
    primes: tuple[int, ...]

    @property
    def p_m(self) -> int:
        return self.primes[-1]

    @property
    def normalized(self) -> float:
        """p_m(q, a) / q."""
        return self.p_m / self.progression.q


@dataclass(frozen=True)
class AdmissibleTuple:
    """Offsets h_1 < ... < h_k with h_1 = 0 avoiding a full residue class
    modulo every prime."""

    k: int
    offsets: tuple[int, ...]
    optimal: bool = True  # False when produced by the greedy fallback

    @property
    def diameter(self) -> int:
        return self.offsets[-1] - self.offsets[0]


@dataclass(frozen=True)
class AdmissibilityCheck:
    ok: bool
    witness: Optional[int] = None  # prime whose classes are all covered


@dataclass(frozen=True)
class Theorem11Row:
    q: int
    a_star: int
    p_m: int
    ratio: float  # p_m / q
    h_budget: float
    passed: bool


def default_cap(q: int, m: int) -> int:
    return CAP_FACTOR * m * q


def cluster_budget(m: int, C: float) -> float:
    """Budget of shape C * m * exp(4m); the constant C is configuration, not
    an asserted value (only m = 2 has the proven constant 270)."""
    if not C > 0:
        raise UsageError(f"need C > 0, got {C}")
    return C * m * exp(4 * m)


def budget_h(m: int, h: Optional[float]) -> float:
    """The cluster budget h of a search for m primes: h itself when given,
    the proven PAIR_BUDGET for m = 2; any other m needs an explicit h."""
    if h is None and m != 2:
        raise UsageError("h budget required for m != 2 (shape C * m * exp(4m))")
    h = float(PAIR_BUDGET) if h is None else h
    if not h > 0:
        raise UsageError(f"need h > 0, got {h}")
    return h


def _class_counts(q: int, m: int) -> np.ndarray:
    """A zero count per residue class mod q, in the smallest dtype that
    holds m: callers stop counting a class at m."""
    if q > MAX_CLASSES:
        size = q if q < 2**64 else f"a {q.bit_length()}-bit number"
        raise BudgetExceeded(f"q = {size} has more residue classes than the "
                             f"{MAX_CLASSES} that can be counted")
    return np.zeros(q, dtype=np.min_scalar_type(m))


def pm(q: int, a: int, m: int, cap: Optional[int] = None) -> PrimeClusterResult:
    """The m smallest primes p = a (mod q); fails cleanly below the cap."""
    prog = Progression(q, a)
    if m < 1:
        raise UsageError(f"m must be >= 1, got {m}")
    if cap is None:
        cap = default_cap(q, m)
    if cap < q:
        raise UsageError(f"cap {cap} below modulus {q}")
    found = tuple(islice(walk_ap(q, a, cap), m))
    if len(found) == m:
        return PrimeClusterResult(prog, found)
    raise CapExceeded(
        f"only {len(found)} primes = {a} (mod {q}) up to {cap}, wanted {m}"
    )


def min_pm(
    q: int, m: int, cap: Optional[int] = None
) -> tuple[int, PrimeClusterResult]:
    """Minimize p_m(q, a) over reduced residues a.

    Scans primes in increasing order and stops at the first residue class
    that accumulates m of them; that class attains the minimum (the final
    prime belongs to exactly one class, so there are no ties).

    The scan runs per sieve window, in numpy.  Primes dividing q are dropped
    (for a prime p, p | q is the same as gcd(p mod q, q) != 1).  The
    residues r = p mod q are stably sorted, which ranks each prime within
    its class in prime order; adding the counts carried over from earlier
    windows (one dense array of length q) gives each prime's running count
    in its class.  The first prime, in prime order, whose running count
    reaches m is p_m and its class is a*; the class's m primes are then
    recovered with primes_in_ap.  A window without such a prime adds its
    per-class counts and the scan moves on.
    """
    if q < 2:
        raise UsageError(f"modulus must be >= 2, got {q}")
    if m < 1:
        raise UsageError(f"m must be >= 1, got {m}")
    if cap is None:
        cap = default_cap(q, m)
    counts = _class_counts(q, m)  # primes so far per class, all < m
    for seg in iter_prime_segments(2, cap + 1):
        ps = seg.primes()
        ps = ps[q % ps != 0]
        r = ps % q
        order = np.argsort(r, kind="stable")
        rs = r[order]
        first = np.ones(len(rs), dtype=bool)
        first[1:] = rs[1:] != rs[:-1]
        starts = np.flatnonzero(first)  # each class's run in rs
        sizes = np.diff(starts, append=len(rs))
        classes = rs[starts]
        if np.any(counts[classes] + sizes >= m):
            rank = np.arange(len(rs)) - np.repeat(starts, sizes) + 1
            j = int(order[counts[rs] + rank >= m].min())
            a_star, p_m = int(r[j]), int(ps[j])
            primes = primes_in_ap(q, a_star, p_m)
            assert len(primes) == m, f"internal: class {a_star} holds {primes}"
            return a_star, PrimeClusterResult(Progression(q, a_star), tuple(primes))
        counts[classes] += sizes.astype(counts.dtype)
    raise CapExceeded(f"no residue class mod {q} collected {m} primes up to {cap}")


def cluster_census(q: int, m: int, X: int) -> int:
    """Number of reduced residues a mod q with p_m(q, a) <= X."""
    if q < 2 or m < 1 or X < q:
        raise UsageError(f"need q >= 2, m >= 1, X >= q; got q={q}, m={m}, X={X}")
    counts = _class_counts(q, m)  # primes per class, stopped at m
    for seg in iter_prime_segments(2, X + 1):
        ps = seg.primes()
        # a prime dividing q is the one prime of a class that is not reduced
        classes, sizes = np.unique(ps[q % ps != 0] % q, return_counts=True)
        counts[classes] = np.minimum(counts[classes] + sizes, m)
    return int(np.count_nonzero(counts >= m))


def is_admissible(offsets: Sequence[int]) -> AdmissibilityCheck:
    """Covering check: every prime p <= k must miss at least one class.

    (Primes p > k can never be fully covered by k offsets.)  Returns the
    witness prime on failure.
    """
    offs = tuple(offsets)
    if list(offs) != sorted(set(offs)):
        raise UsageError("offsets must be sorted and distinct")
    k = len(offs)
    for p in map(int, _base_primes(max(k, 2))):
        if p > k:
            break
        if len({h % p for h in offs}) == p:
            return AdmissibilityCheck(False, witness=p)
    return AdmissibilityCheck(True)


def _exact_narrowest(k: int) -> tuple[int, ...]:
    """Minimal-diameter admissible k-tuple with h_1 = 0, by branch and bound.

    All offsets must be even (the class of 0 mod 2 is taken by h_1), so only
    even diameters and even interior offsets are searched.
    """
    if k == 1:
        return (0,)
    if k == 2:
        return (0, 2)
    primes = [int(p) for p in _base_primes(k)]

    def search(d: int) -> Optional[tuple[int, ...]]:
        # used[p] = residue classes occupied so far; dead once all p occupied
        used = {p: {0 % p, d % p} for p in primes}
        if any(len(used[p]) == p for p in primes):
            return None
        chosen = [0]

        def extend(start: int) -> Optional[tuple[int, ...]]:
            if len(chosen) == k - 1:
                return tuple(chosen) + (d,)
            need = (k - 1) - len(chosen)
            for h in range(start, d - 2 * (need - 1), 2):
                touched = []
                ok = True
                for p in primes:
                    r = h % p
                    if r not in used[p]:
                        if len(used[p]) == p - 1:
                            ok = False
                            break
                        used[p].add(r)
                        touched.append((p, r))
                if ok:
                    chosen.append(h)
                    res = extend(h + 2)
                    if res is not None:
                        return res
                    chosen.pop()
                for p, r in touched:
                    used[p].discard(r)
            return None

        return extend(2)

    d = 2 * (k - 1)
    while True:
        res = search(d)
        if res is not None:
            return res
        d += 2


def _greedy_tuple(k: int) -> tuple[int, ...]:
    """Sieve [0, L] by one residue class per prime <= k, take the first k
    survivors, shift to start at 0.  Admissible but not necessarily minimal."""
    primes = [int(p) for p in _base_primes(k)]
    L = max(2 * k, int(ceil(2.2 * k * log(k + 1))))
    while True:
        alive = np.ones(L + 1, dtype=bool)
        for p in primes:
            # remove the class with the fewest survivors
            residues = np.arange(L + 1) % p
            counts = np.bincount(residues[alive], minlength=p)
            c = int(np.argmin(counts))
            alive &= residues != c
        survivors = np.flatnonzero(alive)
        if len(survivors) >= k:
            offs = survivors[:k] - survivors[0]
            return tuple(int(h) for h in offs)
        L = int(L * 1.4) + 1


def narrowest_tuple(k: int) -> AdmissibleTuple:
    """Admissible k-tuple starting at 0 with minimal diameter for k <= 12;
    greedy (flagged non-optimal) above."""
    if not 1 <= k <= TUPLE_K_CAP:
        raise KTooLarge(f"k={k} outside [1, {TUPLE_K_CAP}]")
    if k <= EXACT_TUPLE_K:
        offs = _exact_narrowest(k)
        optimal = True
    else:
        offs = _greedy_tuple(k)
        optimal = False
    check = is_admissible(offs)
    assert check.ok, f"internal: produced inadmissible tuple, witness {check.witness}"
    return AdmissibleTuple(k, offs, optimal=optimal)


def theorem11_report(
    q_list: Sequence[int],
    m: int = 2,
    h_budget: Optional[float] = None,
    cap: Optional[int] = None,
) -> list[Theorem11Row]:
    """Per-modulus table q, a*, p_m(q, a*), p_m/q, pass/fail vs h_budget * q.

    The budget is budget_h(m, h_budget): the proven constant 270 for m = 2
    by default; other m need one (shape C * m * exp(4m) with C configurable).
    """
    h_budget = budget_h(m, h_budget)
    rows = []
    for q in q_list:
        a_star, res = min_pm(q, m, cap=cap)
        rows.append(Theorem11Row(q=q, a_star=a_star, p_m=res.p_m, ratio=res.p_m / q,
                                 h_budget=h_budget, passed=res.p_m <= h_budget * q))
    return rows
