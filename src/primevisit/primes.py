"""Prime generation and testing.

Segmented sieve over intervals and over arithmetic progressions, plus a
deterministic Miller-Rabin test for machine-word integers.  Everything here
is exact; no probabilistic answers.
"""

from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .errors import RangeTooLarge, UsageError, FactorizationFailure

# Default number of flags per sieve segment (cache friendly, no tuning knob).
SEGMENT_CAP = 1 << 22

# Flags in the first window of iter_prime_segments; later windows double.
FIRST_WINDOW = 1 << 16

_MAX_N = 1 << 63

# Witness set deterministic for all n < 2^64.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class PrimeRange:
    """Primality bitmap for the half-open interval [lo, hi)."""

    lo: int
    hi: int
    bits: np.ndarray  # bool, bits[i] set iff lo+i is prime

    def primes(self) -> np.ndarray:
        return self.lo + np.flatnonzero(self.bits)


def _base_primes(limit: int) -> np.ndarray:
    """All primes <= limit by a plain sieve (numpy bitmap)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def sieve_range(lo: int, hi: int) -> PrimeRange:
    """Exact primality flags for every n in [lo, hi).

    Raises RangeTooLarge when hi - lo exceeds SEGMENT_CAP; the caller is
    expected to iterate segments (see iter_prime_segments).
    """
    if not (2 <= lo < hi):
        raise UsageError(f"need 2 <= lo < hi, got lo={lo}, hi={hi}")
    if hi > _MAX_N:
        raise UsageError(f"hi={hi} beyond supported range 2^63")
    if hi - lo > SEGMENT_CAP:
        raise RangeTooLarge(
            f"segment [{lo}, {hi}) has {hi - lo} flags > cap {SEGMENT_CAP}"
        )
    flags = np.ones(hi - lo, dtype=bool)
    for p in _base_primes(isqrt(hi - 1)):
        p = int(p)
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start < hi:
            flags[start - lo :: p] = False
    return PrimeRange(lo, hi, flags)


def iter_prime_segments(lo: int, hi: int):
    """Yield PrimeRange segments tiling [lo, hi) contiguously, in order.

    Windows start small and double: the first has min(FIRST_WINDOW,
    SEGMENT_CAP) flags, each later one twice the previous, up to SEGMENT_CAP.
    A consumer that stops early (the m-th prime of a class, the first prime
    visits of an orbit) then sieves about twice what it reads, not a whole
    SEGMENT_CAP; a consumer of the full range pays only for a few extra
    small windows.
    """
    lo = max(lo, 2)
    width = min(FIRST_WINDOW, SEGMENT_CAP)
    while lo < hi:
        top = min(lo + width, hi)
        yield sieve_range(lo, top)
        lo = top
        width = min(2 * width, SEGMENT_CAP)


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n <= 2^63."""
    if not 0 <= n <= _MAX_N:
        raise UsageError(f"n={n} outside supported range [0, 2^63]")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    # Miller-Rabin with a witness set valid below 2^64.
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _ap_terms(q: int, a: int, limit: int) -> range:
    """The terms a, a + q, a + 2q, ... <= limit (from a + q when a < 2) that
    may be prime: only the first when gcd(a, q) > 1, since every later term
    is a multiple of that gcd."""
    first = a if a >= 2 else a + q
    return range(first, (limit if gcd(a, q) == 1 else min(limit, first)) + 1, q)


def walk_ap(q: int, a: int, limit: int):
    """Yield the primes p <= limit with p = a (mod q), in increasing order,
    by testing the terms of the progression in turn."""
    return (n for n in _ap_terms(q, a, limit) if is_prime(n))


# Below this many progression terms, walking and testing beats sieving.
_WALK_STEPS = 4096


def primes_in_ap(q: int, a: int, limit: int) -> list[int]:
    """All primes p <= limit with p = a (mod q), strictly increasing.

    Works for any residue, reduced or not (a class that is not reduced has
    one term to walk).  q = 1 returns all primes up to the limit.
    """
    if q < 1:
        raise UsageError(f"modulus must be >= 1, got {q}")
    if not 0 <= a < q:
        raise UsageError(f"residue {a} outside [0, {q})")
    if not _ap_terms(q, a, limit)[_WALK_STEPS:]:  # at most _WALK_STEPS terms
        return list(walk_ap(q, a, limit))

    out = []
    for seg in iter_prime_segments(2, limit + 1):
        ps = seg.primes()
        out.extend(int(p) for p in ps[ps % q == a])
    return out


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division.

    Intended for the desk-scale integers that show up in divisor sums
    (n up to ~10^12); raises beyond 2^63.
    """
    if n <= 0 or n > _MAX_N:
        raise FactorizationFailure(f"n={n} outside supported range")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # wheel over 6k +/- 1
    p = 7
    step = 4
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += step
        step = 6 - step
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisor_count(n: int) -> int:
    """tau(n), the number of divisors."""
    t = 1
    for e in factorize(n).values():
        t *= e + 1
    return t
