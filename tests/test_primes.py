import numpy as np
import pytest
import sympy

from primevisit.errors import RangeTooLarge, UsageError
from primevisit.primes import (
    FIRST_WINDOW,
    SEGMENT_CAP,
    divisor_count,
    factorize,
    is_prime,
    iter_prime_segments,
    primes_in_ap,
    sieve_range,
)


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_sieve_first_primes():
    assert list(sieve_range(2, 12).primes()) == [2, 3, 5, 7, 11]


def test_sieve_90_100():
    # oracle: trial division
    expect = [n for n in range(90, 100) if trial_division(n)]
    assert list(sieve_range(90, 100).primes()) == expect == [97]


def test_sieve_rejects_lo_below_2():
    with pytest.raises(UsageError):
        sieve_range(1, 2)


def test_sieve_segment_cap():
    with pytest.raises(RangeTooLarge):
        sieve_range(2, 2 + (1 << 23))
    # caller iterates segments instead
    total = sum(len(s.primes()) for s in iter_prime_segments(2, 10**5, 2**14))
    assert total == len(sieve_range(2, 10**5).primes())


def test_is_prime_basics():
    assert not is_prime(1)
    assert is_prime(10007)
    assert is_prime(2) and is_prime(3)
    assert not is_prime(0)


def test_is_prime_large_vs_sympy():
    # independent big-integer oracle
    assert is_prime(10**18 + 9) == sympy.isprime(10**18 + 9) is True
    rng = np.random.default_rng(7)
    for n in rng.integers(10**12, 10**15, size=40):
        n = int(n)
        assert is_prime(n) == sympy.isprime(n)


def test_sieve_agrees_with_is_prime():
    # exhaustive up to 10^6
    for seg in iter_prime_segments(2, 10**6):
        for i, flag in enumerate(seg.bits):
            assert bool(flag) == is_prime(seg.lo + i)
    # randomized spot checks above
    rng = np.random.default_rng(3)
    lo = int(rng.integers(10**9, 10**10))
    seg = sieve_range(lo, lo + 10**4)
    for n in range(lo, lo + 10**4, 97):
        assert bool(seg.bits[n - seg.lo]) == is_prime(n)


def test_primes_in_ap_examples():
    assert primes_in_ap(4, 1, 30) == [5, 13, 17, 29]
    assert primes_in_ap(2, 0, 100) == [2]
    assert primes_in_ap(6, 4, 50) == []


def test_primes_in_ap_vs_sieve_filter():
    for q, a in ((7, 3), (12, 5), (10, 9), (9, 0)):
        want = [int(p) for p in sieve_range(2, 5000).primes() if p % q == a]
        assert primes_in_ap(q, a, 4999) == want


def test_primes_in_ap_switches_to_sieve_mode():
    # small q forces the residue-filtered sieve branch
    got = primes_in_ap(3, 2, 10**5)
    want = [int(p) for p in sieve_range(2, 10**5 + 1).primes() if p % 3 == 2]
    assert got == want


def test_prime_counting():
    assert len(primes_in_ap(1, 0, 10**6)) == 78498


def test_factorize_and_tau():
    assert factorize(2310) == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1}
    assert factorize(1) == {}
    assert factorize(2**10 * 3**4) == {2: 10, 3: 4}
    assert divisor_count(2310) == 32
    assert divisor_count(101) == 2


@pytest.mark.parametrize(
    "lo, hi, cap",
    [
        (2, 10**6, SEGMENT_CAP),
        (2, 10**6, 2**14),  # cap below the first window
        (999_983, 1_500_000, 2**17),
        (10**9, 10**9 + 300_000, SEGMENT_CAP),
        (5, 6, SEGMENT_CAP),
        (0, 2**16 + 3, 2**16),
    ],
)
def test_iter_prime_segments_doubling_tiles(lo, hi, cap):
    segs = list(iter_prime_segments(lo, hi, cap))
    assert segs[0].lo == max(lo, 2) and segs[-1].hi == hi
    width = min(FIRST_WINDOW, cap)
    for seg, nxt in zip(segs, segs[1:] + [None]):
        assert seg.hi - seg.lo == (width if nxt is not None else min(width, hi - seg.lo))
        assert nxt is None or nxt.lo == seg.hi
        width = min(2 * width, cap)
    whole = sieve_range(max(lo, 2), hi, hi - max(lo, 2))
    assert np.array_equal(np.concatenate([s.bits for s in segs]), whole.bits)
