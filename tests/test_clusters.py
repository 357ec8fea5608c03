import itertools
from math import gcd, log

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primevisit.errors import CapExceeded, KTooLarge, NonCoprimeResidue
from primevisit.clusters import (
    Progression,
    cluster_census,
    default_cap,
    is_admissible,
    min_pm,
    narrowest_tuple,
    pm,
    theorem11_report,
)
from primevisit.primes import is_prime, iter_prime_segments


def test_pm_examples():
    assert pm(4, 1, 2, 10**4).primes == (5, 13)
    assert pm(3, 2, 3, 10**3).primes == (2, 5, 11)
    with pytest.raises(NonCoprimeResidue):
        pm(4, 2, 1, 10**3)


def test_pm_cap_exceeded():
    with pytest.raises(CapExceeded) as info:
        pm(10**4 + 1, 1, 50, cap=10**4 + 2)
    assert str(info.value) == "only 0 primes = 1 (mod 10001) up to 10002, wanted 50"
    with pytest.raises(CapExceeded) as info:
        pm(4, 1, 3, cap=16)
    assert str(info.value) == "only 2 primes = 1 (mod 4) up to 16, wanted 3"


def test_pm_monotone_in_m():
    for q, a in ((7, 3), (10, 9), (4, 1)):
        prev = 0
        for m in range(1, 5):
            p = pm(q, a, m).p_m
            assert p > prev
            prev = p


def test_min_pm_examples():
    a, res = min_pm(10, 2, 10**3)
    assert (a, res.p_m, res.primes) == (3, 13, (3, 13))
    assert min_pm(6, 2, 10**3)[0] == 5
    assert min_pm(6, 2, 10**3)[1].p_m == 11
    a, res = min_pm(4, 1, 10**3)
    assert (a, res.p_m) == (3, 3)


def test_min_pm_is_minimum():
    rng = np.random.default_rng(11)
    for q in (30, 101, 210):
        a_star, best = min_pm(q, 2)
        reduced = [a for a in range(q) if gcd(a, q) == 1]
        sample = rng.choice(reduced, size=min(20, len(reduced)), replace=False)
        for a in map(int, sample):
            assert best.p_m <= pm(q, a, 2).p_m


def test_census_examples():
    assert cluster_census(101, 2, 270 * 101) >= 1
    assert cluster_census(10, 2, 13) == 1
    assert cluster_census(10, 2, 12) == 0


def test_census_monotone_and_recount():
    q, m = 60, 2
    prev = 0
    for X in (60, 200, 500, 1500):
        c = cluster_census(q, m, X)
        assert c >= prev
        prev = c
        # direct recount per residue
        recount = 0
        for a in range(q):
            if gcd(a, q) != 1:
                continue
            count = sum(
                1 for n in range(a if a >= 2 else a + q, X + 1, q) if is_prime(n)
            )
            recount += count >= m
        assert c == recount


def test_is_admissible_examples():
    assert is_admissible((0, 2)).ok
    chk = is_admissible((0, 1))
    assert not chk.ok and chk.witness == 2
    assert is_admissible((0, 2, 6, 8, 12)).ok


def test_narrowest_small():
    assert narrowest_tuple(2).offsets == (0, 2)
    assert narrowest_tuple(3).diameter == 6
    assert narrowest_tuple(5).offsets == (0, 2, 6, 8, 12)
    assert narrowest_tuple(1).offsets == (0,)


def oracle_min_diameter(k):
    """Plain even-offset enumeration (independent of the search code)."""
    if k == 1:
        return 0

    def admissible(offs):
        p = 2
        while p <= k:
            if all(p % d for d in range(2, p)):
                if len({h % p for h in offs}) == p:
                    return False
            p += 1
        return True

    d = 2 * (k - 1)
    while True:
        for mid in itertools.combinations(range(2, d, 2), k - 2):
            if admissible((0,) + mid + (d,)):
                return d
        d += 2


@pytest.mark.parametrize("k", range(2, 11))
def test_narrowest_matches_bruteforce(k):
    assert narrowest_tuple(k).diameter == oracle_min_diameter(k)


def test_narrowest_envelope_and_admissibility():
    # h_k <= 4 k log(k+1): test-harness sanity envelope for the k log k growth
    for k in list(range(1, 21)) + [30, 40, 50]:
        t = narrowest_tuple(k)
        assert is_admissible(t.offsets).ok
        assert t.offsets[0] == 0
        if k >= 2:
            assert t.diameter <= 4 * k * log(k + 1)
        assert t.optimal == (k <= 12)


def test_narrowest_k_cap():
    with pytest.raises(KTooLarge):
        narrowest_tuple(51)
    with pytest.raises(KTooLarge):
        narrowest_tuple(0)


def test_theorem11_rows():
    rows = theorem11_report([101], m=2)
    assert rows[0].passed and rows[0].ratio < 30
    rows = theorem11_report([2], m=1, h_budget=270.0)
    assert rows[0].p_m == 3 and rows[0].passed
    # m=3 with an explicit budget of shape C*m*exp(4m)
    rows = theorem11_report([10007], m=3, h_budget=1e-3 * 3 * np.exp(12))
    assert rows[0].p_m == min_pm(10007, 3)[1].p_m


def oracle_min_pm(q, m):
    """The per-prime scan: one list per reduced class, stop at the first
    class to hold m primes."""
    cap = default_cap(q, m)
    per_class = {}
    for seg in iter_prime_segments(2, cap + 1):
        for p in seg.primes():
            p = int(p)
            r = p % q
            if gcd(r, q) != 1:
                continue
            lst = per_class.setdefault(r, [])
            lst.append(p)
            if len(lst) == m:
                return r, tuple(lst)
    raise CapExceeded("oracle ran out of cap", cap=cap)


@settings(deadline=None, max_examples=60)
@given(q=st.integers(2, 5000), m=st.integers(1, 4))
@example(q=2, m=1)
@example(q=2, m=4)
@example(q=30030, m=1)
@example(q=30030, m=4)
def test_min_pm_matches_per_prime_scan(q, m):
    a_star, res = min_pm(q, m)
    assert (a_star, res.primes) == oracle_min_pm(q, m)
    assert res.progression == Progression(q, a_star) and len(res.primes) == m


@pytest.mark.parametrize("q, m", [(10583, 2), (30, 3), (2, 1), (30030, 2)])
def test_min_pm_cap_boundary(q, m):
    p_m = min_pm(q, m)[1].p_m
    assert min_pm(q, m, cap=p_m)[1].p_m == p_m
    with pytest.raises(CapExceeded) as info:
        min_pm(q, m, cap=p_m - 1)
    assert str(info.value) == (
        f"no residue class mod {q} collected {m} primes up to {p_m - 1}"
    )
