import dataclasses
import json
from fractions import Fraction
from math import exp, floor, fsum, gcd, log, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import nquad, quad

from primevisit import sieve_weights
from primevisit.acceptance import singular_I_quad, singular_J_quad, singular_mc
from primevisit.cli import main
from primevisit.errors import BudgetExceeded, InvalidParameter, UsageError
from primevisit.primes import factorize, iter_prime_segments
from primevisit.sieve_weights import (
    PiecewiseLinear,
    PsiCutoff,
    SieveParams,
    TensorCutoff,
    choose_b0,
    detection_ratio,
    discrepancy_reduced,
    s_sum_bruteforce,
    select_k_rho,
    small_primorial_coprime,
    weight,
)
from primevisit.sieve_weights import _grid_I_J_refined, _lambda_from_primes, _trap_conv


def test_small_primorial_examples():
    assert small_primorial_coprime(10007, 3) == (3, 6)
    w, Wq = small_primorial_coprime(10**6)
    assert (w, Wq) == (2, 1)  # q even: the clamped w=2 prime divides q
    assert small_primorial_coprime(10**6 + 1) == (2, 2)
    assert small_primorial_coprime(6, 3) == (3, 1)
    with pytest.raises(UsageError):
        small_primorial_coprime(7)  # below the triple-log domain, no override


def test_choose_b0_examples():
    assert choose_b0(10007, 6, (0, 2, 6)) == 1
    assert choose_b0(12345, 1, (0, 2)) == 1  # Wq = 1: vacuous
    b0 = choose_b0(5, 6, (0, 2))
    assert all(gcd(b0 + 5 * h, 6) == 1 for h in (0, 2))
    assert all(
        any(gcd(b + 5 * h, 6) > 1 for h in (0, 2)) for b in range(1, b0)
    )  # minimality


def lambda_f(n, f, q):
    """sum over squarefree d | n of mu(d) * f(log d / log q)."""
    return _lambda_from_primes(list(factorize(n)), f, log(q))


def test_lambda_f_basics():
    f = PiecewiseLinear.ramp(0.5)
    q = 101
    assert lambda_f(1, f, q) == f(0.0) == 1.0
    # prime n: f(0) - f(log p / log q)
    p = 7
    assert lambda_f(p, f, q) == pytest.approx(1.0 - f(log(p) / log(q)))
    # all prime factors above q^s contribute nothing
    assert lambda_f(97 * 89, PiecewiseLinear.ramp(0.5), 101) == 1.0


def test_lambda_f_squarefree_kernel():
    f = PiecewiseLinear.ramp(0.6)
    q = 101
    assert lambda_f(12, f, q) == lambda_f(6, f, q)
    assert lambda_f(2**7, f, q) == lambda_f(2, f, q)


def _tensor_params(q=101, offsets=(0, 2), s=0.125, theta=0.5):
    params = SieveParams.build(q, offsets, theta=theta, eps_k=0.0, w_override=3)
    F = TensorCutoff.ramp(len(offsets), s)
    return params, F


def test_weight_off_class_and_nonnegative():
    q, offsets = 101, (0, 2)
    params, F = _tensor_params()
    for a in range(1, q):
        w = weight(a, q, params, F, offsets)
        assert w >= 0.0
        if a % params.Wq != params.b0 % params.Wq:
            assert w == 0.0


def test_weight_product_equals_direct_inner():
    # direct k-fold signed divisor sum squared vs product of lambdas
    q, offsets = 101, (0, 2)
    params, F = _tensor_params(s=0.24, theta=1.0)  # q^0.24 ~ 3: divisors 1,2,3
    logq = log(q)
    for a in (13, 19, 37, 91):
        divs = []
        for h, f in zip(offsets, F.fs):
            n = a + q * h
            lst = [(1, 1)]
            for p in sorted(factorize(n)):
                lst += [(d * p, -mu) for d, mu in list(lst)]
            divs.append([(mu, f(log(d) / logq)) for d, mu in lst])
        total = 0.0
        for mu1, v1 in divs[0]:
            for mu2, v2 in divs[1]:
                total += mu1 * mu2 * v1 * v2
        want = total * total if a % params.Wq == params.b0 % params.Wq else 0.0
        assert weight(a, q, params, F, offsets) == pytest.approx(want, rel=1e-12)


def test_weight_all_factors_large():
    # every a + q h_i free of primes <= q^s: weight is (prod f_i(0))^2
    q, offsets = 101, (0, 2)
    params, F = _tensor_params(s=0.125)  # q^s ~ 1.78: no usable primes
    a = params.b0
    while gcd(a, q) != 1:
        a += params.Wq
    assert weight(a, q, params, F, offsets) == pytest.approx(1.0)


def test_tensor_support_validation():
    params, _ = _tensor_params()
    F_bad = TensorCutoff.ramp(2, 0.2)  # sum s = 0.4 > (0.5 - 0)/2
    for a in (1, 5):  # in and off the b0 class 1 mod 6
        with pytest.raises(InvalidParameter):
            weight(a, 101, params, F_bad, (0, 2))
    # the weights command refuses it too, and reads --eps-k
    argv = ["weights", "--family", "tensor", "--k", "2"]
    assert main(argv + ["--support", "0.125"]) == 0
    assert main(argv + ["--support", "0.2"]) == 2
    assert main(argv + ["--support", "0.125", "--eps-k", "0.3"]) == 2


def tensor_value(F, t):
    """F(t) = prod_i f_i(t_i) of a tensor cutoff, at a point of [0, inf)^k."""
    assert len(t) == F.k and all(v >= 0 for v in t)
    return prod(f(v) for f, v in zip(F.fs, t))


def test_cutoff_tensor_values():
    F = TensorCutoff.ramp(2, 0.125)
    assert tensor_value(F, (0.0, 0.0)) == 1.0
    assert tensor_value(F, (0.2, 0.0)) == 0.0  # outside support
    assert tensor_value(F, (0.0625, 0.0625)) == pytest.approx(0.25)


def test_singular_tensor_closed_forms():
    F = TensorCutoff.ramp(2, 0.125)
    assert F.singular_I() == pytest.approx(64.0)
    assert F.singular_J(0) == pytest.approx(8.0)
    assert F.singular_J(1) == pytest.approx(8.0)
    r = detection_ratio(F, theta=0.5, m=2)
    assert r.ratio == pytest.approx(0.25)
    assert r.detects_m is False  # needs > 1 for a pair


@st.composite
def _piecewise_linear(draw):
    n = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.floats(0.01, 0.2), min_size=n - 1, max_size=n - 1))
    vals = draw(st.lists(st.floats(-2.0, 2.0), min_size=n - 1, max_size=n - 1))
    ts = [fsum(gaps[:i]) for i in range(n)]
    return PiecewiseLinear(list(zip(ts, vals + [0.0])))


@settings(max_examples=40, deadline=None)
@given(st.lists(_piecewise_linear(), min_size=1, max_size=3))
@example([PiecewiseLinear.ramp(0.1),
          PiecewiseLinear(((0.0, 0.5), (0.05, 0.2), (0.12, 0.0)))])
def test_tensor_integrals_match_quadrature(fs):
    F = TensorCutoff(fs)
    assert F.singular_I() == pytest.approx(singular_I_quad(F), rel=1e-9, abs=1e-12)
    for i in range(F.k):
        assert F.singular_J(i) == pytest.approx(singular_J_quad(F, i), rel=1e-9, abs=1e-12)
    assert F.J_sum() == pytest.approx(fsum(singular_J_quad(F, i) for i in range(F.k)),
                                      rel=1e-9, abs=1e-12)


def test_exact_weights_refuse_psi_cutoff():
    params, _ = _tensor_params()
    F = PsiCutoff(2, theta=0.5, eps_k=0.0)
    with pytest.raises(UsageError, match="tensor family"):
        weight(1, 101, params, F, (0, 2))
    with pytest.raises(UsageError, match="tensor family"):
        s_sum_bruteforce(101, 2, (0, 2), params, F)


def test_psi_weights_runs_the_grid_once(capsys):
    # one quadrature per weights op: I misses, J_sum and the k listed J_i hit
    sieve_weights._grid_I_J_refined.cache_clear()
    assert main(["weights", "--family", "psi", "--k", "4", "--theta", "0.8312"]) == 0
    info = sieve_weights._grid_I_J_refined.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    assert json.loads(capsys.readouterr().out)["family"] == "psi_product"


def test_singular_psi_vs_nquad():
    F = PsiCutoff(2, theta=1.0, eps_k=0.1)
    R, c = F.simplex_cap, F.psi_c

    def rho(u):
        return 1.0 / (c + u) ** 2

    I_ref, _ = nquad(
        lambda u2, u1: rho(u1) * rho(u2), [lambda u1: [0, R - u1], [0, R]]
    )
    assert F.singular_I() == pytest.approx(I_ref, rel=1e-6)

    def Psi(x):
        return np.log1p(x / c)

    J_ref, _ = quad(lambda s: rho(s) * Psi(R - s) ** 2, 0, R, limit=200)
    assert F.singular_J(0) == pytest.approx(J_ref, rel=1e-8)


@pytest.mark.parametrize("k", [3, 5])
def test_singular_psi_vs_mc(k):
    F = PsiCutoff(k, theta=1.0)
    mc = singular_mc(F, n_samples=4 * 10**5, seed=9)
    assert abs(F.singular_I() - mc["I"]) <= 3.5 * mc["I_se"]
    assert abs(F.singular_J(0) - mc["J"]) <= 3.5 * mc["J_se"]


def test_psi_ratio_grows_with_k():
    r5 = detection_ratio(PsiCutoff(5, theta=1.0)).ratio
    r20 = detection_ratio(PsiCutoff(20, theta=1.0)).ratio
    assert r20 > r5


def test_select_k_rho():
    s = select_k_rho(2, 0.5)
    assert s.k == 2981 and not s.desk_scale
    assert select_k_rho(2, 1.0).k == 55
    # monotone in C2
    ks = [select_k_rho(2, 1.0, C2=c).k for c in (0.0, 0.5, 1.0, 2.0)]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)
    for m in range(2, 7):
        for theta in (0.5, 1.0):
            assert select_k_rho(m, theta).rho_ok_smallprime


def test_ssum_consistency():
    q, offsets = 101, (0, 2)
    params, F = _tensor_params()
    rep = s_sum_bruteforce(q, 2, offsets, params, F)
    # nonprime_sum must equal the independent re-accumulation of weight(a)
    total = 0.0
    vals = []
    for a in range(1, q):
        if gcd(a, q) != 1:
            continue
        vals.append(weight(a, q, params, F, offsets))
    from math import fsum

    assert rep.nonprime_sum == fsum(vals)
    assert rep.recombine() == rep.S
    assert rep.max_weight >= max(vals)
    # rho so small that q^rho < 2: no small-factor terms at all
    assert rep.smallprime_cutoff < 2
    assert all(v == 0.0 for v in rep.smallfactor_sums)


def test_ssum_census_bound_fields():
    q, offsets = 10007, (0, 2, 6)
    params = SieveParams.build(q, offsets, theta=0.5, eps_k=0.0, w_override=3)
    F = TensorCutoff.ramp(3, 0.08)
    rep = s_sum_bruteforce(q, 2, offsets, params, F)
    assert rep.residues_enumerated > 0
    assert rep.S == rep.recombine()
    assert rep.census_lower_bound == rep.S / (rep.k * rep.max_weight)
    # the sign of S is recorded, not asserted, at this scale
    assert isinstance(rep.S, float)


def test_ssum_budget():
    params, F = _tensor_params()
    with pytest.raises(BudgetExceeded):
        s_sum_bruteforce(101, 2, (0, 2), params, F, work_cap=3)
    # 101 // 6 + 1 = 17 residue slots x 2 offsets: the cap is inclusive
    assert s_sum_bruteforce(101, 2, (0, 2), params, F, work_cap=34) == _ssum_oracle(
        101, 2, (0, 2), params, F
    )
    with pytest.raises(BudgetExceeded, match="17 residues x 2 offsets exceeds work cap 33"):
        s_sum_bruteforce(101, 2, (0, 2), params, F, work_cap=33)
    # a + q h beyond 2^40
    big = SieveParams.build(2**20, (0, 2**20), eps_k=0.0, w_override=3)
    with pytest.raises(BudgetExceeded):
        s_sum_bruteforce(2**20, 2, (0, 2**20), big, TensorCutoff.ramp(2, 0.05),
                         work_cap=10**9)


# --- s_sum_bruteforce against the per-residue loop ---------------------------


def _ssum_oracle(q, m, offsets, params, F):
    """The per-residue loop: factorize every a + q h_i and take its divisor
    sum directly (budget checks left out)."""
    offsets = tuple(offsets)
    k = len(offsets)
    top = q + q * max(offsets)
    flags = np.zeros(top + 1, dtype=bool)
    for seg in iter_prime_segments(2, top + 1):
        flags[seg.lo : seg.hi] = seg.bits
    logq = log(q)
    p_cut = floor(exp(float(Fraction(params.rho)) * logq))
    start = params.b0 % params.Wq if params.Wq > 1 else 1
    if start == 0:
        start = params.Wq
    w_terms = []
    prime_terms = [[] for _ in range(k)]
    small_terms = [[] for _ in range(k)]
    max_w = 0.0
    count = 0
    for a in range(start, q + 1, params.Wq if params.Wq > 1 else 1):
        if gcd(a, q) != 1:
            continue
        count += 1
        prod = 1.0
        primes_of_n = []
        for h, f_i in zip(offsets, F.fs):
            ps = sorted(factorize(a + q * h))
            primes_of_n.append(ps)
            prod *= _lambda_from_primes(ps, f_i, logq)
        w_a = prod * prod
        if w_a == 0.0:
            continue
        max_w = max(max_w, w_a)
        w_terms.append(w_a)
        for i, h in enumerate(offsets):
            if flags[a + q * h]:
                prime_terms[i].append(w_a)
            if p_cut >= 2:
                c = sum(1 for p in primes_of_n[i] if p <= p_cut)
                if c:
                    small_terms[i].append(c * w_a)
    nonprime = fsum(w_terms)
    primes_s = tuple(fsum(ts) for ts in prime_terms)
    smalls = tuple(fsum(ts) for ts in small_terms)
    S = fsum(primes_s) - (m - 1) * nonprime - k * fsum(smalls)
    return sieve_weights.SSumReport(
        q=q, m=m, k=k, offsets=offsets,
        nonprime_sum=nonprime, prime_sums=primes_s, smallfactor_sums=smalls,
        S=S, max_weight=max_w,
        census_lower_bound=S / (k * max_w) if max_w > 0 else 0.0,
        residues_enumerated=count, smallprime_cutoff=p_cut,
    )


def _admissible(offsets):
    return all(
        len({h % p for h in offsets}) < p for p in (2, 3, 5, 7) if p <= len(offsets)
    )


@st.composite
def _ssum_case(draw):
    q = draw(st.one_of(st.integers(16, 3000), st.integers(1000, 3000)))
    k = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.integers(1, 6), min_size=k - 1, max_size=k - 1))
    offsets = tuple(2 * sum(gaps[:i]) for i in range(k))
    assume(_admissible(offsets))
    theta = draw(st.sampled_from((0.5, 1.0)))
    # supports up to the check_support limit sum s_i <= theta / 2
    fs = []
    left = theta / 2
    for i in range(k):
        fs.append(PiecewiseLinear.ramp(left * draw(st.floats(0.3, 1.0 if i == k - 1 else 0.9))))
        left -= fs[-1].support
    if draw(st.booleans()):
        fs[0] = PiecewiseLinear(((0.0, 0.5), (fs[0].support / 3, 0.2), (fs[0].support, 0.0)))
    w_override = draw(st.sampled_from((None, 3, 5, 7)))
    # rho above the 1/(100k) of SieveParams.build, so that q^rho >= 2 occurs
    rho = draw(st.sampled_from((None, Fraction(1, 4), Fraction(1, 2), Fraction(1))))
    m = draw(st.integers(2, 3))
    return q, m, offsets, theta, fs, w_override, rho


@settings(max_examples=60, deadline=None)
@given(_ssum_case())
def test_ssum_matches_per_residue_oracle(case):
    q, m, offsets, theta, fs, w_override, rho = case
    params = SieveParams.build(q, offsets, theta=theta, eps_k=0.0, w_override=w_override)
    if rho is not None:
        params = dataclasses.replace(params, rho=rho)
    F = TensorCutoff(fs)
    assert s_sum_bruteforce(q, m, offsets, params, F) == _ssum_oracle(
        q, m, offsets, params, F
    )


def test_ssum_small_factor_sums():
    q, offsets = 1009, (0, 2, 6)
    params = SieveParams.build(q, offsets, theta=1.0, eps_k=0.0, w_override=5)
    params = dataclasses.replace(params, rho=Fraction(1, 2))
    F = TensorCutoff.ramp(3, 0.15)
    rep = s_sum_bruteforce(q, 2, offsets, params, F)
    assert rep.smallprime_cutoff == 31
    assert all(v > 0 for v in rep.smallfactor_sums)
    assert rep == _ssum_oracle(q, 2, offsets, params, F)


@pytest.mark.parametrize("chunk", [1, 2, 16, 17, 18, 1 << 15])
def test_ssum_chunking(monkeypatch, chunk):
    # q = 101, W_q = 6: residue slots 1, 7, ..., 97 are 17 positions
    monkeypatch.setattr(sieve_weights, "_SSUM_CHUNK", chunk)
    q, offsets = 101, (0, 2)
    params = SieveParams.build(q, offsets, theta=1.0, eps_k=0.0, w_override=3)
    params = dataclasses.replace(params, rho=Fraction(1, 2))
    F = TensorCutoff.ramp(2, 0.24)
    assert s_sum_bruteforce(q, 2, offsets, params, F) == _ssum_oracle(
        q, 2, offsets, params, F
    )
    q = 2310  # W_q = 1, 480 reduced residues among 2310 slots
    params = SieveParams.build(q, offsets, theta=1.0, eps_k=0.0, w_override=3)
    assert s_sum_bruteforce(q, 2, offsets, params, F) == _ssum_oracle(
        q, 2, offsets, params, F
    )


def test_ssum_prime_factor_above_square_root():
    # support 3 > 1: every prime factor of a + q h counts, including the one
    # above sqrt(a + q h) that trial division leaves behind
    q, offsets = 500, (0,)
    params = SieveParams.build(q, offsets, theta=6.0, eps_k=0.0, w_override=3)
    params = dataclasses.replace(params, rho=Fraction(1))
    F = TensorCutoff.ramp(1, 3.0)
    rep = s_sum_bruteforce(q, 2, offsets, params, F)
    assert rep.smallprime_cutoff > 22  # isqrt(500)
    assert rep == _ssum_oracle(q, 2, offsets, params, F)


def test_ssum_offsets_order_and_sign():
    q = 1009
    F = TensorCutoff.ramp(3, 0.08)
    params = SieveParams.build(q, (0, 2, 6), eps_k=0.0, w_override=5)
    rep = s_sum_bruteforce(q, 2, (0, 6, 2), params, F)
    ref = s_sum_bruteforce(q, 2, (0, 2, 6), params, F)
    assert rep.prime_sums == (ref.prime_sums[0], ref.prime_sums[2], ref.prime_sums[1])
    assert rep.nonprime_sum == ref.nonprime_sum
    with pytest.raises(UsageError, match="offsets must be >= 0"):
        s_sum_bruteforce(q, 2, (0, -2, 6), params, F)


def test_discrepancy_r1_vanishes():
    rep = discrepancy_reduced(101, 1)
    assert rep.exact == 0


def test_discrepancy_oracle():
    # independent double loop
    q, R = 60, 12
    rep = discrepancy_reduced(q, R)
    total = Fraction(0)
    reduced = [a for a in range(1, q + 1) if gcd(a, q) == 1]
    phi = len(reduced)
    for r in range(1, R + 1):
        if gcd(r, q) != 1:
            continue
        best = Fraction(0)
        for c in range(r):
            cnt = sum(1 for a in reduced if a % r == c)
            best = max(best, abs(Fraction(cnt) - Fraction(phi, r)))
        total += best
    assert rep.exact == total


def test_discrepancy_envelope():
    from primevisit.primes import divisor_count

    for q, R in ((101, 10), (2310, 40)):
        rep = discrepancy_reduced(q, R)
        assert rep.exact <= 2 * R * divisor_count(q)


# --- the psi quadrature against direct convolution ---------------------------


def _trap_conv_direct(f, g, dx):
    """_trap_conv by direct np.convolve."""
    n = len(f)
    s = np.convolve(f, g)[:n]
    s = s - 0.5 * (f[0] * g + f * g[0])
    return s * dx


@pytest.mark.parametrize("n", [1, 2, 3, 101, 1025, 4097, 8193, 16385])
def test_trap_conv_fft_matches_direct(n):
    rng = np.random.default_rng(n)
    f = rng.random(n) + 0.01
    g = rng.exponential(size=n)
    want = _trap_conv_direct(f, g, 0.5)
    got = _trap_conv(f, g, 0.5)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)) + 1e-300


@pytest.mark.parametrize("k", range(3, 11))
def test_psi_grid_fft_matches_direct(monkeypatch, k):
    F = PsiCutoff(k, theta=1.0)
    I, J = _grid_I_J_refined.__wrapped__(F)
    monkeypatch.setattr(sieve_weights, "_trap_conv", _trap_conv_direct)
    I_ref, J_ref = _grid_I_J_refined.__wrapped__(F)
    assert I == pytest.approx(I_ref, rel=1e-12, abs=0)
    assert J == pytest.approx(J_ref, rel=1e-12, abs=0)
