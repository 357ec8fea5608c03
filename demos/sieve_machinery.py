#!/usr/bin/env python3
"""The sieve-weight machinery behind the cluster bound.

The weight w_a concentrates on residues a likely to make several of the
shifted values a + q h_i prime at once.  The pigeonhole sum

    S = sum_a ( #primes among a+q*h_i  -  (m-1)  -  k * #small-factors ) w_a

is positive exactly when some residue carries at least m primes, and the
detectable m is governed by the ratio of singular integrals sum_i J_i / I of
the cutoff's mixed derivative.  Everything here is computed exactly by
enumeration (tensor cutoffs) or by dimension-reduced quadrature with a
Monte-Carlo cross-check (the psi-product family).
"""

from primevisit import (
    PiecewiseLinear,
    PsiCutoff,
    SieveParams,
    TensorCutoff,
    detection_ratio,
    s_sum_bruteforce,
    select_k_rho,
    small_primorial_coprime,
    weight,
)
from primevisit.acceptance import singular_mc

q, offsets = 10007, (0, 2, 6)
print(f"== setup for q = {q}, offsets {offsets} ==")
w, Wq = small_primorial_coprime(q, w_override=2)
# theta = 1 is the conditional level of distribution; it buys room for a
# first-coordinate support wide enough (q^0.3 ~ 16) that divisors beyond the
# W-trick bound actually enter the divisor sums
params = SieveParams.build(q, offsets, theta=1.0, eps_k=0.0, w_override=2)
print(f"small-prime bound w = {params.w}, W_q = {params.Wq}, b0 = {params.b0}")
print(f"(weights vanish off the class b0 mod W_q, killing small-prime losses)")

F = TensorCutoff(
    [PiecewiseLinear.ramp(0.3), PiecewiseLinear.ramp(0.1), PiecewiseLinear.ramp(0.1)]
)
print()
print("== a few weights ==")
for a in (params.b0 + params.Wq * j for j in range(5)):
    print(f"  w_{a} = {weight(a, q, params, F, offsets):.6f}")

print()
print("== the exact pigeonhole sum ==")
rep = s_sum_bruteforce(q, 2, offsets, params, F)
print(f"residues enumerated: {rep.residues_enumerated}")
print(f"prime sums per offset: {[round(v, 3) for v in rep.prime_sums]}")
print(f"non-prime sum:         {rep.nonprime_sum:.3f}")
print(f"S = {rep.S:.3f}  (sign recorded, not asserted, at desk scale)")
print(f"implied class count >= S/(k max w) = {rep.census_lower_bound:.3f}")

print()
print("== singular integrals: what the cutoff can detect ==")
F2 = TensorCutoff.ramp(2, 0.125)
print(f"ramp tensor k=2, s=1/8: I = {F2.singular_I():.1f}, "
      f"J_i = {F2.singular_J(0):.1f}, ratio = {detection_ratio(F2, theta=0.5).ratio}")
print("(a pair needs ratio > 1; this cutoff only reaches 1/4)")

print()
print("psi-product family, theta = 1:")
for k in (5, 10, 20, 40):
    r = detection_ratio(PsiCutoff(k, theta=1.0))
    print(f"  k = {k:>2}: ratio = {r.ratio:.4f}")
print("(the ratio grows like (theta/2) log k: larger tuples detect more primes)")

Fk = PsiCutoff(3, theta=1.0)
mc = singular_mc(Fk, n_samples=10**6, seed=1)
print(f"cross-check k=3: I grid {Fk.singular_I():.6f} vs MC {mc['I']:.6f} "
      f"+/- {mc['I_se']:.6f}")

print()
print("== proof-scale (k, rho) ==")
for m, theta in ((2, 0.5), (2, 1.0), (3, 1.0)):
    s = select_k_rho(m, theta)
    print(f"m={m}, theta={theta}: k = {s.k}, log10(rho) = {s.rho_log10:.1f}"
          + ("" if s.desk_scale else "  [proof-scale]"))
