#!/usr/bin/env python3
"""First return times of circle rotations via continued fractions.

tau_eps(alpha) = min{n >= 1 : ||n alpha|| < eps} is always attained at a
convergent denominator of alpha, so it can be read off the continued
fraction; a certified brute-force scan provides the independent oracle.
The growth of tau_eps as eps shrinks is pinned between eps^-1 (Dirichlet)
and (A+1)^-3 eps^-1 when the partial quotients are bounded by A - and that
lower bound genuinely fails for unbounded quotients.
"""

from fractions import Fraction

from primevisit import (
    Quadratic,
    Quotients,
    Rational,
    cf_expand,
    check_prop71,
    return_time,
    return_time_bruteforce,
    type_estimate,
)
from primevisit.exactreal import QuadExt

golden = Quadratic.golden()
sqrt2 = Quadratic(QuadExt(-1, 1, 2))

print("== continued fractions ==")
for spec in (Rational(Fraction(355, 113)), golden, sqrt2):
    cf = cf_expand(spec, 10)
    print(f"{spec.describe():>22}: {list(cf.partial_quotients)}"
          + (f" (period {cf.period})" if cf.period else ""))

print()
print("== return times, two independent routes ==")
for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 10**4)):
    conv = return_time(golden, eps)
    brute = return_time_bruteforce(golden, eps, cap=int(1 / eps) + 1)
    print(f"eps = {str(eps):>8}: tau = {conv.tau:>6} (convergent) "
          f"= {brute.tau:>6} (scan), ||tau*alpha|| = {conv.achieved:.3e}")

print()
print("== two-sided bounds: bounded quotients pin tau to eps^-1 ==")
grid = [Fraction(1, 10**j) for j in range(1, 7)]
for spec, A in ((golden, 1), (sqrt2, 2)):
    rows = check_prop71(spec, grid)
    print(f"{spec.describe()} (max quotient A = {A}):")
    for r in rows:
        print(f"  eps = 1e-{len(str(r.epsilon.denominator)) - 1}: "
              f"{r.lower:>10.1f} <= tau = {r.tau:>7} <= {r.upper:>8}  "
              f"[{'ok' if r.lower_ok and r.upper_ok else 'FAIL'}]")

print()
print("== unbounded quotients break the lower bound ==")
growing = Quotients([0] + list(range(1, 26)))
qs = [q for _, q in cf_expand(growing, 16).convergents]
print(f"quotients a_n = n: denominators {qs[:11]} ...")
for k in (8, 10, 12):
    n_k1 = next(i for i in range(len(qs) - 1) if qs[i + 1] > (k + 1) * qs[i])
    eps_k = Fraction(1, qs[n_k1])
    tau = return_time(growing, eps_k).tau
    print(f"  eps = 1/{qs[n_k1]}: tau * eps = {float(tau * eps_k):.4f}"
          f"  ({'violates' if tau * eps_k < Fraction(1, 10) else 'meets'} tau >= 0.1/eps)")

print()
print("== approximation type from finite data (estimates) ==")
liouville = Quotients([0] + [10 ** (2**i) for i in range(6)])
for name, spec, depth in (
    ("golden", golden, 30),
    ("sqrt(2)-1", sqrt2, 30),
    ("fast-growing cf", liouville, 7),
):
    est = type_estimate(spec, depth)
    print(f"{name:>16}: type exponent ~ {est.exponent_max:.3f}, "
          f"liminf proxy ~ {est.liminf_proxy:.3f}")
print("(badly approximable numbers sit at 1; large type pushes the proxy down)")
