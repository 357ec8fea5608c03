#!/usr/bin/env python3
"""Prime-time recurrence in three measure-preserving systems.

The cluster bound transfers to dynamics: if the orbit of x0 returns
eps/2h-close to itself after q steps, then the progression structure of
early prime clusters mod q plants m prime visit times inside some eps-ball.
The early-visit search runs that construction end to end and emits a
certificate that re-verifies from scratch.
"""

from fractions import Fraction

from primevisit import (
    Mobius,
    Quadratic,
    Rotation,
    Shift,
    UnimodularMatrix,
    UpperHalfPoint,
    early_visit_search,
    first_return,
    kac_empirical,
    prime_visit_times,
    verify_certificate,
)
from primevisit.cli import main
from primevisit.exactreal import QuadExt

print("== right shift on Z/q: progressions as dynamics ==")
shift = Shift(4)
print(f"visit times of 1 from 0 (q=4): {prime_visit_times(shift, 0, 1, 0.5, 3, 10**4)}")
print("(exactly the primes = 1 mod 4)")

print()
print("== circle rotation: returns come from convergents ==")
rot = Rotation(Quadratic.golden())
for eps in (Fraction(1, 10), Fraction(1, 1000)):
    print(f"first return within {float(eps)}: {first_return(rot, 0, eps)}")

rep = kac_empirical(Rotation(Quadratic(QuadExt(-1, 1, 2))),
                    0, 0.05, n_samples=10**4, cap=10**4, seed=0)
print(f"mean return to a 0.1-arc over 10^4 samples: {rep.mean_return:.3f} "
      f"(expected 1/mu = {rep.target:.0f})")

print()
print("== early-visit certificate, rotation ==")
cert = early_visit_search(rot, 0, Fraction(1, 10), 2, 270)
print(f"return time q = {cert.q_return} (a Fibonacci number)")
print(f"best residue a* = {cert.a_star}, primes {cert.primes}")
print(f"orbit distances to x*: {[f'{d:.5f}' for d in cert.distances]} (< 0.1)")
print(f"q within the recurrence bound 1/mu(B(x0; eps/4h)) = "
      f"{1 / cert.mu_ball_quarter:.0f}: {cert.q_bound_ok}")
ok, _ = verify_certificate(rot, cert, 0)
print(f"re-verified from scratch: {ok}")

print()
print("== Moebius action on the modular surface ==")
g = UnimodularMatrix(1, Fraction(3, 10), 0, 1)
mob = Mobius(g)
x0 = UpperHalfPoint(Fraction(0), Fraction(1))
print(f"g = shear by 3/10 (parabolic, g^10 lands in the modular group)")
print(f"first return of i within 1e-3: {first_return(mob, x0, Fraction(1, 1000), cap=100)}")
cert = early_visit_search(mob, x0, Fraction(2, 10), 2, 270)
print(f"certificate: q = {cert.q_return}, a* = {cert.a_star}, primes {cert.primes}, "
      f"distances {cert.distances}")
ok, _ = verify_certificate(mob, cert, x0)
print(f"re-verified: {ok}")
print()
print("the same search through the CLI, whose record holds the certificate:")
print("primevisit early-visit --system mobius --g 1,3/10,0,1 --x0 0,1 --eps 0.2")
main(["early-visit", "--system", "mobius", "--g", "1,3/10,0,1", "--x0", "0,1",
      "--eps", "0.2"])
