"""The acceptance gate: one callable per criterion, each returning pass/fail
with a one-line detail string.  `run_all` powers both the test suite and the
CLI `verify` subcommand; every tolerance is pinned here.
"""

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, log
from typing import Callable, Optional

import numpy as np

from .clusters import (
    PAIR_BUDGET,
    is_admissible,
    min_pm,
    narrowest_tuple,
    pm,
    theorem11_report,
)
from .contfrac import (
    Quadratic,
    Quotients,
    cf_expand,
    check_prop71,
    return_time,
    return_time_bruteforce,
)
from .dynamics import (
    Mobius,
    Rotation,
    Shift,
    UnimodularMatrix,
    UpperHalfPoint,
    early_visit_search,
    kac_empirical,
    prime_visit_times,
    quotient_distance,
    reduce_fundamental,
    verify_certificate,
)
from .exactreal import QuadExt
from .primes import divisor_count, factorize
from .sieve_weights import (
    PiecewiseLinear,
    PsiCutoff,
    SieveParams,
    TensorCutoff,
    detection_ratio,
    discrepancy_reduced,
    s_sum_bruteforce,
    select_k_rho,
    weight,
)

_SEED = 20260810


# --- criterion 1: pair clusters within the proven budget -------------------


def c01_pair_budget():
    """min_pm(q, 2) <= 270 q for the fixed moduli; ratios well below 30."""
    rows = theorem11_report([101, 1009, 10007, 100003, 210, 2310], m=2)
    ok = all(r.passed for r in rows) and all(r.ratio < 30 for r in rows)
    worst = max(rows, key=lambda r: r.ratio)
    return ok, (
        f"6 moduli, all within 270q; max ratio p_2/q = {worst.ratio:.3f} "
        f"at q={worst.q}"
    ), 60.0


# --- criterion 2: scaling probe ---------------------------------------------


def c02_scaling_probe():
    """30 random moduli in [10^3, 10^5]: sample max of min_pm/q below 270."""
    rng = np.random.default_rng(_SEED)
    qs = sorted(int(v) for v in rng.integers(10**3, 10**5 + 1, size=30))
    worst_ratio, worst_q = 0.0, None
    for q in qs:
        _, res = min_pm(q, 2)
        ratio = res.p_m / q
        if ratio > worst_ratio:
            worst_ratio, worst_q = ratio, q
    return worst_ratio < PAIR_BUDGET, (
        f"sample max min_pm(q,2)/q = {worst_ratio:.3f} at q={worst_q} "
        f"(budget {PAIR_BUDGET}, no tolerance)"
    ), 300.0


# --- criterion 3: return-time oracle equivalence ----------------------------


def _random_quadratics(n: int, seed: int):
    rng = np.random.default_rng(seed)
    ds = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23]
    out = []
    while len(out) < n:
        d = ds[rng.integers(0, len(ds))]
        a = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7)))
        b = Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 8)))
        if rng.integers(0, 2):
            b = -b
        val = QuadExt(a, b, d).frac()
        if val.is_rational:
            continue
        out.append(Quadratic(val))
    return out


def c03_return_time_oracle():
    """Convergent route == brute-force scan for 50 quadratics x 5 epsilons."""
    alphas = _random_quadratics(50, _SEED)
    eps_grid = [Fraction(1, 10**j) for j in range(1, 6)]
    checked = 0
    for alpha in alphas:
        for eps in eps_grid:
            t1 = return_time(alpha, eps).tau
            t2 = return_time_bruteforce(alpha, eps, cap=ceil(1 / eps)).tau
            if t1 != t2:
                return False, (
                    f"mismatch for {alpha.describe()}, eps={float(eps)}: "
                    f"convergent {t1} vs bruteforce {t2}"
                ), 30.0
            checked += 1
    return True, f"{checked} (alpha, eps) pairs, exact tau agreement", 30.0


# --- criterion 4: two-sided return-time bounds -------------------------------


def c04_return_time_bounds():
    """(A+1)^-3/eps <= tau <= ceil(1/eps) for golden (A=1) and sqrt2-1 (A=2);
    a synthetic expansion with quotients a_n = n violates tau >= 0.1/eps at
    three grid points at least."""
    eps_grid = [Fraction(1, 10**j) for j in range(1, 7)]
    for alpha, A in ((Quadratic.golden(), 1), (Quadratic(QuadExt(-1, 1, 2)), 2)):
        rows = check_prop71(alpha, eps_grid)
        for r in rows:
            if r.lower_kind != "bounded-quotient" or not (r.lower_ok and r.upper_ok):
                return False, (
                    f"{alpha.describe()} eps={float(r.epsilon)}: "
                    f"tau={r.tau} outside [{r.lower:.1f}, {r.upper}]"
                ), 60.0

    growing = Quotients([0] + list(range(1, 26)))
    qs = [q for _, q in cf_expand(growing, 20).convergents]
    violations = 0
    for k in range(1, 13):
        n_k = next(i for i in range(len(qs) - 1) if qs[i + 1] > k * qs[i])
        n_k1 = next(i for i in range(len(qs) - 1) if qs[i + 1] > (k + 1) * qs[i])
        eps_k = Fraction(1, qs[n_k1])
        if eps_k >= Fraction(1, 2):
            continue
        tau = return_time(growing, eps_k).tau
        if Fraction(tau) < Fraction(1, 10) / eps_k:
            violations += 1
    return violations >= 3, (
        f"two-sided bounds hold for golden and sqrt2-1 on 6 epsilons; "
        f"unbounded-quotient witness: {violations} grid points violate "
        f"tau >= 0.1/eps (need >= 3)"
    ), 60.0


# --- criterion 5: empirical mean return time ---------------------------------


def c05_kac():
    """Rotation by sqrt2-1, eps=0.05, 10^4 samples: mean within 10% of 10."""
    rep = kac_empirical(
        Rotation(Quadratic(QuadExt(-1, 1, 2))),
        0, 0.05, n_samples=10**4, cap=10**4, seed=_SEED,
    )
    ok = rep.relative_error < 0.10 and rep.censored == 0
    return ok, (
        f"mean return {rep.mean_return:.4f} vs mu(B)^-1 = {rep.target:.1f} "
        f"({100 * rep.relative_error:.2f}% off, tolerance 10%)"
    ), 10.0


# --- criterion 6: sieve-weight oracle equivalence ----------------------------


def _weight_2kfold(a: int, q: int, F: TensorCutoff, offsets) -> float:
    """Independent 2k-fold divisor-sum expansion of w_a (b0 indicator not
    included; caller restricts to the b0 class)."""
    logq = log(q)
    per_coord = []
    for h, f in zip(offsets, F.fs):
        n = a + q * h
        divs = [(1, 1)]
        for p in sorted(factorize(n)):
            divs += [(d * p, -mu) for d, mu in list(divs)]
        per_coord.append([(f(log(d) / logq), mu) for d, mu in divs])
    total = 0.0
    for left in itertools.product(*per_coord):
        for right in itertools.product(*per_coord):
            term = 1.0
            for v, mu in left:
                term *= mu * v
            for v, mu in right:
                term *= mu * v
            total += term
    return total


def c06_weight_oracle():
    """q=101, tuple (0,2), ramp tensor: product-of-lambda weights equal the
    2k-fold expansion to 1e-12 relative; S-sum recombination exact."""
    q, offsets = 101, (0, 2)
    params = SieveParams.build(q, offsets, theta=0.5, eps_k=0.0, w_override=3)
    F = TensorCutoff.ramp(2, 0.125)
    checked = 0
    for a in range(1, q):
        if gcd(a, q) != 1:
            continue
        w_fast = weight(a, q, params, F, offsets)
        if a % params.Wq != params.b0 % params.Wq:
            if w_fast != 0.0:
                return False, f"weight not zero off the b0 class at a={a}", 60.0
            continue
        w_ref = _weight_2kfold(a, q, F, offsets)
        scale = max(abs(w_ref), 1e-300)
        if abs(w_fast - w_ref) / scale > 1e-12:
            return False, (
                f"a={a}: product form {w_fast!r} vs 2k-fold {w_ref!r}"
            ), 60.0
        checked += 1
    rep = s_sum_bruteforce(q, 2, offsets, params, F)
    if rep.recombine() != rep.S:
        return False, "S-sum recombination not bitwise identical", 60.0
    return True, (
        f"{checked} residues in the b0 class agree to 1e-12; "
        f"S = {rep.S:.6f} recombines exactly from its parts"
    ), 60.0


# --- criterion 7: singular integrals ----------------------------------------


def _quad_deriv(f: PiecewiseLinear, square: bool) -> float:
    """int_0^support f' (or (f')^2) by Gauss-Legendre quadrature between
    consecutive nodes, independent of the closed forms."""
    segs = f.deriv_segments()

    def integrand(x):
        for t0, t1, s in segs:
            if t0 <= x <= t1:
                return s * s if square else s
        return 0.0

    xs, ws = np.polynomial.legendre.leggauss(8)
    ts = [t for t, _ in f.nodes]
    total = 0.0
    for t0, t1 in zip(ts, ts[1:]):
        mid, half = (t0 + t1) / 2, (t1 - t0) / 2
        total += half * sum(w * integrand(mid + half * x) for x, w in zip(xs, ws))
    return total


def singular_I_quad(F: TensorCutoff) -> float:
    """Tensor-family I(dF) by quadrature: the oracle for the closed form."""
    out = 1.0
    for f in F.fs:
        out *= _quad_deriv(f, square=True)
    return out


def singular_J_quad(F: TensorCutoff, i: int) -> float:
    """Tensor-family J_i(dF) by quadrature: the oracle for the closed form."""
    out = _quad_deriv(F.fs[i], square=False) ** 2
    for j, g in enumerate(F.fs):
        if j != i:
            out *= _quad_deriv(g, square=True)
    return out


def singular_mc(F: PsiCutoff, n_samples: int = 10**6, seed: int = 0) -> dict:
    """Psi-family I and J_1 by Monte-Carlo, with standard errors: the
    oracle for the grid quadrature of `PsiCutoff`."""
    R = F.simplex_cap
    k = F.k
    rng = np.random.default_rng(seed)

    def simplex_uniform(n, dim):
        e = rng.exponential(size=(n, dim + 1))
        return R * e[:, :dim] / e.sum(axis=1, keepdims=True)

    def mc(dim, integrand):
        total = 0.0
        total2 = 0.0
        done = 0
        vol = R**dim
        for j in range(2, dim + 1):
            vol /= j
        while done < n_samples:
            n = min(1 << 20, n_samples - done)
            u = simplex_uniform(n, dim)
            vals = integrand(u)
            total += float(vals.sum())
            total2 += float((vals * vals).sum())
            done += n
        mean = total / n_samples
        var = max(total2 / n_samples - mean * mean, 0.0)
        se = vol * (var / n_samples) ** 0.5
        return vol * mean, se

    I_est, I_se = mc(k, lambda u: np.prod(F.psi(u), axis=1) ** 2)

    def j_integrand(u):
        base = np.prod(F.psi(u), axis=1) ** 2
        return base * F.Psi(R - u.sum(axis=1)) ** 2

    J_est, J_se = mc(k - 1, j_integrand)
    return {"I": I_est, "I_se": I_se, "J": J_est, "J_se": J_se}


def c07_singular_integrals():
    """Tensor closed forms vs quadrature at 1e-9; psi-family grid values vs
    10^7-sample Monte-Carlo within 3 standard errors; ratio(k=20) > ratio(k=5)."""
    F = TensorCutoff.ramp(2, 0.125)
    closed = (F.singular_I(), F.singular_J(0), F.singular_J(1))
    quad = (singular_I_quad(F), singular_J_quad(F, 0), singular_J_quad(F, 1))
    if not (abs(closed[0] - 64.0) < 1e-9 and abs(closed[1] - 8.0) < 1e-9):
        return False, f"closed forms off: I={closed[0]}, J={closed[1]}", 600.0
    if any(abs(c - v) > 1e-9 for c, v in zip(closed, quad)):
        return False, f"quadrature disagrees with closed forms: {closed} vs {quad}", 600.0
    ratio = detection_ratio(F, theta=0.5).ratio
    if abs(ratio - 0.25) > 1e-9:
        return False, f"tensor ratio {ratio} != 1/4", 600.0

    sigmas = []
    for k, eps_k in ((2, 0.1), (3, None)):
        Fk = PsiCutoff(k, theta=1.0, eps_k=eps_k)
        I_grid, J_grid = Fk.singular_I(), Fk.singular_J(0)
        mc = singular_mc(Fk, n_samples=10**7, seed=_SEED + k)
        dev_I = abs(I_grid - mc["I"]) / mc["I_se"]
        dev_J = abs(J_grid - mc["J"]) / mc["J_se"]
        sigmas.append((k, dev_I, dev_J))
        if dev_I > 3.0 or dev_J > 3.0:
            return False, (
                f"psi k={k}: grid vs MC deviation {dev_I:.2f} / {dev_J:.2f} sigma"
            ), 600.0

    r5 = detection_ratio(PsiCutoff(5, theta=1.0)).ratio
    r20 = detection_ratio(PsiCutoff(20, theta=1.0)).ratio
    if not r20 > r5:
        return False, f"ratio(k=20) = {r20:.4f} <= ratio(k=5) = {r5:.4f}", 600.0
    dev_str = ", ".join(f"k={k}: {a:.2f}/{b:.2f} sigma" for k, a, b in sigmas)
    return True, (
        f"tensor closed=quad to 1e-9 (I=64, J=8, ratio=1/4); MC deviations "
        f"{dev_str}; psi ratio k=20 {r20:.4f} > k=5 {r5:.4f}"
    ), 600.0


# --- criterion 8: (k, rho) selection rule ------------------------------------


def c08_select_k_rho():
    s_half = select_k_rho(2, 0.5)
    s_one = select_k_rho(2, 1.0)
    if s_half.k != 2981 or s_one.k != 55:
        return False, f"k values {s_half.k}, {s_one.k} != 2981, 55", 10.0
    for m in range(2, 7):
        for theta in (0.5, 1.0):
            s = select_k_rho(m, theta)
            if not s.rho_ok_smallprime:
                return False, f"rho > 1/(100k) at m={m}, theta={theta}", 10.0
    return True, (
        "k(m=2, theta=1/2) = 2981, k(m=2, theta=1) = 55; rho = k^-k <= "
        "1/(100k) for all m in 2..6, theta in {1/2, 1}"
    ), 10.0


# --- criterion 9: reduced-residue discrepancy envelope ------------------------


def c09_discrepancy_envelope():
    details = []
    for q, R in ((101, 10), (2310, 40), (10007, 90)):
        rep = discrepancy_reduced(q, R)
        envelope = 2 * R * divisor_count(q)
        if rep.exact > envelope:
            return False, f"discrepancy({q},{R}) = {rep.value:.3f} > {envelope}", 60.0
        details.append(f"({q},{R}): {rep.value:.3f} <= {envelope}")
    return True, "exact values within 2*R*tau(q): " + "; ".join(details), 60.0


# --- criterion 10: right-shift equivalence ------------------------------------


def c10_shift_equivalence():
    checked = 0
    for q in range(2, 51):
        system = Shift(q)
        for a in range(q):
            if gcd(a, q) != 1:
                continue
            for m in (1, 2, 3):
                want = pm(q, a, m).primes
                got = tuple(prime_visit_times(system, 0, a, 0.5, m, cap=300 * m * q))
                if want != got:
                    return False, f"q={q}, a={a}, m={m}: {got} != {want}", 120.0
                checked += 1
    return True, f"{checked} (q, a, m) triples reproduce pm exactly", 120.0


# --- criterion 11: early-visit certificates -----------------------------------


def _fibonacci_set(limit: int) -> set:
    out, a, b = set(), 1, 2
    while b <= limit:
        out.add(b)
        a, b = b, a + b
    out.add(1)
    return out


def c11_certificates():
    """Golden rotation and a parabolic shear Moebius action both produce
    certificates that re-verify with certified arithmetic."""
    rot = Rotation(Quadratic.golden())
    cert = early_visit_search(rot, 0, Fraction(1, 10), 2, 270)
    ok, det = verify_certificate(rot, cert, 0)
    if not ok:
        return False, f"rotation certificate failed: {det}", 300.0
    if cert.q_return not in _fibonacci_set(10**9):
        return False, f"q_return = {cert.q_return} is not a Fibonacci number", 300.0
    if not cert.q_bound_ok:
        return False, (
            f"q_return = {cert.q_return} exceeds mu(B(x0; eps/4h))^-1 = "
            f"{1 / cert.mu_ball_quarter:.1f}"
        ), 300.0

    # g = [[1, 0.3], [0, 1]] . R(theta) at theta = 0: parabolic, non-elliptic,
    # and g^10 is an integer matrix, so the whole certificate stays in exact
    # rational arithmetic (non-parabolic choices need orbit precision that
    # grows linearly in p and exceed any sane budget)
    shear = UnimodularMatrix(1, Fraction(3, 10), 0, 1)
    rotation_part = UnimodularMatrix.identity()
    g = shear @ rotation_part
    mob = Mobius(g)
    x0 = UpperHalfPoint(Fraction(0), Fraction(1))
    cert2 = early_visit_search(mob, x0, Fraction(2, 10), 2, 270)
    ok2, det2 = verify_certificate(mob, cert2, x0)
    if not ok2:
        return False, f"Moebius certificate failed: {det2}", 300.0
    # quotient-distance guard active: the verified distances sit in the
    # exact region of the finite-translate minimum
    x_star = mob.iterate(x0, cert2.a_star)
    for p in cert2.primes:
        qd = quotient_distance(
            reduce_fundamental(mob.iterate(x0, p)),
            reduce_fundamental(x_star),
        )
        if not qd.exact_region:
            return False, f"distance at p={p} outside the exact quotient region", 300.0
    return True, (
        f"rotation: q={cert.q_return} (Fibonacci, <= {1 / cert.mu_ball_quarter:.0f}), "
        f"primes {cert.primes}; Moebius shear: q={cert2.q_return}, "
        f"primes {cert2.primes}, distances {tuple(round(d, 6) for d in cert2.distances)}"
    ), 300.0


# --- criterion 12: narrowest admissible tuples --------------------------------


def _oracle_min_diameter(k: int) -> int:
    """Independent brute force: all offsets must be even (class 0 mod 2 is
    taken by h_1 = 0), so enumerate even-offset combinations per diameter and
    filter with the naive covering check."""
    if k == 1:
        return 0
    from .primes import _base_primes

    primes = [int(p) for p in _base_primes(k)]

    def admissible(offs):
        return all(len({h % p for h in offs}) < p for p in primes)

    d = 2 * (k - 1)
    while True:
        interior = range(2, d, 2)
        for mid in itertools.combinations(interior, k - 2):
            offs = (0,) + mid + (d,)
            if admissible(offs):
                return d
        d += 2


def c12_narrowest_tuples():
    expected_small = {2: 2, 3: 6, 4: 8, 5: 12, 6: 16, 7: 20, 8: 26}
    details = []
    for k in range(2, 11):
        t = narrowest_tuple(k)
        oracle = _oracle_min_diameter(k)
        if t.diameter != oracle:
            return False, f"k={k}: search {t.diameter} != oracle {oracle}", 300.0
        if k in expected_small and oracle != expected_small[k]:
            return False, f"k={k}: oracle {oracle} != recorded {expected_small[k]}", 300.0
        if not is_admissible(t.offsets).ok:
            return False, f"k={k}: output not admissible", 300.0
        details.append(f"{k}:{t.diameter}")
    for k in (14, 20, 30):
        t = narrowest_tuple(k)
        if not is_admissible(t.offsets).ok or t.optimal:
            return False, f"greedy k={k} invalid or mislabeled", 300.0
    return True, (
        "diameters k=2..10 match the brute-force oracle: " + " ".join(details)
        + "; greedy outputs admissible and flagged non-optimal"
    ), 300.0


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    title: str
    passed: bool
    elapsed: float
    budget: float
    details: str

    @property
    def in_budget(self) -> bool:
        return self.elapsed <= self.budget

    def line(self) -> str:
        status = "PASS" if (self.passed and self.in_budget) else "FAIL"
        return f"[{status}] {self.cid} {self.title} ({self.elapsed:.1f}s): {self.details}"


CRITERIA: list[tuple[str, str, Callable]] = [
    ("c01", "pair clusters within 270q on fixed moduli", c01_pair_budget),
    ("c02", "scaling probe: 30 random moduli", c02_scaling_probe),
    ("c03", "return-time oracle equivalence", c03_return_time_oracle),
    ("c04", "two-sided return-time bounds", c04_return_time_bounds),
    ("c05", "empirical mean return time", c05_kac),
    ("c06", "sieve-weight oracle equivalence", c06_weight_oracle),
    ("c07", "singular integrals: closed forms, grid, Monte-Carlo", c07_singular_integrals),
    ("c08", "(k, rho) selection rule", c08_select_k_rho),
    ("c09", "reduced-residue discrepancy envelope", c09_discrepancy_envelope),
    ("c10", "right-shift system reproduces pm", c10_shift_equivalence),
    ("c11", "early-visit certificates re-verify", c11_certificates),
    ("c12", "narrowest admissible tuples", c12_narrowest_tuples),
]


def run_criterion(cid: str) -> CriterionResult:
    for c, title, fn in CRITERIA:
        if c == cid:
            t0 = time.monotonic()
            passed, details, budget = fn()
            return CriterionResult(
                cid=cid, title=title, passed=passed,
                elapsed=time.monotonic() - t0, budget=budget, details=details,
            )
    raise KeyError(f"unknown criterion {cid}")


def run_all(only: Optional[list[str]] = None) -> list[CriterionResult]:
    cids = [c for c, _, _ in CRITERIA]
    if only:
        unknown = set(only) - set(cids)
        if unknown:
            raise KeyError(f"unknown criteria: {sorted(unknown)}")
        cids = [c for c in cids if c in only]
    return [run_criterion(c) for c in cids]
