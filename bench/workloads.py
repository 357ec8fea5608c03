"""Seeded operation lists for the four benchmark workloads.

A workload is a list of rounds; a round is a list of CLI argv lists with a
fixed make-up (how many operations of each kind, and in which size stratum
each one lies).  The seed picks the values inside each stratum and the order
inside each round, so every round costs about the same and the throughput of
a run does not depend on which seed drew it.

Everything here is plain Python; nothing imports the program.
"""

import random
from fractions import Fraction
from math import ceil, exp, gcd, isqrt, log

WORKLOADS = ("clusters", "return-times", "prime-visits", "sieve-weights")

# squarefree radicands for the seeded quadratic irrationals
_RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)

# return-times uses this many fixed angles, so the checker expands each
# continued fraction (in sympy) only once per run
ALPHA_POOL = 12

# admissible 3-tuples of diameter <= 10 used by ssum
_TRIPLES = ("0,2,6", "0,4,6", "0,2,8", "0,6,8", "0,4,10", "0,6,10")


def _log_strata(rng, n, lo, hi):
    """n values, one drawn log-uniformly from each of n equal log-strata."""
    a, b = log(lo), log(hi)
    return [exp(a + (j + rng.random()) * (b - a) / n) for j in range(n)]


def _quad_floor(a: Fraction, b: Fraction, d: int) -> int:
    """floor(a + b*sqrt(d)) exactly, d squarefree >= 2, b != 0."""
    den = a.denominator * b.denominator
    n = a.numerator * b.denominator
    m = b.numerator * a.denominator
    s = isqrt(m * m * d)
    if m > 0:
        return (n + s) // den
    return (n - s - 1) // den


def _quadratic(rng):
    """(a, b, d) with a + b*sqrt(d) irrational and inside (0, 1)."""
    d = rng.choice(_RADICANDS)
    b = Fraction(rng.randint(1, 3), rng.randint(1, 4)) * rng.choice((1, -1))
    a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    a -= _quad_floor(a, b, d)
    return a, b, d


def alpha_spec(alpha) -> str:
    a, b, d = alpha
    return f"sqrt:{d}:{a}:{b}"


def convergent_denominators(alpha, count):
    """q_0, q_1, ... of a + b*sqrt(d) by the exact surd algorithm."""
    a, b, d = alpha
    # x = (P + sqrt(D)) / Q with D = b^2 d scaled to integers, Q | D - P^2
    den = a.denominator * b.denominator
    P, R = a.numerator * b.denominator, b.numerator * a.denominator
    D = R * R * d
    Q = den
    if R < 0:
        P, Q = -P, -Q
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    qs = []
    q_prev, q = 0, 1
    for _ in range(count):
        s = isqrt(D)
        a_n = (P + s) // Q if Q > 0 else -((P + s) // -Q) - 1
        if not qs:
            qs.append(1)
        else:
            q_prev, q = q, a_n * q + q_prev
            qs.append(q)
        P = a_n * Q - P
        Q = (D - P * P) // Q
    return qs


def _coprime_residue(rng, q):
    while True:
        a = rng.randrange(1, q)
        if gcd(a, q) == 1:
            return a


def _eps_text(rng, lo_exp, hi_exp):
    """A three-digit decimal eps = 10^-u with u uniform in [lo_exp, hi_exp]."""
    u = lo_exp + rng.random() * (hi_exp - lo_exp)
    e = ceil(u) + 2
    mant = min(999, max(100, round(10 ** (e - u))))
    return f"{mant}e-{e}"


# --- clusters: the segmented sieve and the per-prime scan of min_pm ----------


def _min_pm_modulus(q):
    """The odd modulus nearest above q with q + 2 composite.  For such q,
    p_2 lands just above 2q in every case (class 2 holds no second prime
    below 3q, and p - q is even for odd p), so the cost and memory of
    min-pm grow smoothly with q instead of halving at random."""
    q = int(q) | 1
    while _is_prime(q + 2):
        q += 2
    return q


def _is_prime(n):
    return n >= 2 and all(n % p for p in range(2, isqrt(n) + 1))


def _clusters(rng, pool, r):
    # m = 2 over a continuous range of q keeps the latency quantiles on one
    # smooth cost curve; three operations in a narrow band near 1.3e6 hold
    # op_p90_ms, and the largest one, near 2e6, sets the peak RSS, so
    # neither depends much on the seed
    ops = [["min-pm", "--q", str(_min_pm_modulus(q)), "--m", "2"]
           for q in _log_strata(rng, 8, 1e4, 6e5) + _log_strata(rng, 3, 1.2e6, 1.4e6)]
    ops.append(["min-pm", "--q", str(_min_pm_modulus(rng.uniform(1.9e6, 2e6))),
                "--m", "2"])
    ops += [["min-pm", "--q", str(int(q)), "--m", "3"]
            for q in _log_strata(rng, 2, 1e4, 1e5)]
    for q in _log_strata(rng, 2, 1e6, 1e9):
        q = int(q)
        ops.append(["pm", "--q", str(q), "--a", str(_coprime_residue(rng, q)),
                    "--m", str(rng.choice((2, 3)))])
    for q in _log_strata(rng, 2, 1e3, 1e5):
        q = int(q)
        X = int(q * rng.uniform(2.0, 12.0))
        ops.append(["census", "--q", str(q), "--m", str(rng.choice((2, 3))),
                    "--X", str(X)])
    ops.append(["tuple", "--k", str(rng.randint(2, 12))])
    q_list = ",".join(str(int(q)) for q in _log_strata(rng, 3, 1e2, 1e5))
    ops.append(["budget-table", "--q-list", q_list, "--m", "2"])
    return ops


# --- return-times: QuadExt arithmetic and cf_expand, no sieve -----------------


def _return_times(rng, pool, r):
    # each angle of the pool once per round, against a seeded permutation
    # of the eps strata, so that every round costs about the same
    strata = list(range(len(pool)))
    rng.shuffle(strata)
    ops = []
    for alpha, j in zip(pool, strata):
        n = len(pool)
        eps = _eps_text(rng, 3 + 16 * j / n, 3 + 16 * (j + 1) / n)
        ops.append(["return-time", "--alpha", alpha_spec(alpha), "--eps", eps])
    for j in range(4):
        eps = _eps_text(rng, 2 + 3 * j / 4, 2 + 3 * (j + 1) / 4)
        ops.append(["return-time", "--alpha", alpha_spec(rng.choice(pool)),
                    "--eps", eps, "--method", "bruteforce"])
    for _ in range(4):
        alpha = rng.choice(pool)
        grid = ",".join(_eps_text(rng, 1 + 8 * j / 5, 1 + 8 * (j + 1) / 5)
                        for j in range(5))
        ops.append(["prop71", "--alpha", alpha_spec(alpha), "--eps-grid", grid,
                    "--depth", str(_prop71_depth(alpha))])
    return ops


def _prop71_depth(alpha, limit=10**6, most=40):
    """Largest type-estimate depth whose convergent denominators stay below
    `limit`.  type_estimate takes float() of exact distances whose parts
    grow like q_n; far beyond 10^6 that float is garbage and can crash the
    command (see CHANGES.md), so deeper estimates are left out."""
    qs = convergent_denominators(alpha, most + 1)
    depth = 0
    for n in range(3, most + 1):
        if qs[n - 1] <= limit:
            depth = n
    return depth


# --- prime-visits: dynamics, small-magnitude QuadExt, small-n is_prime -------


def _prime_visits(rng, pool, r):
    ops = []
    for N in _log_strata(rng, 7, 10, 300):
        x0 = Fraction(rng.randrange(0, 8), 8)
        ops.append(["early-visit", "--system", "rotation", "--alpha",
                    alpha_spec(_quadratic(rng)), "--x0", str(x0),
                    "--eps", f"1/{int(N)}"])
    for s in _log_strata(rng, 4, 3, 40):
        s = int(s)
        b = Fraction(_coprime_residue(rng, s), s)
        x0 = f"{Fraction(rng.randint(-4, 4), 8)},{rng.choice(('1', '5/4', '3/2'))}"
        ops.append(["early-visit", "--system", "mobius", "--g", f"1,{b},0,1",
                    f"--x0={x0}", "--eps", f"{rng.randint(5, 30)}/100"])
    for q in _log_strata(rng, 4, 2, 200):
        q = int(q)
        x0 = rng.randrange(q)
        x = (x0 + _coprime_residue(rng, q)) % q
        m = rng.randint(1, 3)
        ops.append(["visits", "--system", "shift", "--q", str(q), "--x0", str(x0),
                    "--x", str(x), "--eps", "1/2", "--m", str(m),
                    "--cap", str(300 * m * q)])
    for m in _log_strata(rng, 3, 4, 40):
        ops.append(["visits", "--system", "rotation", "--alpha",
                    alpha_spec(_quadratic(rng)),
                    "--x0", str(Fraction(rng.randrange(0, 8), 8)),
                    "--x", str(Fraction(rng.randrange(0, 12), 12)),
                    "--eps", f"1/{rng.randint(20, 200)}", "--m", str(int(m)),
                    "--cap", "1000000"])
    for _ in range(2):
        ops.append(["kac", "--system", "rotation", "--alpha",
                    alpha_spec(_quadratic(rng)),
                    "--x0", str(Fraction(rng.randrange(0, 8), 8)),
                    "--eps", f"1/{rng.randint(10, 50)}",
                    "--seed", str(rng.randrange(10**6))])
    return ops


# --- sieve-weights: factorize + divisor sums, psi grid quadrature -------------


def _sieve_weights(rng, pool, r):
    # three operations in a narrow band near 2.8e4 hold op_p90_ms
    ops = [["ssum", "--q", str(int(q)), "--m", str(rng.choice((2, 3))),
            "--tuple", rng.choice(_TRIPLES),
            "--support", f"{rng.uniform(0.04, 0.083):.4f}"]
           for q in _log_strata(rng, 9, 5e3, 2e4) + _log_strata(rng, 3, 2.6e4, 3e4)]
    ops += [["discrepancy", "--q", str(int(q)), "--R", str(rng.randint(10, 100))]
            for q in _log_strata(rng, 7, 1e3, 5e4)]
    # one psi cutoff per round, k cycling through 4..10 with the round index
    # so that every run holds the same k; psi needs eps_k = 1/log k < theta,
    # and every theta is distinct, so each operation pays for its own grid
    # quadrature
    k = 4 + r % 7
    theta = rng.uniform(1.0 / log(k) + 0.05, 1.0)
    ops.append(["weights", "--family", "psi", "--k", str(k), "--theta", f"{theta:.9f}"])
    return ops


_MAKERS = {
    "clusters": _clusters,
    "return-times": _return_times,
    "prime-visits": _prime_visits,
    "sieve-weights": _sieve_weights,
}


def make_rounds(workload: str, seed: int, n_rounds: int) -> list:
    """The first n_rounds rounds of a workload for a seed."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    # the return-times angles are the same for every seed: the cost of a
    # return time varies several-fold between angles, and a pool of 12
    # drawn per seed made throughput depend on the draw
    pool_rng = random.Random("primevisit-bench/angles")
    pool = [_quadratic(pool_rng) for _ in range(ALPHA_POOL)]
    rng = random.Random(f"primevisit-bench/{workload}/{seed}")
    rounds = []
    for r in range(n_rounds):
        ops = _MAKERS[workload](rng, pool, r)
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds
