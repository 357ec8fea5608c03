"""Output checks for every operation the benchmark runs.

Each check recomputes what it needs apart from the program: its own numpy
sieve, sympy's primality test and continued fractions, mpmath distances, its
own Monte-Carlo integrals and its own recounts.  Where no independent value
is cheap, it checks a property the method must have.  Nothing here imports
primevisit, and nothing compares against stored program output.
"""

import json
from fractions import Fraction
from math import ceil, fsum, gcd, isclose, log, log10

import mpmath
import numpy as np
import sympy

# narrowest admissible k-tuple diameters H(k), OEIS A008407
NARROWEST = {1: 0, 2: 2, 3: 6, 4: 8, 5: 12, 6: 16, 7: 20, 8: 26, 9: 30,
             10: 32, 11: 36, 12: 42}

MC_SAMPLES = 200_000
MC_SIGMAS = 4.0


def parse_argv(argv):
    """('cmd', {'q': '10', ...}) from a CLI argv list."""
    opts = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if "=" in key:
            key, value = key.split("=", 1)
            i += 1
        else:
            value = argv[i + 1]
            i += 2
        opts[key.replace("-", "_")] = value
    return argv[0], opts


def parse_alpha(text):
    """(a, b, d) from 'sqrt:d:a:b'."""
    _, d, a, b = text.split(":")
    return Fraction(a), Fraction(b), int(d)


def _nearest_int_dist(x: Fraction) -> Fraction:
    f = x - (x.numerator // x.denominator)
    return min(f, 1 - f)


class Checker:
    """Checks records; keeps a growing prime sieve and continued fractions."""

    def __init__(self):
        self._flags = np.zeros(0, dtype=bool)
        self._cf = {}

    # --- shared tools ------------------------------------------------------

    def sieve(self, n: int) -> np.ndarray:
        """Prime flags for 0..n (at least)."""
        if len(self._flags) <= n:
            size = max(n + 1, 2 * len(self._flags))
            flags = np.ones(size, dtype=bool)
            flags[:2] = False
            for p in range(2, int(size ** 0.5) + 1):
                if flags[p]:
                    flags[p * p :: p] = False
            self._flags = flags
        return self._flags

    def primes_upto(self, n: int) -> np.ndarray:
        return np.flatnonzero(self.sieve(n)[: n + 1])

    def partial_quotients(self, alpha):
        """sympy's continued fraction of a + b*sqrt(d): (head, period)."""
        if alpha not in self._cf:
            a, b, d = alpha
            den = a.denominator * b.denominator
            n = a.numerator * b.denominator
            m = b.numerator * a.denominator
            cf = sympy.continued_fraction_periodic(n, den, m * m * d, 1 if m > 0 else -1)
            head = [int(x) for x in cf if not isinstance(x, list)]
            period = [int(x) for x in cf[-1]]
            self._cf[alpha] = (head, period)
        return self._cf[alpha]

    def convergent_denominators(self, alpha, upto):
        """Convergent denominators q_n of alpha, increasing, up to the first
        one above `upto`."""
        head, period = self.partial_quotients(alpha)
        out = []
        q_prev, q = 0, 1
        n = 0
        while True:
            a_n = head[n] if n < len(head) else period[(n - len(head)) % len(period)]
            if n == 0:
                q = 1
            else:
                q_prev, q = q, a_n * q + q_prev
            if not out or q != out[-1]:
                out.append(q)
            if q > upto:
                return out
            n += 1

    @staticmethod
    def dist_lt(alpha, n, shift, eps: Fraction) -> bool:
        """||shift + n*alpha|| < eps, in mpmath with enough digits."""
        a, b, d = alpha
        dps = int(2 * log10(abs(n) + 2)) + 20
        while True:
            with mpmath.workdps(dps):
                x = (mpmath.mpf(a.numerator) / a.denominator
                     + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(d)) * n
                x += mpmath.mpf(shift.numerator) / shift.denominator
                dist = abs(x - mpmath.nint(x))
                e = mpmath.mpf(eps.numerator) / eps.denominator
                if abs(dist - e) > mpmath.mpf(10) ** (-dps + int(log10(abs(n) + 2)) + 5):
                    return bool(dist < e)
            dps *= 2

    def _return_time_problems(self, alpha, eps: Fraction, tau: int):
        if tau < 1:
            return [f"tau = {tau} < 1"]
        out = []
        if not self.dist_lt(alpha, tau, Fraction(0), eps):
            out.append(f"||tau*alpha|| >= eps at tau = {tau}")
        for n in self.convergent_denominators(alpha, tau):
            if n < tau and self.dist_lt(alpha, n, Fraction(0), eps):
                out.append(f"convergent denominator {n} < tau = {tau} already returns")
                break
        return out

    def _class_problems(self, q, m, a_star, p_m, primes=None):
        """a* reaches m primes at p_m, and no reduced class does so earlier."""
        out = []
        if gcd(a_star, q) != 1:
            out.append(f"a* = {a_star} not coprime to q = {q}")
        ps = self.primes_upto(p_m)
        r = ps % q
        reduced = np.gcd(r, q) == 1
        counts = np.bincount(r[reduced & (ps < p_m)], minlength=q)
        if counts.max(initial=0) >= m:
            out.append(f"class {int(counts.argmax())} reaches {m} primes below p_m = {p_m}")
        in_class = [int(p) for p in ps[r == a_star % q]]
        if primes is not None:
            if primes != in_class:
                out.append(f"primes {primes} are not the first {m} of class {a_star}")
            if any(not sympy.isprime(p) for p in primes):
                out.append(f"composite among {primes}")
        elif len(in_class) != m or in_class[-1] != p_m:
            out.append(f"p_m = {p_m} is not the {m}-th prime of class {a_star}")
        return out

    # --- dispatch ----------------------------------------------------------

    def check(self, argv, stdout: str):
        """Problems found in one operation's output (empty when correct)."""
        cmd, opts = parse_argv(argv)
        try:
            rec = json.loads(stdout)
        except ValueError:
            return [f"output is not one JSON object: {stdout[:80]!r}"]
        if rec.get("command") != cmd:
            return [f"command {rec.get('command')!r} != {cmd!r}"]
        name = "_check_" + cmd.replace("-", "_")
        if cmd in ("visits", "early-visit", "kac"):
            name += "_" + opts["system"]
        return getattr(self, name)(opts, rec)

    # --- clusters ----------------------------------------------------------

    def _check_min_pm(self, o, rec):
        q, m = int(o["q"]), int(o["m"])
        primes = rec["primes"]
        out = self._class_problems(q, m, rec["a_star"], rec["p_m"], primes)
        if len(primes) != m or rec["p_m"] != primes[-1]:
            out.append("p_m is not the last of m primes")
        return out

    def _check_pm(self, o, rec):
        q, a, m = int(o["q"]), int(o["a"]), int(o["m"])
        primes = rec["primes"]
        if len(primes) != m or rec["p_m"] != primes[-1]:
            return ["p_m is not the last of m primes"]
        n = a if a >= 2 else a + q
        found = []
        while n <= primes[-1]:
            if sympy.isprime(n):
                found.append(n)
            n += q
        return [] if found == primes else [f"primes {primes} != first {m} of class: {found}"]

    def _check_census(self, o, rec):
        q, m, X = int(o["q"]), int(o["m"]), int(o["X"])
        ps = self.primes_upto(X)
        counts = np.bincount(ps % q, minlength=q)
        reduced = np.gcd(np.arange(q), q) == 1
        want = int(np.count_nonzero(counts[reduced] >= m))
        return [] if rec["count"] == want else [f"count {rec['count']} != {want}"]

    def _check_budget_table(self, o, rec):
        m = int(o["m"])
        qs = [int(q) for q in o["q_list"].split(",")]
        if [row["q"] for row in rec["rows"]] != qs:
            return ["rows do not follow --q-list"]
        out = []
        for row in rec["rows"]:
            out += self._class_problems(row["q"], m, row["a_star"], row["p_m"])
            if row["passed"] != (row["p_m"] <= row["h_budget"] * row["q"]):
                out.append(f"passed flag wrong at q = {row['q']}")
        return out

    def _check_tuple(self, o, rec):
        k = int(o["k"])
        offs = rec["offsets"]
        if len(offs) != k or offs[0] != 0 or offs != sorted(set(offs)):
            return [f"offsets {offs} are not k sorted distinct values from 0"]
        for p in sympy.primerange(2, k + 1):
            if len({h % p for h in offs}) == p:
                return [f"offsets cover every class mod {p}"]
        if rec["diameter"] != offs[-1] or rec["diameter"] != NARROWEST[k]:
            return [f"diameter {rec['diameter']} != narrowest {NARROWEST[k]}"]
        return []

    # --- return-times ------------------------------------------------------

    def _check_return_time(self, o, rec):
        method = o.get("method", "convergent")
        if rec["method"] != method:
            return [f"method {rec['method']} != {method}"]
        return self._return_time_problems(
            parse_alpha(o["alpha"]), Fraction(o["eps"]), rec["tau"])

    def _check_prop71(self, o, rec):
        alpha = parse_alpha(o["alpha"])
        head, period = self.partial_quotients(alpha)
        A = max(head[1:] + period)
        grid = [Fraction(t) for t in o["eps_grid"].split(",")]
        if len(rec["rows"]) != len(grid):
            return ["one row per grid point expected"]
        out = []
        for eps, row in zip(grid, rec["rows"]):
            tau = row["tau"]
            out += self._return_time_problems(alpha, eps, tau)
            if tau > ceil(1 / eps):
                out.append(f"tau = {tau} > ceil(1/eps) at eps = {eps}")
            if row["lower_kind"] == "bounded-quotient" and tau < Fraction(1, (A + 1) ** 3) / eps:
                out.append(f"tau = {tau} < (A+1)^-3/eps at eps = {eps}")
        return out

    # --- prime-visits ------------------------------------------------------

    def _early_visit_common(self, o, rec):
        cert = rec["certificate"]
        out = []
        if rec["reverified"] is not True or rec["problems"]:
            out.append(f"not reverified: {rec['problems']}")
        q, a_star = cert["q_return"], cert["a_star"]
        primes = cert["primes"]
        if len(primes) != int(o.get("m", 2)):
            out.append("wrong number of primes")
        for p in primes:
            if not sympy.isprime(p):
                out.append(f"{p} is composite")
            if p % q != a_star % q:
                out.append(f"{p} != a* mod q_return")
            if p > cert["h"] * q:
                out.append(f"{p} > h * q_return")
        return out, cert

    def _check_early_visit_rotation(self, o, rec):
        out, cert = self._early_visit_common(o, rec)
        alpha, eps = parse_alpha(o["alpha"]), Fraction(o["eps"])
        for p in cert["primes"]:
            if not self.dist_lt(alpha, p - cert["a_star"], Fraction(0), eps):
                out.append(f"||(p - a*) alpha|| >= eps at p = {p}")
        return out

    def _check_early_visit_mobius(self, o, rec):
        out, cert = self._early_visit_common(o, rec)
        b = Fraction(o["g"].split(",")[1])
        y = Fraction(o["x0"].split(",")[1])
        eps = Fraction(o["eps"])
        with mpmath.workdps(50):
            bound = mpmath.cosh(mpmath.mpf(eps.numerator) / eps.denominator) - 1
            for p in cert["primes"]:
                delta = _nearest_int_dist((p - cert["a_star"]) * b)
                lhs = delta * delta / (2 * y * y)
                if not mpmath.mpf(lhs.numerator) / lhs.denominator < bound:
                    out.append(f"translate bound fails at p = {p}")
        return out

    def _check_visits_shift(self, o, rec):
        q, m = int(o["q"]), int(o["m"])
        target = (int(o["x"]) - int(o["x0"])) % q
        want, n = [], target
        while len(want) < m:
            if n >= 2 and sympy.isprime(n):
                want.append(n)
            n += q
        return [] if rec["primes"] == want else [f"primes {rec['primes']} != {want}"]

    def _check_visits_rotation(self, o, rec):
        alpha = parse_alpha(o["alpha"])
        shift = Fraction(o["x0"]) - Fraction(o["x"])
        eps = Fraction(o["eps"])
        primes = rec["primes"]
        if len(primes) != int(o["m"]):
            return ["wrong number of primes"]
        a, b, d = alpha
        ps = self.primes_upto(primes[-1])
        pos = np.mod(float(shift) + ps * (float(a) + float(b) * d ** 0.5), 1.0)
        dist = np.minimum(pos, 1.0 - pos)
        margin = 1e-9
        sure = set(int(p) for p in ps[dist < float(eps) - margin])
        unsure = [int(p) for p in ps[np.abs(dist - float(eps)) <= margin]]
        visits = sure | {p for p in unsure if self.dist_lt(alpha, p, shift, eps)}
        out = []
        for p in primes:
            if not self.dist_lt(alpha, p, shift, eps):
                out.append(f"prime {p} does not land within eps")
        if sorted(visits) != primes:
            out.append(f"primes {primes} are not the first visits {sorted(visits)[:8]}...")
        return out

    def _check_kac_rotation(self, o, rec):
        out = []
        if rec["censored"] != 0:
            out.append(f"{rec['censored']} samples censored")
        if not rec["relative_error"] < 0.10:
            out.append(f"relative error {rec['relative_error']} >= 0.10")
        if not isclose(rec["target"], 1.0 / min(2 * float(Fraction(o["eps"])), 1.0)):
            out.append(f"target {rec['target']} != 1/mu(B)")
        return out

    # --- sieve-weights -----------------------------------------------------

    def _check_ssum(self, o, rec):
        q, m = int(o["q"]), int(o["m"])
        offs = [int(h) for h in o["tuple"].split(",")]
        k = len(offs)
        out = []
        S = rec["S"]
        parts = (fsum(rec["prime_sums"]) - (m - 1) * rec["nonprime_sum"]
                 - k * fsum(rec["smallfactor_sums"]))
        if not isclose(S, parts, rel_tol=1e-12, abs_tol=1e-9):
            out.append(f"S = {S} != recombined {parts}")
        w = int(o["w_override"]) if "w_override" in o else max(2, int(log(log(log(q)))))
        Wq = 1
        for p in sympy.primerange(2, w + 1):
            if q % p:
                Wq *= p
        if rec["Wq"] != Wq:
            out.append(f"Wq = {rec['Wq']} != {Wq}")
        b0 = next(b for b in range(1, Wq + 1)
                  if all(gcd(b + q * h, Wq) == 1 for h in offs))
        if rec["b0"] != b0:
            out.append(f"b0 = {rec['b0']} != {b0}")
        a = np.arange(1, q + 1)
        cls = a[(np.gcd(a, q) == 1) & ((a - b0) % Wq == 0)]
        if rec["residues_enumerated"] != len(cls):
            out.append(f"{rec['residues_enumerated']} residues != {len(cls)}")
        if any(s < 0 or s > rec["nonprime_sum"] * (1 + 1e-12) for s in rec["prime_sums"]):
            out.append("a prime sum is negative or exceeds the total weight")
        mw = rec["max_weight"]
        if mw > 0 and not isclose(rec["census_lower_bound"], S / (k * mw), rel_tol=1e-12):
            out.append("census_lower_bound != S / (k max_weight)")
        if S > 0:
            flags = self.sieve(q + q * offs[-1])
            hits = sum(flags[cls + q * h].astype(int) for h in offs)
            count = int(np.count_nonzero(hits >= m))
            if rec["census_lower_bound"] > count:
                out.append(f"census_lower_bound {rec['census_lower_bound']} > {count}")
        return out

    def _check_weights(self, o, rec):
        k, theta = int(o["k"]), float(o["theta"])
        eps_k = float(o["eps_k"]) if "eps_k" in o else 1.0 / log(k)
        out = []
        J = rec["J"]
        if len(J) != k or any(j != J[0] for j in J):
            out.append("J is not k equal values (psi cutoffs are symmetric)")
        if not isclose(rec["J_sum"], k * J[0], rel_tol=1e-12):
            out.append("J_sum != k J")
        if not isclose(rec["ratio"], rec["J_sum"] / rec["I"], rel_tol=1e-12):
            out.append("ratio != J_sum / I")
        if not isclose(rec["bound"], theta / 2 * log(k), rel_tol=1e-12):
            out.append("bound != (theta/2) log k")
        # a 4-sigma miss is re-tested once on fresh, larger samples, so a
        # correct value fails only with probability ~ 1e-8 per operation
        seed = int(theta * 1e9) + k
        for name in ("I", "J"):
            dev = psi_mc_deviation(k, theta, eps_k, name, rec[name] if name == "I" else J[0],
                                   MC_SAMPLES, seed)
            if dev > MC_SIGMAS:
                dev = psi_mc_deviation(k, theta, eps_k, name, rec[name] if name == "I" else J[0],
                                       4 * MC_SAMPLES, seed + 1)
            if dev > MC_SIGMAS:
                out.append(f"{name} is {dev:.1f} standard errors from Monte-Carlo")
        return out

    def _check_discrepancy(self, o, rec):
        q, R = int(o["q"]), int(o["R"])
        a = np.arange(1, q + 1)
        reduced = a[np.gcd(a, q) == 1]
        phi = len(reduced)
        total, used = Fraction(0), 0
        for r in range(1, R + 1):
            if gcd(r, q) == 1:
                used += 1
                counts = np.bincount(reduced % r, minlength=r)
                total += Fraction(int(np.abs(counts * r - phi).max()), r)
        out = []
        if Fraction(rec["exact"]) != total or rec["moduli_used"] != used:
            out.append(f"value {rec['exact']} != recount {total}")
        if Fraction(rec["exact"]) > 2 * R * sympy.divisor_count(q):
            out.append("value above the 2 R tau(q) envelope")
        return out


def psi_mc_deviation(k, theta, eps_k, which, value, n, seed):
    """|value - MC estimate| in standard errors, for I or J of the psi
    cutoff: psi(t) = 1/(c + (k-1) t), c = 1/log k - 1/log^2 k, on the simplex
    sum t <= (theta - eps_k)/2."""
    R = (theta - eps_k) / 2
    c = 1 / log(k) - 1 / log(k) ** 2
    dim = k if which == "I" else k - 1
    rng = np.random.default_rng(seed)
    e = rng.exponential(size=(n, dim + 1))
    t = R * e[:, :dim] / e.sum(axis=1, keepdims=True)
    vals = np.prod(1.0 / (c + (k - 1) * t), axis=1) ** 2
    if which == "J":
        rest = R - t.sum(axis=1)
        vals = vals * (np.log1p((k - 1) * rest / c) / (k - 1)) ** 2
    vol = R ** dim
    for j in range(2, dim + 1):
        vol /= j
    est = vol * vals.mean()
    se = vol * vals.std() / n ** 0.5
    return abs(value - est) / se
