"""Command-line front end: every capability behind one subcommand, with
bit-stable JSON/CSV report emission.

Exit codes: 0 success, 1 check failed (verify), 2 usage error, 3 budget or
cap exceeded.  The env var PVL_WORK_CAP overrides the default work cap of
the budgeted computations.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional

from . import __version__
from .errors import (
    BudgetExceeded,
    CapExceeded,
    PrecisionExhausted,
    RangeTooLarge,
    UsageError,
    PrimevisitError,
)
from .clusters import (
    cluster_budget,
    cluster_census,
    min_pm,
    narrowest_tuple,
    pm,
    theorem11_report,
)
from .contfrac import (
    RealNumberSpec,
    check_prop71,
    return_time,
    return_time_bruteforce,
    type_estimate,
)
from .dynamics import (
    Mobius,
    Rotation,
    Shift,
    UnimodularMatrix,
    early_visit_search,
    kac_empirical,
    parse_fraction,
    prime_visit_times,
    verify_certificate,
)
from .sieve_weights import (
    CutoffF,
    PsiCutoff,
    SieveParams,
    TensorCutoff,
    detection_ratio,
    discrepancy_reduced,
    s_sum_bruteforce,
    select_k_rho,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


@dataclass
class RunConfig:
    command: str
    output: Optional[str] = None
    fmt: str = "json"
    seed: int = 0
    work_cap: int = 10**9


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (list, tuple)):
        return ";".join(_fmt_value(x) for x in v)
    return str(v)


def _emit(config: RunConfig, fields, table: Optional[list[dict]] = None):
    """Write one record (or a row table) as JSON or CSV, byte-stable."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": config.command,
    }
    record.update(fields)
    if table is not None:
        record["rows"] = table
    if config.fmt == "json":
        text = json.dumps(record, sort_keys=True, default=_fmt_value) + "\n"
    else:
        rows = table if table is not None else [record]
        header = sorted(rows[0].keys())
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt_value(row.get(k, "")) for k in header))
        text = "\n".join(lines) + "\n"
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_system(args):
    if args.system == "shift":
        if args.q is None:
            raise UsageError("--q required for the shift system")
        return Shift(args.q)
    if args.system == "rotation":
        if args.alpha is None:
            raise UsageError("--alpha required for the rotation system")
        return Rotation(RealNumberSpec.parse(args.alpha))
    if args.system == "mobius":
        if args.g is None:
            raise UsageError("--g a,b,c,d required for the mobius system")
        entries = [parse_fraction(v) for v in args.g.split(",")]
        if len(entries) != 4:
            raise UsageError("--g needs four comma-separated entries")
        return Mobius(UnimodularMatrix(*entries))
    raise UsageError(f"unknown system {args.system!r}")


def _build_cutoff(args) -> CutoffF:
    if args.family == "tensor":
        F = TensorCutoff.ramp(args.k, args.support)
        F.check_support(args.theta, args.eps_k or 0.0)
        return F
    return PsiCutoff(args.k, theta=args.theta, eps_k=args.eps_k)


def _offsets(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


# --- subcommand implementations --------------------------------------------


def _cmd_pm(args, config):
    res = pm(args.q, args.a, args.m, cap=args.cap)
    _emit(config, {
        "q": args.q, "a": args.a, "m": args.m,
        "primes": list(res.primes), "p_m": res.p_m, "normalized": res.normalized,
    })


def _cmd_min_pm(args, config):
    a_star, res = min_pm(args.q, args.m, cap=args.cap)
    _emit(config, {
        "q": args.q, "m": args.m, "a_star": a_star,
        "p_m": res.p_m, "primes": list(res.primes), "normalized": res.normalized,
    })


def _cmd_census(args, config):
    count = cluster_census(args.q, args.m, args.X)
    _emit(config, {"q": args.q, "m": args.m, "X": args.X, "count": count})


def _cmd_tuple(args, config):
    t = narrowest_tuple(args.k)
    _emit(config, {
        "k": t.k, "offsets": list(t.offsets), "diameter": t.diameter,
        "optimal": t.optimal,
    })


def _cmd_budget_table(args, config):
    h_budget = args.h_budget
    if h_budget is None and args.C is not None:
        h_budget = cluster_budget(args.m, args.C)
    rows = theorem11_report(
        [int(q) for q in args.q_list.split(",")], m=args.m,
        h_budget=h_budget, cap=args.cap,
    )
    _emit(config, {"m": args.m}, table=[
        {"q": r.q, "a_star": r.a_star, "p_m": r.p_m, "ratio": r.ratio,
         "h_budget": r.h_budget, "passed": r.passed}
        for r in rows
    ])


def _cmd_weights(args, config):
    F = _build_cutoff(args)
    report = detection_ratio(F, theta=args.theta, C2=args.C2, m=args.m)
    fields = {
        "family": F.family, "k": F.k, "I": report.I, "J_sum": report.J_sum,
        "J": [F.singular_J(i) for i in range(F.k)],
        "ratio": report.ratio, "bound": report.bound,
        "exceeds_bound": report.exceeds_bound, "detects_m": report.detects_m,
    }
    if args.m is not None:
        sel = select_k_rho(args.m, args.theta, args.C2)
        fields["select_k"] = sel.k
        fields["select_rho_log10"] = sel.rho_log10
        fields["select_desk_scale"] = sel.desk_scale
    _emit(config, fields)


def _cmd_ssum(args, config):
    offsets = _offsets(args.tuple)
    params = SieveParams.build(
        args.q, offsets, theta=args.theta, eps_k=args.eps_k,
        w_override=args.w_override,
    )
    F = TensorCutoff.ramp(len(offsets), args.support)
    rep = s_sum_bruteforce(
        args.q, args.m, offsets, params, F, work_cap=config.work_cap
    )
    _emit(config, {
        "q": rep.q, "m": rep.m, "k": rep.k, "offsets": list(rep.offsets),
        "w": params.w, "Wq": params.Wq, "b0": params.b0,
        "nonprime_sum": rep.nonprime_sum,
        "prime_sums": list(rep.prime_sums),
        "smallfactor_sums": list(rep.smallfactor_sums),
        "S": rep.S, "max_weight": rep.max_weight,
        "census_lower_bound": rep.census_lower_bound,
        "residues_enumerated": rep.residues_enumerated,
        "smallprime_cutoff": rep.smallprime_cutoff,
    })


def _cmd_discrepancy(args, config):
    rep = discrepancy_reduced(args.q, args.R, work_cap=config.work_cap)
    _emit(config, {
        "q": rep.q, "R": rep.R, "value": rep.value,
        "exact": rep.exact, "moduli_used": rep.moduli_used,
    })


def _cmd_return_time(args, config):
    alpha = RealNumberSpec.parse(args.alpha)
    eps = args.eps
    if args.method == "bruteforce":
        cap = args.cap if args.cap else int(1 / eps) + 1
        rep = return_time_bruteforce(alpha, eps, cap)
    else:
        rep = return_time(alpha, eps)
    _emit(config, {
        "alpha": alpha.describe(), "epsilon": eps, "tau": rep.tau,
        "achieved": rep.achieved, "achieved_error": rep.achieved_error,
        "method": rep.method,
    })


def _cmd_prop71(args, config):
    alpha = RealNumberSpec.parse(args.alpha)
    grid = [parse_fraction(t) for t in args.eps_grid.split(",")]
    rows = check_prop71(alpha, grid, delta=args.delta)
    est = type_estimate(alpha, depth=args.depth) if args.depth else None
    fields = {"alpha": alpha.describe(), "delta": args.delta}
    if est is not None and est.applicable:
        fields["type_exponent_max"] = est.exponent_max
        fields["type_liminf_proxy"] = est.liminf_proxy
    _emit(config, fields, table=[
        {"epsilon": r.epsilon, "tau": r.tau, "lower": r.lower,
         "upper": r.upper, "lower_ok": r.lower_ok, "upper_ok": r.upper_ok,
         "lower_kind": r.lower_kind}
        for r in rows
    ])


def _cmd_visits(args, config):
    system = _build_system(args)
    x0 = system.parse_point(args.x0)
    x = system.parse_point(args.x)
    primes = prime_visit_times(system, x0, x, args.eps, args.m, args.cap)
    _emit(config, {
        "system": system.description, "epsilon": args.eps,
        "m": args.m, "primes": list(primes),
    })


def _cmd_early_visit(args, config):
    system = _build_system(args)
    x0 = system.parse_point(args.x0)
    cert = early_visit_search(system, x0, args.eps, args.m, h=args.h, cap=args.cap)
    ok, detail = verify_certificate(system, cert, x0)
    _emit(config, {
        "certificate": json.loads(cert.to_json()),
        "reverified": ok, "problems": detail["problems"],
    })


def _cmd_kac(args, config):
    system = _build_system(args)
    x0 = system.parse_point(args.x0)
    rep = kac_empirical(
        system, x0, float(args.eps), n_samples=args.samples,
        cap=args.cap, seed=config.seed,
    )
    _emit(config, {
        "system": system.description, "epsilon": args.eps,
        "mean_return": rep.mean_return, "target": rep.target,
        "relative_error": rep.relative_error, "n_samples": rep.n_samples,
        "censored": rep.censored, "ergodic": rep.ergodic, "note": rep.note,
    })


def _cmd_verify(args, config):
    from .acceptance import run_all

    only = args.only.split(",") if args.only else None
    results = run_all(only=only)
    for r in results:
        print(r.line())
    n_bad = sum(1 for r in results if not (r.passed and r.in_budget))
    print(f"{len(results) - n_bad}/{len(results)} criteria passed")
    if args.output:
        table = [
            {"cid": r.cid, "title": r.title, "passed": r.passed,
             "elapsed": r.elapsed, "budget": r.budget, "details": r.details}
            for r in results
        ]
        _emit(config, {"passed": n_bad == 0}, table=table)
    return EXIT_OK if n_bad == 0 else EXIT_CHECK_FAILED


# --- parser ------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on the first `main` call."""
    ap = argparse.ArgumentParser(
        prog="primevisit",
        description="early prime clusters in progressions and prime-time "
        "recurrence in metric-measure-preserving systems",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--work-cap", type=int, default=None)

    p = sub.add_parser("pm", help="m-th least prime in a progression")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cap", type=int)
    common(p)

    p = sub.add_parser("min-pm", help="minimize p_m(q, a) over reduced residues")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cap", type=int)
    common(p)

    p = sub.add_parser("census", help="count residues with p_m(q, a) <= X")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--X", type=int, required=True)
    common(p)

    p = sub.add_parser("tuple", help="narrowest admissible k-tuple")
    p.add_argument("--k", type=int, required=True)
    common(p)

    p = sub.add_parser("budget-table", help="p_m vs h*q budget across moduli")
    p.add_argument("--q-list", required=True, help="comma-separated moduli")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--h-budget", type=float)
    p.add_argument("--C", type=float,
                   help="derive the budget as C * m * exp(4m)")
    p.add_argument("--cap", type=int)
    common(p)

    p = sub.add_parser("weights", help="singular integrals and detection ratio")
    p.add_argument("--family", choices=("tensor", "psi"), default="tensor")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--support", type=float, default=0.125,
                   help="ramp support per coordinate (tensor family)")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--eps-k", type=float, default=None)
    p.add_argument("--C2", type=float, default=0.0)
    p.add_argument("--m", type=int, default=None)
    common(p)

    p = sub.add_parser("ssum", help="exact pigeonhole sum S over a residue class")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tuple", required=True, help="offsets, e.g. 0,2,6")
    p.add_argument("--support", type=float, default=0.125)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--eps-k", type=float, default=0.0)
    p.add_argument("--w-override", type=int, default=None)
    common(p)

    p = sub.add_parser("discrepancy", help="reduced-residue discrepancy sum")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    common(p)

    p = sub.add_parser("return-time", help="first return time of a rotation")
    p.add_argument("--alpha", required=True,
                   help="p/q | sqrt:d:a:b | dec:<digits> | cf:a0,a1,... | golden")
    p.add_argument("--eps", type=parse_fraction, required=True)
    p.add_argument("--method", choices=("convergent", "bruteforce"),
                   default="convergent")
    p.add_argument("--cap", type=int)
    common(p)

    p = sub.add_parser("prop71", help="two-sided return-time bound table")
    p.add_argument("--alpha", required=True)
    p.add_argument("--eps-grid", default="0.1,0.01,0.001,0.0001,0.00001,0.000001")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--depth", type=int, default=40,
                   help="expansion depth for the type estimate (0 to skip)")
    common(p)

    def system_args(p):
        p.add_argument("--system", choices=("shift", "rotation", "mobius"),
                       required=True)
        p.add_argument("--q", type=int, help="shift modulus")
        p.add_argument("--alpha", help="rotation angle spec")
        p.add_argument("--g", help="mobius matrix a,b,c,d (fractions)")

    p = sub.add_parser("visits", help="m smallest prime visit times to a ball")
    system_args(p)
    p.add_argument("--x0", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--eps", type=parse_fraction, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    common(p)

    p = sub.add_parser("early-visit", help="early prime-visit certificate")
    system_args(p)
    p.add_argument("--x0", required=True)
    p.add_argument("--eps", type=parse_fraction, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--cap", type=int, default=None)
    common(p)

    p = sub.add_parser("kac", help="empirical mean return time vs 1/mu(B)")
    system_args(p)
    p.add_argument("--x0", required=True)
    p.add_argument("--eps", type=parse_fraction, required=True)
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--cap", type=int, default=10**5)
    common(p)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--only", help="comma-separated criterion ids, e.g. c01,c07")
    common(p)

    return ap


_HANDLERS = {
    "pm": _cmd_pm,
    "min-pm": _cmd_min_pm,
    "census": _cmd_census,
    "tuple": _cmd_tuple,
    "budget-table": _cmd_budget_table,
    "weights": _cmd_weights,
    "ssum": _cmd_ssum,
    "discrepancy": _cmd_discrepancy,
    "return-time": _cmd_return_time,
    "prop71": _cmd_prop71,
    "visits": _cmd_visits,
    "early-visit": _cmd_early_visit,
    "kac": _cmd_kac,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except UsageError as exc:  # a malformed --eps, from parse_fraction
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    work_cap = args.work_cap
    if work_cap is None:
        work_cap = int(os.environ.get("PVL_WORK_CAP", 10**9))
    config = RunConfig(
        command=args.command,
        output=args.output,
        fmt=args.format,
        seed=args.seed,
        work_cap=work_cap,
    )
    try:
        code = _HANDLERS[args.command](args, config)
        return EXIT_OK if code is None else code
    except (BudgetExceeded, CapExceeded, RangeTooLarge) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, PrecisionExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrimevisitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
