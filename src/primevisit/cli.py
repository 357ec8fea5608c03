"""Command-line front end: every capability behind one subcommand, whose
report is bit-stable JSON.

Exit codes: 0 success, 1 check failed (verify), 2 usage error, 3 budget or
cap exceeded.  Every subcommand takes --output; `kac` also takes --seed,
and `ssum` and `discrepancy` take --work-cap.
"""

import argparse
import json
import sys
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


def _fmt_value(v) -> str:
    """JSON text of a value json.dumps cannot write itself."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def _finite_float(text: str) -> float:
    """A finite float; anything else, nan and inf too, is a UsageError."""
    try:
        x = float(text)
        if abs(x) <= sys.float_info.max:  # false for nan and inf
            return x
    except ValueError:
        pass
    raise UsageError(f"not a finite number: {text!r}")


def _emit(args, fields, table: Optional[list[dict]] = None):
    """Write one record, with its row table if any, as byte-stable JSON.

    A report dataclass comes in as vars(report), its fields by name:
    dataclasses.asdict would deep-copy every value first."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": args.command,
    }
    record.update(fields)
    if table is not None:
        record["rows"] = table
    text = json.dumps(record, sort_keys=True, default=_fmt_value) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
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


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; anything else is a UsageError."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"not a list of integers: {text!r}") from None


# --- subcommand implementations --------------------------------------------


def _cmd_pm(args):
    res = pm(args.q, args.a, args.m, cap=args.cap)
    _emit(args, {
        "q": args.q, "a": args.a, "m": args.m,
        "primes": list(res.primes), "p_m": res.p_m, "normalized": res.normalized,
    })


def _cmd_min_pm(args):
    a_star, res = min_pm(args.q, args.m, cap=args.cap)
    _emit(args, {
        "q": args.q, "m": args.m, "a_star": a_star,
        "p_m": res.p_m, "primes": list(res.primes), "normalized": res.normalized,
    })


def _cmd_census(args):
    count = cluster_census(args.q, args.m, args.X)
    _emit(args, {"q": args.q, "m": args.m, "X": args.X, "count": count})


def _cmd_tuple(args):
    t = narrowest_tuple(args.k)
    _emit(args, {**vars(t), "diameter": t.diameter})


def _cmd_budget_table(args):
    h_budget = args.h_budget
    if h_budget is None and args.C is not None:
        h_budget = cluster_budget(args.m, args.C)
    rows = theorem11_report(args.q_list, m=args.m, h_budget=h_budget, cap=args.cap)
    _emit(args, {"m": args.m}, table=[vars(r) for r in rows])


def _cmd_weights(args):
    F = _build_cutoff(args)
    report = detection_ratio(F, theta=args.theta, C2=args.C2, m=args.m)
    fields = {
        **vars(report), "family": F.family, "k": F.k,
        "J": [F.singular_J(i) for i in range(F.k)],
    }
    if args.m is not None:
        sel = select_k_rho(args.m, args.theta, args.C2)
        fields["select_k"] = sel.k
        fields["select_rho_log10"] = sel.rho_log10
        fields["select_desk_scale"] = sel.desk_scale
    _emit(args, fields)


def _cmd_ssum(args):
    offsets = args.tuple
    params = SieveParams.build(
        args.q, offsets, theta=args.theta, eps_k=args.eps_k,
        w_override=args.w_override,
    )
    F = TensorCutoff.ramp(len(offsets), args.support)
    rep = s_sum_bruteforce(
        args.q, args.m, offsets, params, F, work_cap=args.work_cap
    )
    _emit(args, {**vars(rep), "w": params.w, "Wq": params.Wq, "b0": params.b0})


def _cmd_discrepancy(args):
    rep = discrepancy_reduced(args.q, args.R, work_cap=args.work_cap)
    _emit(args, vars(rep))


def _cmd_return_time(args):
    alpha = RealNumberSpec.parse(args.alpha)
    eps = args.eps
    if args.method == "bruteforce":
        cap = args.cap if args.cap else int(1 / eps) + 1
        rep = return_time_bruteforce(alpha, eps, cap)
    else:
        rep = return_time(alpha, eps)
    _emit(args, {**vars(rep), "alpha": alpha.describe(), "epsilon": eps})


def _cmd_prop71(args):
    alpha = RealNumberSpec.parse(args.alpha)
    grid = [parse_fraction(t) for t in args.eps_grid.split(",")]
    rows = check_prop71(alpha, grid, delta=args.delta)
    est = type_estimate(alpha, depth=args.depth) if args.depth else None
    fields = {"alpha": alpha.describe(), "delta": args.delta}
    if est is not None and est.applicable:
        fields["type_exponent_max"] = est.exponent_max
        fields["type_liminf_proxy"] = est.liminf_proxy
    _emit(args, fields, table=[vars(r) for r in rows])


def _cmd_visits(args):
    system = _build_system(args)
    x0 = system.parse_point(args.x0)
    x = system.parse_point(args.x)
    primes = prime_visit_times(system, x0, x, args.eps, args.m, args.cap)
    _emit(args, {
        "system": system.description, "epsilon": args.eps,
        "m": args.m, "primes": list(primes),
    })


def _cmd_early_visit(args):
    system = _build_system(args)
    x0 = system.parse_point(args.x0)
    cert = early_visit_search(system, x0, args.eps, args.m, h=args.h, cap=args.cap)
    ok, detail = verify_certificate(system, cert, x0)
    _emit(args, {
        "certificate": vars(cert),
        "reverified": ok, "problems": detail["problems"],
    })


def _cmd_kac(args):
    system = _build_system(args)
    x0 = system.parse_point(args.x0)
    rep = kac_empirical(
        system, x0, float(args.eps), n_samples=args.samples,
        cap=args.cap, seed=args.seed,
    )
    _emit(args, {**vars(rep), "system": system.description, "epsilon": args.eps})


def _cmd_verify(args):
    from .acceptance import run_all

    only = args.only.split(",") if args.only else None
    results = run_all(only=only)
    for r in results:
        print(r.line())
    n_bad = sum(1 for r in results if not (r.passed and r.in_budget))
    print(f"{len(results) - n_bad}/{len(results)} criteria passed")
    if args.output:
        _emit(args, {"passed": n_bad == 0}, table=[vars(r) for r in results])
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
    p.add_argument("--q-list", type=_int_list, required=True,
                   help="comma-separated moduli")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--h-budget", type=_finite_float)
    p.add_argument("--C", type=_finite_float,
                   help="derive the budget as C * m * exp(4m)")
    p.add_argument("--cap", type=int)
    common(p)

    p = sub.add_parser("weights", help="singular integrals and detection ratio")
    p.add_argument("--family", choices=("tensor", "psi"), default="tensor")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--support", type=_finite_float, default=0.125,
                   help="ramp support per coordinate (tensor family)")
    p.add_argument("--theta", type=_finite_float, default=0.5)
    p.add_argument("--eps-k", type=_finite_float, default=None)
    p.add_argument("--C2", type=_finite_float, default=0.0)
    p.add_argument("--m", type=int, default=None)
    common(p)

    p = sub.add_parser("ssum", help="exact pigeonhole sum S over a residue class")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tuple", type=_int_list, required=True,
                   help="offsets, e.g. 0,2,6")
    p.add_argument("--support", type=_finite_float, default=0.125)
    p.add_argument("--theta", type=_finite_float, default=0.5)
    p.add_argument("--eps-k", type=_finite_float, default=0.0)
    p.add_argument("--w-override", type=int, default=None)
    p.add_argument("--work-cap", type=int, default=10**9)
    common(p)

    p = sub.add_parser("discrepancy", help="reduced-residue discrepancy sum")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--work-cap", type=int, default=10**9)
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
    p.add_argument("--delta", type=_finite_float, default=0.01)
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
    p.add_argument("--h", type=_finite_float, default=None)
    p.add_argument("--cap", type=int, default=None)
    common(p)

    p = sub.add_parser("kac", help="empirical mean return time vs 1/mu(B)")
    system_args(p)
    p.add_argument("--x0", required=True)
    p.add_argument("--eps", type=parse_fraction, required=True)
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--cap", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
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
    except UsageError as exc:  # a malformed number or integer list
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = _HANDLERS[args.command](args)
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
