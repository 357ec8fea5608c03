"""The primevisit benchmark: run one workload, check every output, print
the metrics.

    python3 bench/run.py --workload clusters --seed 1 --seconds 20 --trace 0

Generates the workload's argv lists from the seed, measures set-up with
cold import probes, runs the operations in a separate worker process
(bench/worker.py) in a closed loop, checks every output (bench/checks.py)
and prints one JSON object as the last line of stdout.  --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones from
a run with the wrappers of bench/tracer.py installed.  Raw per-run output
goes to .bench_out/ at the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, make_rounds  # noqa: E402

# cold processes that only import the program, besides the measured worker
SETUP_PROBES = 4
# operations are generated for this many rounds per second of run time
ROUNDS_PER_SECOND = 25
# the worker gets a fixed BLAS/OpenMP thread count (np.convolve uses BLAS)
# and a fixed string-hash seed
WORKER_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
WORKER_ENV["PYTHONHASHSEED"] = "0"


def worker_env():
    env = dict(os.environ, **WORKER_ENV)
    env.pop("PVL_WORK_CAP", None)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, timeout):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args], env=worker_env(),
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker exited with code {proc.returncode}")
    return proc.stdout


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(share * len(ordered)) - 1)]


def check_records(rounds, records):
    """(failed, problems) over all records; failed operations are not checked."""
    from checks import Checker

    checker = Checker()
    failed, problems = 0, []
    for r, i, code, _, out, err, _ in records:
        argv = rounds[r][i]
        if code != 0:
            failed += 1
            problems.append(f"FAILED (exit {code}) {' '.join(argv)}: {err.strip()[-200:]}")
            continue
        for p in checker.check(argv, out):
            problems.append(f"WRONG {' '.join(argv)}: {p}")
    return failed, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "primevisit" / "cli.py").is_file():
        sys.exit(f"no primevisit sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rounds = make_rounds(args.workload, args.seed,
                         max(10, int(ROUNDS_PER_SECOND * args.seconds)))
    ops_file = out_dir / f"{tag}.ops.json"
    ops_file.write_text(json.dumps(rounds))

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup.append(json.loads(run_worker(["--setup-only"], 60))["setup_s"])
    result_file = out_dir / f"{tag}.result.json"
    worker_args = ["--rounds", str(ops_file), "--seconds", str(args.seconds),
                   "--out", str(result_file)]
    if args.trace:
        worker_args += ["--trace-out", str(out_dir / f"{tag}.spans.jsonl")]
    run_worker(worker_args, 60 + 3 * args.seconds)
    result = json.loads(result_file.read_text())
    setup.append(result["setup_s"])

    records = result["records"]
    failed, problems = check_records(rounds, records)
    latencies = [rec[3] for rec in records]
    ops_per_s = len(records) / result["wall_s"]
    if args.trace:
        layers = result["layers"]
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * percentile(latencies, 0.9),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    report = {
        "correct": not [p for p in problems if p.startswith("WRONG")],
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    (out_dir / f"{tag}.report.json").write_text(json.dumps(
        dict(report, ops_per_s=ops_per_s, wall_s=result["wall_s"], setup_samples=setup,
             problems=problems), indent=1))
    for p in problems[:20]:
        print(p, file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(records)} ops "
          f"in {result['wall_s']:.2f} s ({ops_per_s:.2f}/s), {failed} failed, "
          f"{len(problems)} problems", file=sys.stderr)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
