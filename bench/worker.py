"""One benchmark process: import primevisit, then run rounds of CLI argv
lists through primevisit.cli.main in a closed loop (one operation at a time)
until the time is up, capturing each operation's stdout and latency.

    python3 bench/worker.py --setup-only
    python3 bench/worker.py --rounds OPS.json --seconds 20 --out RESULT.json
        [--trace-out SPANS.jsonl]

The process does nothing else, so its peak RSS is the workload's.  Output
checks run in the parent (bench/run.py).
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# set-up time: a cold import of the program, up to its first operation
_T0 = time.perf_counter()
from primevisit import cli  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

# A run ends after the round in which both the time is up and this many
# operations are done, so op_p90_ms always has ten operations beyond it.
MIN_OPS = 100


def run_ops(main, rounds, seconds, begin_op=None):
    """Run whole rounds until `seconds` have passed (and MIN_OPS are done).
    Returns (records, wall seconds); a record is [round, index, exit code,
    seconds, stdout, stderr, CPU seconds]."""
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    for r, ops in enumerate(rounds):
        for i, argv in enumerate(ops):
            if begin_op is not None:
                begin_op(len(records))
            out, err = io.StringIO(), io.StringIO()
            c0, t0 = time.process_time(), time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except Exception:  # the operation failed; the run goes on
                    traceback.print_exc(file=err)
                    code = -1
            t1, c1 = time.perf_counter(), time.process_time()
            records.append([r, i, code, t1 - t0, out.getvalue(), err.getvalue(), c1 - c0])
        now = time.perf_counter()
        if (now >= deadline and len(records) >= MIN_OPS) or now >= deadline + 2 * seconds:
            break
    return records, time.perf_counter() - start


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--rounds")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    if not cli.__file__.startswith(os.path.join(ROOT, "src")):
        sys.exit(f"primevisit imported from {cli.__file__}, not from the checkout")
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_S}))
        return

    with open(args.rounds) as fh:
        rounds = json.load(fh)
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # look cli.main up per call, so that a traced run calls the wrapper
    records, wall = run_ops(lambda argv: cli.main(argv), rounds, args.seconds,
                            tracer.begin_op if tracer else None)
    result = {
        "setup_s": SETUP_S,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write(args.trace_out)
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
