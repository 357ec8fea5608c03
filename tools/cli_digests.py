"""Print the exit code and the sha256 of stdout and of stderr of CLI runs,
one line per argv, each run in process through `primevisit.cli.main`.

The argvs are the first rounds of the four benchmark workloads, then those
of an optional file: one shell-quoted argv per line, `primevisit` prefix and
`#` comments allowed.  `verify` is skipped: it prints its timings.  Run it
under each source tree's PYTHONPATH and diff the outputs.
"""

import argparse
import contextlib
import hashlib
import io
import os
import shlex
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))
from workloads import WORKLOADS, make_rounds  # noqa: E402

from primevisit.cli import main  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1901,77", help="comma-separated workload seeds")
    ap.add_argument("--rounds", type=int, default=20, help="rounds per workload and seed")
    ap.add_argument("--argv-file", help="more argvs, one per line")
    args = ap.parse_args()
    argvs = [argv for workload in WORKLOADS for seed in args.seeds.split(",")
             for ops in make_rounds(workload, int(seed), args.rounds) for argv in ops]
    if args.argv_file:
        with open(args.argv_file) as fh:
            lines = [shlex.split(line, comments=True) for line in fh]
        argvs += [argv[argv[0] == "primevisit":] for argv in lines if argv]
    for argv in argvs:
        if argv[0] == "verify":
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # an escaped exception, named in place of a code
                code = f"raised:{type(exc).__name__}"
                print(exc, file=sys.stderr)
        print(code, _sha256(out.getvalue()), _sha256(err.getvalue()), shlex.join(argv))


if __name__ == "__main__":
    run()
