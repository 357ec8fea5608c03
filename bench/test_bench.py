"""Tests of the benchmark itself: seeded generation, the output checks and
the tracer.  Run with `python -m pytest bench`."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
from checks import Checker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_rounds  # noqa: E402

from primevisit import cli  # noqa: E402


def _run(argv):
    records, _ = worker.run_ops(cli.main, [[argv]], 0)
    assert records[0][2] == 0, records[0][5]
    return json.loads(records[0][4])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_argv_lists(workload):
    first = make_rounds(workload, 7, 3)
    assert first == make_rounds(workload, 7, 3)
    assert first != make_rounds(workload, 8, 3)
    sizes = {len(r) for r in first}
    assert sizes == {20}
    kinds = [op[0] for op in first[0]]
    assert max(kinds.count(k) for k in set(kinds)) > len(kinds) // 2


@pytest.mark.parametrize("argv, corrupt", [
    (["min-pm", "--q", "10007", "--m", "2"],
     lambda r: r.update(primes=[r["primes"][0], 2 * 10007 + 2], p_m=2 * 10007 + 2)),
    (["census", "--q", "2310", "--m", "2", "--X", "4620"],
     lambda r: r.update(count=r["count"] + 1)),
    (["early-visit", "--system", "rotation", "--alpha", "sqrt:5:-1/2:1/2",
      "--x0", "0", "--eps", "1/10"],
     lambda r: r.update(reverified=False)),
    (["tuple", "--k", "6"], lambda r: r.update(offsets=[0, 2, 4, 8, 10, 16])),
])
def test_checker_rejects_a_corrupted_record(argv, corrupt):
    checker = Checker()
    rec = _run(argv)
    assert checker.check(argv, json.dumps(rec)) == []
    corrupt(rec)
    assert checker.check(argv, json.dumps(rec)) != []


def test_checker_rejects_a_return_time_one_convergent_late():
    checker = Checker()
    argv = ["return-time", "--alpha", "sqrt:2:-1:1", "--eps", "1e-6"]
    rec = _run(argv)
    assert checker.check(argv, json.dumps(rec)) == []
    qs = checker.convergent_denominators((-1, 1, 2), rec["tau"])
    rec["tau"] = qs[-1]  # the convergent after tau
    assert rec["tau"] > qs[-2]
    assert checker.check(argv, json.dumps(rec)) != []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_of_a_few_operations(workload):
    ops = sorted(make_rounds(workload, 0, 1)[0], key=lambda op: op[0])
    picked = [ops[0], ops[len(ops) // 2], ops[-1]]
    records, wall = worker.run_ops(cli.main, [picked], 0)
    assert len(records) == 3 and wall > 0
    checker = Checker()
    for (_, i, code, _, out, err, _) in records:
        assert code == 0, err
        assert checker.check(picked[i], out) == []


def test_tracer_sees_calls_through_every_binding_and_restores_them():
    from primevisit import clusters, dynamics, primes

    original = primes.is_prime
    tracer = Tracer()
    tracer.install()
    try:
        assert clusters.is_prime is not original and dynamics.is_prime is not original
        worker.run_ops(lambda argv: cli.main(argv),
                       [[["pm", "--q", "1000003", "--a", "5", "--m", "2"]]], 0,
                       tracer.begin_op)
    finally:
        tracer.uninstall()
    assert primes.is_prime is original and clusters.is_prime is original
    layers = tracer.layer_metrics()
    assert layers["cli.main.calls"] == 1 and layers["clusters.pm.calls"] == 1
    assert layers["primes.is_prime.calls"] > 1
    assert all(s[6] >= 0 for s in tracer.spans)
    assert layers["cli.main.s"] >= layers["clusters.pm.s"] >= layers["primes.is_prime.s"]
