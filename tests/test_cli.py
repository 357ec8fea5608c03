import argparse
import json
import subprocess
import sys

import pytest

from primevisit import cli
from primevisit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_min_pm_json(capsys):
    code, out, _ = run_cli(capsys, "min-pm", "--q", "10", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 10 and doc["m"] == 2
    assert doc["a_star"] == 3 and doc["p_m"] == 13
    assert doc["schema_version"] == 1 and doc["tool_version"]


def test_return_time_json(capsys):
    code, out, _ = run_cli(capsys, "return-time", "--alpha", "golden", "--eps", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["tau"] == 5
    assert abs(doc["achieved"] - 0.0902) < 1e-3


def test_non_coprime_usage_error(capsys):
    code, out, err = run_cli(capsys, "pm", "--q", "4", "--a", "2", "--m", "1")
    assert code == 2
    assert "residue not coprime to modulus" in err


def test_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "discrepancy", "--q", "10007", "--R", "90", "--work-cap", "10"
    )
    assert code == 3
    assert "budget" in err.lower()


def test_byte_identical_output(tmp_path, capsys):
    args = ["kac", "--system", "rotation", "--alpha", "sqrt:2:-1:1",
            "--x0", "0", "--eps", "0.05", "--samples", "500", "--cap", "5000",
            "--seed", "7"]
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(args + ["--output", str(p1)]) == 0
    assert main(args + ["--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_tuple_and_census(capsys):
    code, out, _ = run_cli(capsys, "tuple", "--k", "3")
    assert json.loads(out)["offsets"] == [0, 2, 6]
    code, out, _ = run_cli(capsys, "census", "--q", "10", "--m", "2", "--X", "13")
    assert json.loads(out)["count"] == 1


def test_visits_and_early_visit(capsys):
    code, out, _ = run_cli(
        capsys, "visits", "--system", "shift", "--q", "4", "--x0", "0",
        "--x", "1", "--eps", "0.5", "--m", "3", "--cap", "10000",
    )
    assert json.loads(out)["primes"] == [5, 13, 17]

    code, out, _ = run_cli(
        capsys, "early-visit", "--system", "mobius", "--g", "1,3/10,0,1",
        "--x0", "0,1", "--eps", "0.2", "--m", "2",
    )
    doc = json.loads(out)
    assert doc["reverified"] is True
    assert doc["certificate"]["q_return"] == 10
    assert doc["certificate"]["primes"] == [3, 13]



# Moebius early-visit stdout, byte for byte: two shears (one from an
# off-axis x0) and an elliptic matrix, whose orbit needs S reductions and
# returns at a nonzero distance.
_MOBIUS_EARLY_VISITS = [
    (('--g', '1,3/10,0,1', '--x0', '0,1', '--eps', '0.2'),
     '{"certificate": {"a_star": 3, "degenerate": false, "distances": [0.0, '
     '0.0], "epsilon": "1/5", "h": 270.0, "m": 2, "mu_ball_quarter": 1.02880'
     '65873022594e-07, "primes": [3, 13], "q_bound_ok": true, "q_return": 10'
     ', "return_threshold": "1/2700", "schema_version": 2, "system": "Moebiu'
     's action by (1.0, 0.3, 0.0, 1.0) on the modular surface", "tolerances"'
     ': {"injectivity_guard": 0.4}, "tool_version": "0.1.0", "x0_repr": "(Fr'
     'action(0, 1), Fraction(1, 1))", "x_star_repr": "(Fraction(-1, 10), Fra'
     'ction(1, 1))"}, "command": "early-visit", "problems": [], "reverified"'
     ': true, "schema_version": 1, "tool_version": "0.1.0"}\n'
     ),
    (('--g', '1,2/7,0,1', '--x0=-1/2,5/4', '--eps', '17/100'),
     '{"certificate": {"a_star": 3, "degenerate": false, "distances": [0.0, '
     '0.0], "epsilon": "17/100", "h": 270.0, "m": 2, "mu_ball_quarter": 7.43'
     '3127587364067e-08, "primes": [3, 17], "q_bound_ok": true, "q_return": '
     '7, "return_threshold": "17/54000", "schema_version": 2, "system": "Moe'
     'bius action by (1.0, 0.2857142857142857, 0.0, 1.0) on the modular surf'
     'ace", "tolerances": {"injectivity_guard": 0.4}, "tool_version": "0.1.0'
     '", "x0_repr": "(Fraction(-1, 2), Fraction(5, 4))", "x_star_repr": "(Fr'
     'action(5, 14), Fraction(5, 4))"}, "command": "early-visit", "problems"'
     ': [], "reverified": true, "schema_version": 1, "tool_version": "0.1.0"'
     '}\n'
     ),
    (('--g', '3/5,-4/5,4/5,3/5', '--x0', '0,2', '--eps', '1/2', '--h', '20'),
     '{"certificate": {"a_star": 7, "degenerate": false, "distances": [0.0, '
     '0.010550620513592877], "epsilon": "1/2", "h": 20.0, "m": 2, "mu_ball_q'
     'uarter": 0.00011718788147022327, "primes": [7, 173], "q_bound_ok": tru'
     'e, "q_return": 83, "return_threshold": "1/80", "schema_version": 2, "s'
     'ystem": "Moebius action by (0.6, -0.8, 0.8, 0.6) on the modular surfac'
     'e", "tolerances": {"injectivity_guard": 0.4}, "tool_version": "0.1.0",'
     ' "x0_repr": "(Fraction(0, 1), Fraction(2, 1))", "x_star_repr": "(Fract'
     'ion(-3185764957, 6883465753), Fraction(12207031250, 6883465753))"}, "c'
     'ommand": "early-visit", "problems": [], "reverified": true, "schema_ve'
     'rsion": 1, "tool_version": "0.1.0"}\n'
     ),
]


@pytest.mark.parametrize("argv,want", _MOBIUS_EARLY_VISITS,
                         ids=["shear", "shear-off-axis", "elliptic"])
def test_mobius_early_visit_bytes(capsys, argv, want):
    code, out, err = run_cli(capsys, "early-visit", "--system", "mobius", *argv)
    assert code == 0 and err == ""
    assert out == want


def test_mobius_cusp_is_a_budget_error(capsys):
    # the orbit of i under this hyperbolic matrix climbs the cusp: at step
    # 513 of the return-time scan cosh d - 1 no longer fits a float
    import time

    start = time.perf_counter()
    code, out, err = run_cli(capsys, "early-visit", "--system", "mobius", "--g",
                             "3/2,1/2,1,1", "--x0", "0,1", "--eps", "1/5")
    assert time.perf_counter() - start < 2.0
    assert code == 3 and out == ""
    assert err.startswith("budget exceeded: at step n = 513, cosh d - 1 ")
    assert "left float range" in err and err.count("\n") == 1

def test_early_visit_rotation_cli(capsys):
    code, out, _ = run_cli(
        capsys, "early-visit", "--system", "rotation", "--alpha", "golden",
        "--x0", "0", "--eps", "0.1",
    )
    doc = json.loads(out)
    assert doc["reverified"] is True
    assert doc["certificate"]["q_return"] == 2584
    assert doc["certificate"]["epsilon"] == "1/10"


def test_prop71_table(capsys):
    code, out, _ = run_cli(
        capsys, "prop71", "--alpha", "golden", "--eps-grid", "0.1,0.01",
        "--depth", "0",
    )
    doc = json.loads(out)
    assert len(doc["rows"]) == 2
    assert all(r["lower_ok"] and r["upper_ok"] for r in doc["rows"])


def test_verify_subset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "c08")
    assert code == 0
    assert "[PASS] c08" in out


def test_usage_error_on_bad_subcommand(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    ["return-time", "--alpha", "golden", "--eps", "abc"],
    ["kac", "--system", "rotation", "--alpha", "golden", "--x0", "0", "--eps", "1/0"],
    ["prop71", "--alpha", "golden", "--eps-grid", ""],
    ["visits", "--system", "shift", "--q", "4", "--x0", "abc", "--x", "1",
     "--eps", "1/2", "--m", "1", "--cap", "100"],
    ["early-visit", "--system", "mobius", "--g", "1,3/10,0,1", "--x0", "0",
     "--eps", "1/5"],
    ["early-visit", "--system", "mobius", "--g", "1,x,0,1", "--x0", "0,1",
     "--eps", "1/5"],
    ["ssum", "--q", "101", "--m", "2", "--tuple", "0,x"],
    ["budget-table", "--q-list", "101,x"],
], ids=["eps", "eps-zero-denominator", "eps-grid", "x0-shift", "x0-mobius", "g",
        "tuple", "q-list"])
def test_malformed_number_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "error" in err


_ROTATION = ("--system", "rotation", "--alpha", "golden", "--x0", "0")


@pytest.mark.parametrize("argv", [
    ["early-visit", *_ROTATION, "--eps", "1/10", "--h", "0"],
    ["early-visit", *_ROTATION, "--eps", "1/10", "--h", "nan"],
    ["early-visit", *_ROTATION, "--eps", "1/10", "--h", "inf"],
    ["early-visit", *_ROTATION, "--eps", "1/10", "--h", "-1"],
    ["kac", *_ROTATION, "--eps", "1/20", "--samples", "-1"],
    ["kac", *_ROTATION, "--eps", "1/20", "--samples", "0"],
    ["kac", *_ROTATION, "--eps", "1/20", "--cap", "0"],
    ["ssum", "--q", "1009", "--m", "2", "--tuple", "0,2,6", "--support", "nan"],
    ["weights", "--k", "2", "--support", "nan"],
    ["prop71", "--alpha", "golden", "--delta", "nan"],
    ["budget-table", "--q-list", "101,210", "--h-budget", "nan"],
    ["budget-table", "--q-list", "101,210", "--C", "inf"],
], ids=["h-zero", "h-nan", "h-inf", "h-negative", "samples-negative", "samples-zero",
        "cap-zero", "support-ssum", "support-weights", "delta", "h-budget", "C"])
def test_out_of_range_number_is_a_usage_error(capsys, argv):
    # each of these raised a bare exception or reported NaN or Infinity
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "epsilon" not in err


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "primevisit.cli", "--version"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0


def test_prop71_deep_convergents_of_sqrt19(capsys):
    # q_40 ~ 2e16: the type estimate takes float() of exact distances whose
    # terms nearly cancel
    code, out, err = run_cli(
        capsys, "prop71", "--alpha", "sqrt:19:-4:1", "--eps-grid",
        "587e-5,603e-6,388e-8,155e-8,124e-10", "--depth", "40",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert all(r["lower_ok"] and r["upper_ok"] for r in doc["rows"])


def test_return_time_achieved_is_not_cancelled(capsys):
    import mpmath

    code, out, _ = run_cli(capsys, "return-time", "--alpha", "golden", "--eps", "1e-10")
    assert code == 0
    doc = json.loads(out)
    assert doc["tau"] == 4807526976
    with mpmath.workdps(60):
        x = doc["tau"] * (mpmath.sqrt(5) - 1) / 2
        want = float(abs(x - mpmath.nint(x)))
    assert abs(doc["achieved"] - want) <= 1e-9 * want


# stdout digests of operations in the shapes of the return-times and
# prime-visits workloads, captured before return times of quadratic angles
# moved to the integer walk of the complete quotients
_QUADRATIC_RETURN_TIME_BYTES = [
    (("return-time", "--alpha", "sqrt:15:11/4:-1/2", "--eps", "667e-6"),
     "07ed3ece24bb4c836cee0acd83f49a213b87fa40b56cbe58f5a738b414e59ca8"),
    (("return-time", "--alpha", "sqrt:7:5/2:-3/4", "--eps", "151e-11"),
     "ceda5dba54123c81c99d433a3678d629ff744611d72b135fd0e9cc64cb3faed9"),
    (("return-time", "--alpha", "sqrt:19:-2:2/3", "--eps", "112e-10"),
     "f92b1ff326b0945be86eef0aae8ae493d31a9423eb86d44b16cbb7dc20904379"),
    (("return-time", "--alpha", "sqrt:14:1:-1/4", "--eps", "789e-20"),
     "80041a813079b2a272bbebb1c43a6ee3861b7df8221498b8aca9733457c59492"),
    (("return-time", "--alpha", "sqrt:19:-2:2/3", "--eps", "346e-6",
      "--method", "bruteforce"),
     "9c8c3130b5142c56fda76d4cebc8a2b22593f090098103c52a5f7a21af96bf50"),
    (("prop71", "--alpha", "sqrt:19:-2:2/3", "--eps-grid",
      "754e-4,159e-6,838e-8,426e-10,283e-10", "--depth", "16"),
     "828fdaf501afa3898e5811c991be301af166e114734a3f39539dd7bcb89f9270"),
    (("prop71", "--alpha", "sqrt:7:5/2:-3/4", "--eps-grid",
      "136e-4,220e-6,326e-7,184e-9,785e-11", "--depth", "11"),
     "558581ce62999d99aceb2933290f8fd6337dc8cdcf3597d7fc59ace1cd6738b2"),
    (("early-visit", "--system", "rotation", "--alpha", "sqrt:22:43/3:-3",
      "--x0", "3/8", "--eps", "1/137"),
     "2c09b7a6b4f7fdd0899c3d2ea6de5175d6c6483bd331b07860c0af1212191756"),
    (("early-visit", "--system", "rotation", "--alpha", "sqrt:15:1:-1/4",
      "--x0", "7/8", "--eps", "1/274"),
     "6bcebfad976ef1442d61d21ccc3add5a2b1748f01867f119ceac81dc0e2442b8"),
]


@pytest.mark.parametrize("argv,digest", _QUADRATIC_RETURN_TIME_BYTES,
                         ids=[argv[0] for argv, _ in _QUADRATIC_RETURN_TIME_BYTES])
def test_quadratic_return_time_bytes(capsys, argv, digest):
    import hashlib

    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_return_time_of_a_large_prime_radicand(capsys):
    # a 15-digit prime d: the radicand is split once, at parse time
    import time

    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "return-time", "--alpha",
                           "sqrt:100000000000031:0:1", "--eps", "0.1")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out == (
        '{"achieved": 1.54999999999988e-06, "achieved_error": 0.0, "alpha": '
        '"0+1*sqrt(100000000000031)", "command": "return-time", "epsilon": '
        '"1/10", "method": "convergent", "schema_version": 1, "tau": 1, '
        '"tool_version": "0.1.0"}\n'
    )


def test_parser_built_once(capsys):
    run_cli(capsys, "tuple", "--k", "2")
    code, out, _ = run_cli(capsys, "tuple", "--k", "3")
    assert code == 0 and json.loads(out)["offsets"] == [0, 2, 6]
    assert cli._build_parser.cache_info().misses == 1


def test_kac_rotation_stratified_samples(capsys):
    # iid draws put these two at relative errors 0.145 and 0.119
    for alpha, x0, eps, seed in (("sqrt:15:-7/3:3/4", "0", "1/38", "263776"),
                                 ("sqrt:15:31/4:-2", "1/4", "1/15", "429886")):
        code, out, _ = run_cli(capsys, "kac", "--system", "rotation", "--alpha", alpha,
                               "--x0", x0, "--eps", eps, "--seed", seed)
        doc = json.loads(out)
        assert code == 0 and doc["censored"] == 0
        assert doc["relative_error"] < 0.02


class _Reads:
    """The parsed arguments, recording the name of every attribute read."""

    def __init__(self, args, seen):
        self._args, self._seen = args, seen

    def __getattr__(self, name):
        self._seen.add(name)
        return getattr(self._args, name)


# per subcommand: (argv, exit code); together they reach every branch that
# reads a flag (each --system, --method bruteforce, --family tensor, no
# --h-budget, verify with --output)
_EVERY_FLAG_RUNS = {
    "pm": [(["--q", "7", "--a", "1", "--m", "2"], 0)],
    "min-pm": [(["--q", "10", "--m", "2"], 0)],
    "census": [(["--q", "10", "--m", "2", "--X", "13"], 0)],
    "tuple": [(["--k", "3"], 0)],
    "budget-table": [(["--q-list", "101,210", "--m", "3", "--C", "0.001"], 0)],
    "weights": [(["--family", "tensor", "--k", "2", "--support", "0.1", "--m", "2"], 0),
                (["--family", "psi", "--k", "3", "--theta", "1"], 0)],
    "ssum": [(["--q", "1009", "--m", "2", "--tuple", "0,2,6", "--support", "0.05"], 0),
             (["--q", "101", "--m", "2", "--tuple", "0,2", "--work-cap", "3"], 3)],
    "discrepancy": [(["--q", "30", "--R", "5"], 0),
                    (["--q", "30", "--R", "5", "--work-cap", "10"], 3)],
    "return-time": [(["--alpha", "golden", "--eps", "1/10"], 0),
                    (["--alpha", "golden", "--eps", "1/10", "--method", "bruteforce"], 0)],
    "prop71": [(["--alpha", "golden", "--eps-grid", "1/10,1/100", "--depth", "5"], 0)],
    "visits": [
        (["--system", "shift", "--q", "4", "--x0", "0", "--x", "1", "--eps", "1/2",
          "--m", "3", "--cap", "10000"], 0),
        (["--system", "rotation", "--alpha", "golden", "--x0", "0", "--x", "1/2",
          "--eps", "1/10", "--m", "2", "--cap", "100000"], 0),
        (["--system", "mobius", "--g", "1,1/3,0,1", "--x0", "0,1", "--x", "0,1",
          "--eps", "1/5", "--m", "1", "--cap", "1000"], 0),
    ],
    "early-visit": [
        (["--system", "shift", "--q", "7", "--x0", "0", "--eps", "1/2"], 0),
        (["--system", "rotation", "--alpha", "golden", "--x0", "0", "--eps", "1/10"], 0),
        (["--system", "mobius", "--g", "1,3/10,0,1", "--x0", "0,1", "--eps", "1/5"], 0),
    ],
    "kac": [
        (["--system", "shift", "--q", "7", "--x0", "0", "--eps", "1/2",
          "--samples", "200"], 0),
        (["--system", "rotation", "--alpha", "golden", "--x0", "0", "--eps", "1/20",
          "--samples", "200", "--seed", "7"], 0),
        # Moebius Kac statistics are refused, after --g is read
        (["--system", "mobius", "--g", "1,1,0,1", "--x0", "0,1", "--eps", "1/5"], 2),
    ],
    "verify": [(["--only", "c08", "--output", "VERIFY_OUT"], 0)],
}


def test_every_flag_is_read(capsys, monkeypatch, tmp_path):
    reads = {name: set() for name in cli._HANDLERS}
    for name, handler in cli._HANDLERS.items():
        def recording(args, *rest, handler=handler, seen=reads[name]):
            return handler(_Reads(args, seen), *rest)
        monkeypatch.setitem(cli._HANDLERS, name, recording)

    out = str(tmp_path / "verify.json")
    for command, runs in _EVERY_FLAG_RUNS.items():
        for argv, want in runs:
            argv = [out if a == "VERIFY_OUT" else a for a in argv]
            code, _, err = run_cli(capsys, command, *argv)
            assert code == want, (command, argv, err)

    (subparsers,) = (a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(_EVERY_FLAG_RUNS)
    for command, parser in subparsers.choices.items():
        dests = {a.dest for a in parser._actions if a.default != argparse.SUPPRESS}
        assert dests | {"command"} <= reads[command], (command, dests - reads[command])

    # a flag goes only where it is read
    assert run_cli(capsys, "pm", "--q", "7", "--a", "1", "--m", "2", "--seed", "3")[0] == 2
    assert run_cli(capsys, "tuple", "--k", "3", "--work-cap", "1")[0] == 2
    for fmt in ("json", "csv"):  # one output format, JSON
        assert run_cli(capsys, "tuple", "--k", "3", "--format", fmt)[0] == 2


# stdout digests, one argv per subcommand but verify: a report's fields are
# those of its dataclass plus the inputs the subcommand echoes
_PINNED_OUTPUT = [
    (("pm", "--q", "7", "--a", "1", "--m", "3"),
     "7b502cb3c50e88d4b79a63f8310c9dee42fc89030679e07182902994f76cd7db"),
    (("min-pm", "--q", "101", "--m", "2"),
     "c7953a3da226ba8755805a4484a506b9b6f960acd076ab48faa4a6fadf366b78"),
    (("census", "--q", "10", "--m", "2", "--X", "100"),
     "083d672218271ce5d110820a2b58e274916c7648f261292fe246bbe57768fe43"),
    (("tuple", "--k", "4"),
     "c450a11ff640a27b7bdd191b4d27a9565c52a62215e7f6259cf6ddafad41e5c0"),
    (("budget-table", "--q-list", "101,210", "--m", "2"),
     "48f5a65269bdfb50dd250baa0f2cb9d654f5a077dc0b2eaef1f7b930fdcd52bd"),
    (("weights", "--k", "3", "--support", "0.08", "--m", "2"),
     "76dd31c1870a37ba384a3707a294ab6f016e2ab02c9fc44a6598dc6b77b0e6c3"),
    (("ssum", "--q", "1009", "--m", "2", "--tuple", "0,2,6", "--support", "0.05"),
     "fc8082867ed9ddf3538644d99de35614c7241088a45790472a037dde08c9bd8f"),
    (("discrepancy", "--q", "30", "--R", "5"),
     "c8671cb673cf837da8bbe5ac2cbf3a63e7e9187a9c33a62f007602c7ae47b716"),
    (("return-time", "--alpha", "golden", "--eps", "1/1000"),
     "68d8167d564ac09b3b493c8f2dd227607a5be5898d13126ba88a8f852dec1440"),
    (("prop71", "--alpha", "sqrt:19:-4:1", "--eps-grid", "1/10,1/1000",
      "--depth", "10"),
     "d9ff9251d4dc47bb260d8120614524073461ab0040e31349c3bea8b0422b931b"),
    (("visits", "--system", "rotation", "--alpha", "golden", "--x0", "0",
      "--x", "1/3", "--eps", "1/100", "--m", "3", "--cap", "100000"),
     "a67b0ddb131c4feae8d166a76eba3c2112cf70d250a33784f4fd4fc550d0e1d7"),
    (("early-visit", "--system", "shift", "--q", "7", "--x0", "0", "--eps", "1/2"),
     "efffa22d40dbb6db8a135956ff492dec7b1cea30f367a18232c1f473433e4848"),
    (("kac", "--system", "rotation", "--alpha", "golden", "--x0", "0",
      "--eps", "1/20", "--samples", "200", "--seed", "7"),
     "d7aacb35f3e78a4e60aa0235a4267b2391df56244aa2be80cb3f82401146494d"),
]


@pytest.mark.parametrize("argv,digest", _PINNED_OUTPUT,
                         ids=[argv[0] for argv, _ in _PINNED_OUTPUT])
def test_pinned_output(capsys, argv, digest):
    import hashlib

    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_json_record(tmp_path, capsys):
    # elapsed varies from run to run, so the fields are checked, not the bytes
    from dataclasses import fields

    from primevisit.acceptance import CriterionResult

    path = tmp_path / "verify.json"
    assert main(["verify", "--only", "c08", "--output", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["command"] == "verify" and doc["passed"] is True
    assert doc["schema_version"] == 1 and doc["tool_version"] == cli.__version__
    (row,) = doc["rows"]
    assert set(row) == {f.name for f in fields(CriterionResult)}
    assert row["cid"] == "c08" and row["passed"] is True
    # commas and all, the strings stay whole
    assert row["title"] == "(k, rho) selection rule"
    assert row["details"].startswith("k(m=2, theta=1/2) = 2981, ")
    assert 0 <= row["elapsed"] < 10


def test_ssum_sieves_only_the_windows_it_reads(capsys):
    # a + q*h for a in [1, q] lies in one window of q integers per offset;
    # flagging all of [2, q + q*max(h)] took 10^8 flags and 0.5 s of CPU
    import time

    start = time.process_time()
    code, out, err = run_cli(capsys, "ssum", "--q", "101", "--m", "2", "--tuple",
                             "0,1000000", "--support", "0.1", "--w-override", "3")
    assert time.process_time() - start < 0.2
    assert code == 0 and err == ""
    assert out == (
        '{"S": -2.0, "Wq": 6, "b0": 5, "census_lower_bound": -1.0, "command": '
        '"ssum", "k": 2, "m": 2, "max_weight": 1.0, "nonprime_sum": 16.0, '
        '"offsets": [0, 1000000], "prime_sums": [12.0, 2.0], "q": 101, '
        '"residues_enumerated": 16, "schema_version": 1, "smallfactor_sums": '
        '[0.0, 0.0], "smallprime_cutoff": 1, "tool_version": "0.1.0", "w": 3}\n'
    )
