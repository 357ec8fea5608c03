import json
import subprocess
import sys

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


def test_env_work_cap(capsys, monkeypatch):
    monkeypatch.setenv("PVL_WORK_CAP", "10")
    code, _, err = run_cli(capsys, "discrepancy", "--q", "10007", "--R", "90")
    assert code == 3


def test_byte_identical_output(tmp_path, capsys):
    args = ["kac", "--system", "rotation", "--alpha", "sqrt:2:-1:1",
            "--x0", "0", "--eps", "0.05", "--samples", "500", "--cap", "5000",
            "--seed", "7"]
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(args + ["--output", str(p1)]) == 0
    assert main(args + ["--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_format(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["budget-table", "--q-list", "101,210", "--m", "2",
                 "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == sorted(
        ["q", "a_star", "p_m", "ratio", "h_budget", "passed"]
    )
    assert len(lines) == 3
    assert "." in lines[1]  # decimal point, no locale


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


def test_early_visit_rotation_cli(capsys):
    code, out, _ = run_cli(
        capsys, "early-visit", "--system", "rotation", "--alpha", "golden",
        "--x0", "0", "--eps", "0.1",
    )
    doc = json.loads(out)
    assert doc["reverified"] is True
    assert doc["certificate"]["q_return"] == 2584
    assert doc["certificate"]["certified"] is True


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
