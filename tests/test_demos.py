"""Each demo runs to its end in process, so an API change that breaks a
walkthrough fails the suite."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name", ["prime_clusters", "sieve_machinery", "return_times", "recurrence_systems"]
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
