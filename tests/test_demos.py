"""The demos run to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script",
    [
        "run_continuation_family.py",
        "run_cylinder_solve.py",
        "run_divisor_analysis.py",
        "run_free_and_hartree_flow.py",
    ],
)
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
