"""The demos run to completion.

run_continuation_family.py is left out: it continues four fixed points
and takes over 20 s on a 2-core machine.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script",
    ["run_cylinder_solve.py", "run_divisor_analysis.py", "run_free_and_hartree_flow.py"],
)
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
