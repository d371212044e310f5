"""Every demo script imports cleanly, and the fast ones run.

Each demo guards ``main()`` behind ``__main__``, so loading one under another
run name costs only its imports and runs no simulation.  The demos that run
no simulation also have their ``main()`` called.
"""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
FAST_DEMOS = ("01_airtime_table", "02_duty_cycle", "03_model_sweeps", "06_sensor_thresholds")


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_loads_without_running(path):
    runpy.run_path(str(path), run_name="demo")


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_fast_demo_runs(name, capsys):
    demo = runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="demo")
    demo["main"]()
    assert capsys.readouterr().out
