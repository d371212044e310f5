"""Every demo script imports cleanly.

Each demo guards ``main()`` behind ``__main__``, so loading one under another
run name costs only its imports and runs no simulation.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_loads_without_running(path):
    runpy.run_path(str(path), run_name="demo")
