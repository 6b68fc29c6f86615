"""Each demo in ``demos/`` runs to completion.

The demos go through the public API end to end (the rejection sampler
among it); they run as child processes, with ``src`` on ``PYTHONPATH``
as ``conftest.py`` exports it.
"""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert [d.name for d in DEMOS] == [
        "bounded_window.py",
        "conditional_and_order_stats.py",
        "next_point.py",
        "time_change.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_zero(demo):
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
