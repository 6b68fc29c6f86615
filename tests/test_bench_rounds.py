"""The benchmark's own checks on a few of its rounds.

``bench/workloads.py`` checks every output of a round against analytic
oracles and the method's promises.  Two ``window`` rounds and one
``timechange`` round run here, so a change that breaks an operation's
check fails tier-1, not only a benchmark run.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name, rounds", [("window", 2), ("timechange", 1)])
def test_every_operation_passes_its_check(name, rounds):
    wl = workloads.make(name, 1, str(ROOT))
    wl.setup()
    for r in range(rounds):
        for op in wl.round(r):
            reason, _ = op.check(op.run())
            assert reason is None, f"{op.name} in round {r}: {reason}"
