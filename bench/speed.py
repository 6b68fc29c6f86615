"""A fixed unit of work that times the machine, not the program.

On a shared machine a core's speed can drop by nearly half for seconds
or minutes at a time, when other tenants load the hardware it shares.
Wall times then move with the machine, not with the program: two runs
of the same commit differed by 1.5x in throughput.  So every timed span
(an operation, a set-up) is bracketed by two probes, and its time is
reported scaled to a reference speed: time x REF_S / probe, with probe
the mean of the two.  The probe is interpreter and numpy work like the
workloads' own and touches nothing of ``ippp``, so a change to the
program moves the scaled times exactly as it moves the raw ones.  The
raw times are kept in each run's result file.
"""

import time

import numpy as np

# probe time that defines the reference speed: about this machine's
# undisturbed speed
REF_S = 1e-4


class Probe:
    def __init__(self):
        self._x = np.random.default_rng(0).random(5000)

    def _work(self):
        s = 0
        for i in range(2000):
            s += i & 7
        np.sort(np.exp(self._x))
        return s

    def __call__(self) -> float:
        """Seconds for one unit of work, the faster of two tries."""
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - t0)
        return best


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the probes around it."""
    return seconds * REF_S / (0.5 * (before + after))
