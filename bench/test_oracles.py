"""The analytic oracles against numerical quadrature.

Run with ``python3 -m pytest bench/test_oracles.py``.  Each rate of the
benchmark mix is integrated with ``scipy.integrate.quad`` between
breakpoints (every spike centre, kink and jump inside the interval), and
the oracle's R(hi) - R(lo) must agree to 1e-10 relative.
"""

import math
import os
import sys

import numpy as np
import pytest
import scipy.integrate

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import mix  # noqa: E402

INTERVALS = [(0.0, 1.0), (0.0, 10.0), (-3.0, 7.5), (4.9, 5.1), (0.3, 0.7), (100.0, 160.0), (0.0, 2000.0)]


def _quad(rate, lo, hi):
    cuts = set(np.linspace(lo, hi, int(math.ceil((hi - lo) / 5.0)) + 1).tolist())
    for b in rate.breaks:
        if lo <= b <= hi:
            # cluster cuts around each breakpoint so the spikes' 1e-4 widths are resolved
            for d in (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
                cuts.update(c for c in (b - d, b + d) if lo < c < hi)
    cuts = sorted(cuts)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        total += scipy.integrate.quad(rate.r, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    return total


@pytest.mark.parametrize("name", sorted(mix.ORACLES))
@pytest.mark.parametrize("lo,hi", INTERVALS)
def test_mass_matches_quad(name, lo, hi):
    rate = mix.ORACLES[name]
    want = _quad(rate, lo, hi)
    got = rate.mass(lo, hi)
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want)) + rate.mass_err(lo, hi)


@pytest.mark.parametrize("name", sorted(mix.ORACLES))
def test_R_is_anchored_at_zero_and_nondecreasing(name):
    rate = mix.ORACLES[name]
    assert float(rate.R(0.0)) == 0.0
    t = np.linspace(-20.0, 40.0, 6001)
    assert np.all(np.diff(rate.R(t)) >= -rate.err(t[1:]) - rate.err(t[:-1]))


def test_named_fault_constants():
    spike = mix.ORACLES["spike"]
    assert spike.mass(0.0, 10.0) == pytest.approx(10.0 + 1000.0 * math.sqrt(math.pi * 1e-6), abs=1e-12)
    share = mix.ORACLES["spike2"]
    inside = share.mass(0.50049 - 5e-4, 0.50049 + 5e-4) / share.mass(0.0, 1.0)
    # the spike's own share is 3.42%; the flat part inside the band adds 0.10%
    assert inside == pytest.approx(0.0352, abs=5e-5)


def test_law_helpers():
    assert oracles.poisson_sum_p(100, 100.0) > 0.5
    assert oracles.poisson_sum_p(200, 100.0) < oracles.LAW_ALPHA
    assert oracles.binom_p(7, 20_000, 0.0342) < oracles.LAW_ALPHA
    u = (np.arange(1000) + 0.5) / 1000
    assert oracles.ks_p(u, "uniform") > 0.99
    x = np.linspace(0.0, 30.0, 3001)
    assert oracles.simpson(oracles.erlang_pdf(3, x), x) == pytest.approx(float(oracles.erlang_cdf(3, 30.0)), abs=1e-9)
