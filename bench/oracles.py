"""Analytic oracles for every rate in the benchmark mix, and the law tests.

Nothing here imports ``ippp``: each rate's cumulative intensity R(t), the
integral of r from 0 to t, is written in closed form, so a window mass is
R(hi) - R(lo) and a location CDF is (R(x) - R(lo)) / mass.  R is anchored
at 0 like ``ippp.CumulativeIntensity``, so values of the two can be
compared directly.

scipy is imported inside the functions that need it: the benchmark times
``import ippp`` during set-up, and an earlier scipy import by the
benchmark itself would hide part of that cost.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = np.finfo(float).eps

# Per-test p-value below which a law check fails.  A run makes fewer than
# 100 law tests, so a correct sampler fails a run with probability below
# 100 * 1e-9 = 1e-7.
LAW_ALPHA = 1e-9


def _erf(x):
    import scipy.special

    return scipy.special.erf(x)


class Rate:
    """Base: r(x), R(t) = int_0^t r, and the error bound of R."""

    breaks: tuple = ()

    def r(self, x):
        raise NotImplementedError

    def R(self, t):
        raise NotImplementedError

    def scale(self, t):
        """Magnitude of the terms summed to form R(t), for its error bound."""
        raise NotImplementedError

    def err(self, t):
        """Bound on |R_computed(t) - R(t)| from rounding in this oracle."""
        return 64.0 * _EPS * (1.0 + np.abs(self.scale(np.asarray(t, dtype=float))))

    def mass(self, lo, hi):
        return float(self.R(hi) - self.R(lo))

    def edge(self, sign):
        """R at +inf (sign 1) or -inf (sign -1)."""
        return sign * math.inf

    def mass_err(self, lo, hi):
        return float(self.err(lo) + self.err(hi))

    def cdf(self, x, lo, hi):
        """Location CDF on [lo, hi]."""
        return (self.R(np.clip(x, lo, hi)) - self.R(lo)) / self.mass(lo, hi)


class Constant(Rate):
    def __init__(self, c):
        self.c = float(c)

    def r(self, x):
        return np.full(np.shape(x), self.c)

    def R(self, t):
        return self.c * np.asarray(t, dtype=float)

    def scale(self, t):
        return self.c * np.abs(t)


class Linear(Rate):
    """r(x) = max(0, a + b x), b != 0."""

    def __init__(self, a, b):
        self.a = float(a)
        self.b = float(b)
        self.breaks = (-self.a / self.b,)

    def r(self, x):
        return np.maximum(0.0, self.a + self.b * np.asarray(x, dtype=float))

    def _g(self, t):
        return np.maximum(0.0, self.a + self.b * t) ** 2 / (2.0 * self.b)

    def R(self, t):
        return self._g(np.asarray(t, dtype=float)) - self._g(0.0)

    def scale(self, t):
        return np.abs(self._g(t)) + abs(self._g(0.0))


class PiecewiseConstant(Rate):
    """levels[i] on [breaks[i], breaks[i+1]), zero outside."""

    def __init__(self, breaks, levels):
        self.breaks = tuple(float(b) for b in breaks)
        self.levels = tuple(float(v) for v in levels)
        bp = np.asarray(self.breaks)
        self._cum = np.concatenate([[0.0], np.cumsum(np.diff(bp) * self.levels)])

    def r(self, x):
        x = np.asarray(x, dtype=float)
        last = len(self.levels) - 1
        idx = np.searchsorted(self.breaks, x, side="right") - 1
        idx = np.where(x == self.breaks[-1], last, idx)  # the last piece is closed
        inside = (idx >= 0) & (idx <= last)
        return np.where(inside, np.asarray(self.levels)[np.clip(idx, 0, last)], 0.0)

    def _G(self, t):
        t = np.asarray(t, dtype=float)
        bp = np.asarray(self.breaks)
        tc = np.clip(t, bp[0], bp[-1])
        idx = np.clip(np.searchsorted(bp, tc, side="right") - 1, 0, len(self.levels) - 1)
        return self._cum[idx] + (tc - bp[idx]) * np.asarray(self.levels)[idx]

    def R(self, t):
        return self._G(t) - self._G(0.0)

    def scale(self, t):
        return np.abs(self._G(t)) + abs(float(self._G(0.0)))


class Sinusoidal(Rate):
    """r(x) = a + b sin(w x + phi)."""

    def __init__(self, a, b, w=1.0, phi=0.0):
        self.a, self.b, self.w, self.phi = float(a), float(b), float(w), float(phi)

    def r(self, x):
        return self.a + self.b * np.sin(self.w * np.asarray(x, dtype=float) + self.phi)

    def R(self, t):
        t = np.asarray(t, dtype=float)
        return self.a * t - (self.b / self.w) * (np.cos(self.w * t + self.phi) - math.cos(self.phi))

    def scale(self, t):
        # cos of a large argument carries the argument's rounding error
        return np.abs(self.a * t) + abs(self.b / self.w) * (2.0 + np.abs(self.w * t))


class Bump(Rate):
    """r(x) = c + A exp(-(x - mu)^2 / w): Gaussian bumps and spikes."""

    def __init__(self, c, A, mu, w):
        self.c, self.A, self.mu, self.w = float(c), float(A), float(mu), float(w)
        self.breaks = (self.mu,)

    def r(self, x):
        x = np.asarray(x, dtype=float)
        return self.c + self.A * np.exp(-((x - self.mu) ** 2) / self.w)

    def _G(self, t):
        s = math.sqrt(self.w)
        return self.c * t + self.A * 0.5 * math.sqrt(math.pi) * s * _erf((t - self.mu) / s)

    def R(self, t):
        return self._G(np.asarray(t, dtype=float)) - self._G(0.0)

    def scale(self, t):
        return np.abs(self.c * t) + 2.0 * self.A * math.sqrt(math.pi * self.w)

    def edge(self, sign):
        if self.c != 0:
            return sign * math.inf
        s = math.sqrt(self.w)
        return self.A * 0.5 * math.sqrt(math.pi) * s * (sign - float(_erf(-self.mu / s)))


class Plateau(Rate):
    """r(x) = max(0, sin(x)): zero on every other half period."""

    def __init__(self):
        self.breaks = tuple(k * math.pi for k in range(-4, 400))

    def r(self, x):
        return np.maximum(0.0, np.sin(np.asarray(x, dtype=float)))

    def R(self, t):
        t = np.asarray(t, dtype=float)
        k = np.floor(t / (2.0 * math.pi))
        s = t - 2.0 * math.pi * k
        return 2.0 * k + np.where(s <= math.pi, 1.0 - np.cos(s), 2.0)

    def scale(self, t):
        return 2.0 + np.abs(t)


# -- law tests -------------------------------------------------------------


def poisson_sum_p(total: int, mean: float) -> float:
    """Two-sided exact p-value of a Poisson(mean) total."""
    import scipy.stats

    lo = scipy.stats.poisson.cdf(total, mean)
    hi = scipy.stats.poisson.sf(total - 1, mean)
    return float(min(1.0, 2.0 * min(lo, hi)))


def binom_p(k: int, n: int, p: float) -> float:
    """Two-sided exact p-value of k successes in n Bernoulli(p) trials."""
    import scipy.stats

    if n == 0:
        return 1.0
    lo = scipy.stats.binom.cdf(k, n, p)
    hi = scipy.stats.binom.sf(k - 1, n, p)
    return float(min(1.0, 2.0 * min(lo, hi)))


def normal_p(k: int, mean: float, var: float) -> float:
    """Two-sided p-value of a count with the given mean and variance, by
    the normal approximation (a sum of many binomials); exact when the
    variance is 0."""
    import scipy.stats

    if var == 0:
        return 1.0 if k == mean else 0.0
    return float(2.0 * scipy.stats.norm.sf(abs(k - mean) / math.sqrt(var)))


def ks_p(values, cdf) -> float:
    """Kolmogorov-Smirnov p-value of ``values`` against a continuous CDF."""
    import scipy.stats

    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 1.0
    return float(scipy.stats.kstest(values, cdf).pvalue)


def erlang_cdf(n: int, u):
    import scipy.special

    return scipy.special.gammainc(n, np.maximum(np.asarray(u, dtype=float), 0.0))


def erlang_pdf(n: int, u):
    u = np.maximum(np.asarray(u, dtype=float), 0.0)
    with np.errstate(divide="ignore"):
        return np.exp((n - 1) * np.log(u) - u - math.lgamma(n)) if n > 1 else np.exp(-u)


def simpson(y, x) -> float:
    """Composite Simpson rule on an evenly spaced grid with an odd length."""
    y = np.asarray(y, dtype=float)
    h = (x[-1] - x[0]) / (len(x) - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))
