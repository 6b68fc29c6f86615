"""Seedable deterministic randomness and base variate generators.

The bit source is Philox 4x64 (counter based, 256-bit counter plus a
128-bit key built from the 64-bit seed and stream id), so identical
(seed, stream) pairs reproduce identical sequences on every platform and
distinct stream ids give independent streams.  All distribution
transforms are implemented here on top of the raw word stream rather
than delegated to numpy's Generator methods: the numeric path from words
to variates is then fixed by this file alone, which keeps golden values
stable across numpy versions.

Uniform draws consume one 64-bit word each, so a vectorized
``uniform01(size=n)`` consumes exactly the words of n scalar draws and
produces bitwise-equal values.  The same holds for ``exponential`` and
``erlang`` (lane major: each lane takes a contiguous block of words),
and ``arrivals`` consumes exactly the words of its scalar loop.
A Poisson count is an arrival count: a scalar ``poisson(mean)`` is
``arrivals(0.0, mean).size`` and uses count + 1 words.  A batch of n
cuts one arrival path on (0, n*mean] into n consecutive windows of
length ``mean``, so it is deterministic for (seed, stream, size) but is
not word-for-word the same as a sequence of scalar calls.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidMean, InvalidShape, _integer, _real

__all__ = ["RngState"]

_U64 = 2**64

_INV_2_53 = 2.0**-53

# largest block of gaps drawn at once by RngState._arrival_blocks
_ARRIVAL_BLOCK = 1 << 16


class RngState:
    """A deterministic random source identified by (seed, stream).

    Single-owner: not safe to share between threads.  Parallel work should
    derive one stream id per worker from a common seed.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = _integer(seed, "seed", low=0, high=_U64 - 1)
        self.stream = _integer(stream, "stream", low=0, high=_U64 - 1)
        self._bits = np.random.Philox(
            key=np.array([self.seed, self.stream], dtype=np.uint64)
        )

    def __repr__(self):
        return f"RngState(seed={self.seed}, stream={self.stream})"

    # -- core draws ----------------------------------------------------------

    def _words(self, n: int):
        return self._bits.random_raw(n)

    def uniform01(self, size: int | None = None):
        """Uniform variates on [0, 1) with 53-bit precision.

        Scalar when ``size`` is None, else a 1-d array of length ``size``.
        """
        n = _check_size(size)
        vals = (self._words(n) >> np.uint64(11)) * _INV_2_53
        return float(vals[0]) if size is None else vals

    def exponential(self, size: int | None = None):
        """Unit-rate exponential variates via the inverse transform -log(1 - U)."""
        n = _check_size(size)
        u = self.uniform01(size=n)
        # log1p(-u) is -log(1-u) without cancellation for small u
        vals = -np.log1p(-u)
        return float(vals[0]) if size is None else vals

    def erlang(self, shape: int, size: int | None = None):
        """Erlang(shape, 1) variates: the sum of ``shape`` unit-rate
        exponential draws.

        Each output lane consumes a contiguous block of ``shape`` words, so
        a scalar draw equals the sum of ``shape`` sequential exponentials.
        """
        shape = _integer(shape, "shape", InvalidShape, low=1)
        n = _check_size(size)
        u = self.uniform01(size=n * shape).reshape(n, shape)
        vals = np.add.reduce(-np.log1p(-u), axis=1)
        return float(vals[0]) if size is None else vals

    def arrivals(self, start: float, stop: float):
        """Arrival times of a unit-rate process from ``start`` up to ``stop``.

        The partial sums start + E1, start + E1 + E2, ... that are <= stop,
        added left to right.  Bitwise the values, and exactly the count + 1
        words, of the scalar loop
        ``y = start + exponential(); while y <= stop: keep y; y += exponential()``.
        Both bounds must be finite real numbers (InvalidParameter); a stop
        below start gives no arrivals.
        """
        start = _real(start, "start")
        stop = _real(stop, "stop")
        return np.concatenate(list(self._arrival_blocks(start, stop)))

    def _arrival_blocks(self, start: float, stop: float):
        # Yield the arrivals in blocks of gaps.  For the block that crosses
        # ``stop`` the state is restored and only its words up to the first
        # gap past ``stop`` are drawn again, so the stream is left exactly
        # where the scalar loop leaves it.
        y = float(start)
        while True:
            state = self._bits.state
            room = max(float(stop) - y, 0.0)
            n = min(int(room + 4.0 * math.sqrt(room)) + 16, _ARRIVAL_BLOCK)
            ys = np.cumsum(np.concatenate(([y], self.exponential(size=n))))[1:]
            past = np.nonzero(ys > stop)[0]
            if past.size:
                k = int(past[0])
                self._bits.state = state
                self._words(k + 1)
                yield ys[:k]
                return
            yield ys
            y = float(ys[-1])

    def poisson(self, mean: float, size: int | None = None):
        """Poisson counts: the unit-rate arrivals in windows of length ``mean``.

        A scalar draw is ``arrivals(0.0, mean).size`` and uses exactly its
        count + 1 words.  A batch of n cuts one arrival path on
        (0, n*mean] into n consecutive windows of length ``mean``; the
        counts are i.i.d. Poisson(mean) because the process has independent
        increments.  Each block of arrivals is binned as it is drawn, so
        memory stays O(n) whatever the mean.  A batch of one equals the
        scalar draw; ``mean == 0`` and ``size=0`` use no words.
        """
        mean = _real(mean, "mean", InvalidMean, low=0.0)
        n = _check_size(size)
        counts = np.zeros(n, dtype=np.int64)
        if mean > 0 and n:
            for ys in self._arrival_blocks(0.0, n * mean):
                # lane i holds (i*mean, (i+1)*mean]; y/mean can round past an end
                lanes = np.ceil(ys / mean).astype(np.int64) - 1
                counts += np.bincount(np.clip(lanes, 0, n - 1), minlength=n)
        return int(counts[0]) if size is None else counts


def _check_size(size) -> int:
    # lanes to draw: one for a scalar draw (size None), else ``size``
    return 1 if size is None else _integer(size, "size", low=0)
