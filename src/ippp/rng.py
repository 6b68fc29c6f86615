"""Seedable deterministic randomness and base variate generators.

The bit source is Philox 4x64 (counter based, 256-bit counter plus a
128-bit key built from the 64-bit seed and stream id), so identical
(seed, stream) pairs reproduce identical sequences on every platform and
distinct stream ids give independent streams.  All distribution
transforms are implemented here on top of the raw word stream rather
than delegated to numpy's Generator methods, which keeps golden values
stable across numpy versions.  The numeric path from words to variates is
fixed by this file, with one exception: an Erlang draw of shape 1-7 adds
its exponentials left to right, but one of shape 8 or more is
``np.add.reduce`` over them, whose pairwise summation order is numpy's.

Uniform draws consume one 64-bit word each, so a vectorized
``uniform01(size=n)`` consumes exactly the words of n scalar draws and
produces bitwise-equal values.  The same holds for ``exponential`` and
``erlang`` (lane major: each lane takes a contiguous block of words),
and ``arrivals`` consumes exactly the words of its scalar loop.
A Poisson count is an arrival count: a scalar ``poisson(mean)`` is
``arrivals(0.0, mean).size`` and uses count + 1 words.  A batch of n cuts
one arrival path on (0, n*mean] into n consecutive windows of length
``mean``, so it is deterministic for (seed, stream, size) but is not
word-for-word the same as a sequence of scalar calls.  An arrival path
must lie within 2**53 of 0, where a gap below 1 still moves its sum, and
its gaps are summed from 0, not from its start, so that they keep their
law at any start.

Philox is counter based, so the position in the stream is the number of
words drawn, which RngState counts.  Arrivals are drawn in blocks of gaps,
and the block that crosses the path's end draws words past it; the
stream is moved back from the count (``advance`` to the Philox step
before the last word used, then ``random_raw`` up to that word), which
leaves it exactly as a stream that drew only the used words, buffer
included.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidMean, InvalidParameter, InvalidShape, _integer, _real

__all__ = ["RngState"]

_U64 = 2**64

_INV_2_53 = 2.0**-53

# a 53-bit uniform is a word's top 53 bits times 2**-53
_SHIFT = np.uint64(11)

# arrivals must stay below this in magnitude, where a gap below 1 still
# moves their sum
_EXACT = 2.0**53

# the counter of a fresh Philox, passed as an array: Philox turns its
# default, the int 0, into one with Python-level arithmetic, which takes
# about a third of its construction
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.setflags(write=False)

# largest block of gaps drawn at once by RngState._arrival_block
_ARRIVAL_BLOCK = 1 << 16

# the shortest sum that np.add.reduce adds pairwise rather than left to right
_PAIRWISE = 8


class RngState:
    """A deterministic random source identified by (seed, stream).

    Single-owner: not safe to share between threads.  Parallel work should
    derive one stream id per worker from a common seed.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = _integer(seed, "seed", low=0, high=_U64 - 1)
        self.stream = _integer(stream, "stream", low=0, high=_U64 - 1)
        self._bits = np.random.Philox(_key_type()(self.seed, self.stream), _ZERO_COUNTER)
        self._words = 0  # words drawn: the position in the stream

    def __repr__(self):
        return f"RngState(seed={self.seed}, stream={self.stream})"

    # -- core draws ----------------------------------------------------------

    def uniform01(self, size: int | None = None):
        """Uniform variates on [0, 1) with 53-bit precision.

        Scalar when ``size`` is None, else a 1-d array of length ``size``.
        """
        vals = self._uniform(_check_size(size))
        return float(vals[0]) if size is None else vals

    def _uniform(self, n: int, scale: float = _INV_2_53):
        # n words as 53-bit uniforms u (scale 2**-53), or exactly -u (scale
        # -2**-53); every word is drawn here, so ``_words`` counts them all
        self._words += n
        w = self._bits.random_raw(n)
        w >>= _SHIFT
        return w * scale

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
        Below shape 8 a lane's exponentials are added left to right, a
        column at a time, which is the order ``np.add.reduce`` takes there,
        so the bits are the same at a fraction of its cost.  From shape 8
        on, the sum is ``np.add.reduce`` and follows its pairwise order.
        """
        shape = _integer(shape, "shape", InvalidShape, low=1)
        n = _check_size(size)
        # -log1p(-u), as in exponential, in place: a batch holds one
        # double per word
        steps = self._uniform(n * shape, -_INV_2_53)
        np.log1p(steps, out=steps)
        np.negative(steps, out=steps)
        steps = steps.reshape(n, shape)
        if shape < _PAIRWISE:
            vals = steps[:, 0].copy()
            for j in range(1, shape):
                vals += steps[:, j]
        else:
            vals = np.add.reduce(steps, axis=1)
        return float(vals[0]) if size is None else vals

    def arrivals(self, start: float, stop: float):
        """Arrival times of a unit-rate process from ``start`` up to ``stop``.

        The partial sums E1, E1 + E2, ... that are <= stop - start, added
        left to right from 0, each then added to start and kept at most
        stop.  Bitwise the values, and exactly the count + 1 words, of the
        scalar loop ``s = exponential(); while s <= stop - start: keep
        min(start + s, stop); s += exponential()``.  Summed from start, a
        gap below ulp(start) / 2 would not move the sum, and counts would
        run high from start = 2**52 on; summed from 0, they keep their law
        at any start, and a start of 0 gives the sums themselves.  Both
        bounds must be finite real numbers below 2**53 in magnitude
        (InvalidParameter); a stop below start gives no arrivals.
        """
        start = _real(start, "start")
        stop = _real(stop, "stop")
        _check_path(start, stop, InvalidParameter)
        span, y, blocks = stop - start, 0.0, []
        while True:
            neg, done = self._arrival_block(y, span)
            blocks.append(neg)
            if done:
                break
            y = -float(neg[-1])
        out = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        np.subtract(start, out, out=out)
        return np.minimum(out, stop, out=out)

    def _arrival_block(self, y: float, stop: float):
        # The next block of arrivals after y, negated: -(y + E1),
        # -(y + E1 + E2), ..., and whether it ends the path at ``stop``.
        # Each -E is log1p(-u) from the words' -u and the block a running sum,
        # which gives the arrivals' bits negated, as IEEE addition is
        # symmetric in sign.  The block that crosses ``stop`` is cut there
        # and the stream moved back from the word count to just past the
        # first gap beyond it, where the scalar loop leaves it.
        room = max(stop - y, 0.0)
        n = min(int(room + 4.0 * math.sqrt(room)) + 16, _ARRIVAL_BLOCK)
        neg = self._uniform(n, -_INV_2_53)
        np.log1p(neg, out=neg)
        neg[0] -= y
        np.add.accumulate(neg, out=neg)  # np.cumsum's sum, at less call cost
        k = int(np.count_nonzero(neg >= -stop))  # a prefix: neg never rises
        if k == n:
            return neg, False
        words = self._words - n + k + 1
        step = (words + 3) // 4  # the Philox step that holds the last word used
        self._bits.advance(step - 1 - (self._words + 3) // 4)
        self._bits.random_raw(words - 4 * step + 4)
        self._words = words
        return neg[:k], True

    def poisson(self, mean: float, size: int | None = None):
        """Poisson counts: the unit-rate arrivals in windows of length ``mean``.

        A scalar draw is ``arrivals(0.0, mean).size`` and uses exactly its
        count + 1 words.  A batch of n cuts one arrival path on
        (0, n*mean] into n consecutive windows of length ``mean``; the
        counts are i.i.d. Poisson(mean) because the process has independent
        increments.  Each block of arrivals is binned as it is drawn, so
        memory stays O(n) whatever the mean.  A batch of one equals the
        scalar draw; ``mean == 0`` and ``size=0`` use no words.  The path's
        end, mean or n*mean, must be below 2**53 (InvalidMean).
        """
        mean = _real(mean, "mean", InvalidMean, low=0.0)
        n = _check_size(size)
        _check_path(0.0, mean * (1 if size is None else n), InvalidMean)
        if size is None:
            count, y = 0, 0.0
            while mean > 0:  # a mean of 0 draws no word
                neg, done = self._arrival_block(y, mean)
                count += neg.size
                if done:
                    break
                y = -float(neg[-1])
            return count
        counts = np.zeros(n, dtype=np.int64)
        if mean > 0 and n:
            y = 0.0
            while True:
                neg, done = self._arrival_block(y, n * mean)
                # lane i holds (i*mean, (i+1)*mean]; y/mean can round past an
                # end, and -y/-mean is y/mean bit for bit
                lanes = np.ceil(neg / -mean).astype(np.int64) - 1
                counts += np.bincount(np.clip(lanes, 0, n - 1), minlength=n)
                if done:
                    break
                y = -float(neg[-1])
        return counts


class _Key:
    """A Philox key as a seed sequence: ``Philox(_Key(seed, stream))`` is
    ``Philox(key=[seed, stream])`` built without reading OS entropy."""

    def __init__(self, seed: int, stream: int):
        self.key = np.array([seed, stream], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


@functools.cache
def _key_type():
    # registered on first use, as numpy.random takes ~17 ms to import
    np.random.bit_generator.ISeedSequence.register(_Key)
    return _Key


def _check_path(start: float, stop: float, error):
    # an arrival path must lie within 2**53 of 0, before any word is drawn
    if not (abs(start) < _EXACT and abs(stop) < _EXACT):
        raise error(
            f"an arrival path must lie within 2**53 of 0, where a gap "
            f"below 1 still moves its sum; got one from {start!r} to {stop!r}"
        )


def _check_size(size) -> int:
    # lanes to draw: one for a scalar draw (size None), else ``size``
    return 1 if size is None else _integer(size, "size", low=0)
