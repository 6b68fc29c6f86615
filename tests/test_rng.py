"""Tests for the deterministic random source and its variate generators.

Golden values below were recorded from the first run of this
implementation and frozen; they pin the exact variate stream so future
refactors cannot silently change sampled output.  Distribution shape is
checked separately against scipy oracles.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.stats

from ippp.errors import InvalidMean, InvalidParameter, InvalidRate, InvalidShape
from ippp.rng import RngState

from stat_checks import chi_square_stat, ks_distance, ks_threshold

# First draws for (seed, stream) pairs, frozen at implementation time.
GOLDEN_UNIFORMS = {
    (42, 0): [0.8201981478608876, 0.18924562408645496],
    (42, 1): [0.443746921343274],
    (7, 0): [0.8720734548204873],
}
GOLDEN_EXPONENTIAL_42_RATE2 = 0.8579499279451315
GOLDEN_ERLANG_42_SHAPE3 = 3.9480770602412703
GOLDEN_POISSON_42_MEAN5 = [5, 7]


class TestGolden:
    def test_uniform_golden_values(self):
        for (seed, stream), want in GOLDEN_UNIFORMS.items():
            rng = RngState(seed, stream)
            got = [rng.uniform01() for _ in want]
            assert got == want

    def test_exponential_golden(self):
        assert RngState(42).exponential(2.0) == GOLDEN_EXPONENTIAL_42_RATE2

    def test_erlang_golden(self):
        assert RngState(42).erlang(3, 1.0) == GOLDEN_ERLANG_42_SHAPE3

    def test_poisson_golden(self):
        rng = RngState(42)
        assert [rng.poisson(5.0), rng.poisson(5.0)] == GOLDEN_POISSON_42_MEAN5


class TestDeterminism:
    def test_equal_seed_equal_sequences(self):
        a = RngState(123, 9)
        b = RngState(123, 9)
        seq_a = [a.uniform01(), a.exponential(1.5), a.erlang(4, 2.0), a.poisson(11.0)]
        seq_b = [b.uniform01(), b.exponential(1.5), b.erlang(4, 2.0), b.poisson(11.0)]
        assert seq_a == seq_b

    def test_streams_differ(self):
        assert RngState(5, 0).uniform01() != RngState(5, 1).uniform01()

    def test_batched_poisson_deterministic(self):
        a = RngState(3).poisson(60.0, size=100)
        b = RngState(3).poisson(60.0, size=100)
        assert np.array_equal(a, b)


class TestVectorScalarConsistency:
    """Vectorized draws must consume the same words as scalar sequences."""

    def test_uniform(self):
        batch = RngState(11).uniform01(size=6)
        rng = RngState(11)
        singles = np.array([rng.uniform01() for _ in range(6)])
        assert np.array_equal(batch, singles)

    def test_exponential(self):
        batch = RngState(11).exponential(0.7, size=6)
        rng = RngState(11)
        singles = np.array([rng.exponential(0.7) for _ in range(6)])
        assert np.array_equal(batch, singles)

    def test_erlang_lane_major(self):
        batch = RngState(11).erlang(3, 1.0, size=4)
        rng = RngState(11)
        singles = np.array([rng.erlang(3, 1.0) for _ in range(4)])
        assert np.array_equal(batch, singles)

    def test_erlang_is_sum_of_exponentials(self):
        want = RngState(42).erlang(3, 1.0)
        rng = RngState(42)
        parts = [rng.exponential(1.0) for _ in range(3)]
        assert (parts[0] + parts[1]) + parts[2] == want

    def test_poisson_size_one_matches_scalar(self):
        assert RngState(9).poisson(12.0, size=1)[0] == RngState(9).poisson(12.0)


class TestUniform:
    def test_range(self):
        u = RngState(1).uniform01(size=100_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_mean(self):
        u = RngState(2).uniform01(size=1_000_000)
        assert abs(float(u.mean()) - 0.5) < 0.002

    def test_ks_uniform(self):
        u = RngState(3).uniform01(size=10_000)
        assert ks_distance(u, lambda x: x) < ks_threshold(10_000)


class TestExponential:
    def test_mean_at_rate_2(self):
        x = RngState(4).exponential(2.0, size=100_000)
        assert abs(float(x.mean()) - 0.5) < 0.005

    def test_u_zero_maps_to_zero(self, monkeypatch):
        rng = RngState(0)
        monkeypatch.setattr(rng, "uniform01", lambda size=None: np.zeros(size or 1))
        assert rng.exponential(3.0, size=2).tolist() == [0.0, 0.0]

    def test_ks_over_many_seeds(self):
        # spec-level property: >= 95 of 100 seeds pass at alpha ~ 0.01
        passes = 0
        for seed in range(100):
            x = RngState(seed).exponential(1.0, size=10_000)
            d = ks_distance(x, lambda t: 1.0 - np.exp(-t))
            passes += d < ks_threshold(10_000)
        assert passes >= 95

    def test_invalid_rate(self):
        rng = RngState(0)
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(InvalidRate):
                rng.exponential(bad)


class TestErlang:
    def test_shape_one_is_exponential(self):
        a = RngState(8).erlang(1, 1.5, size=5)
        b = RngState(8).exponential(1.5, size=5)
        assert np.array_equal(a, b)

    def test_mean_shape_4(self):
        x = RngState(5).erlang(4, 1.0, size=100_000)
        assert abs(float(x.mean()) - 4.0) < 0.06

    def test_ks_against_gamma(self):
        x = RngState(6).erlang(3, 2.0, size=10_000)
        cdf = scipy.stats.gamma(a=3, scale=0.5).cdf
        assert ks_distance(x, cdf) < ks_threshold(10_000)

    def test_invalid_shape(self):
        rng = RngState(0)
        for bad in (0, -1, 2.0, True):
            with pytest.raises(InvalidShape):
                rng.erlang(bad, 1.0)


class TestPoisson:
    def test_zero_mean_is_zero_and_consumes_nothing(self):
        rng = RngState(42)
        assert all(rng.poisson(0.0) == 0 for _ in range(5))
        assert rng.uniform01() == GOLDEN_UNIFORMS[(42, 0)][0]

    def test_moments_at_mean_100(self):
        x = RngState(10).poisson(100.0, size=100_000)
        assert abs(float(x.mean()) - 100.0) < 1.0
        assert abs(float(x.var()) - 100.0) < 1.0

    def test_chunk_split_matches_inversion_oracle(self):
        # a batch of counts cut from one arrival path; compare moments
        # against a single-shot inversion sampler on an independent stream
        n = 100_000
        mine = RngState(20).poisson(60.0, size=n).astype(float)
        u = RngState(20, stream=99).uniform01(size=n)
        ref = scipy.stats.poisson.ppf(u, 60.0)
        mean_se = np.sqrt(2 * 60.0 / n)
        assert abs(mine.mean() - ref.mean()) < 3 * mean_se
        var_se = np.sqrt(2 * (60.0 + 2 * 60.0**2) / n)
        assert abs(mine.var() - ref.var()) < 3 * var_se

    def test_chi_square_against_pmf(self):
        n = 20_000
        mu = 7.5
        x = RngState(21).poisson(mu, size=n)
        # pool the tails so every expected count is >= 5
        lo, hi = 1, 16
        edges = list(range(lo, hi + 1))
        observed = [np.sum(x < lo)] + [np.sum(x == k) for k in edges] + [np.sum(x > hi)]
        probs = (
            [scipy.stats.poisson.cdf(lo - 1, mu)]
            + [scipy.stats.poisson.pmf(k, mu) for k in edges]
            + [1.0 - scipy.stats.poisson.cdf(hi, mu)]
        )
        expected = np.asarray(probs) * n
        assert np.all(expected >= 5)
        stat = chi_square_stat(observed, expected)
        assert stat < scipy.stats.chi2.ppf(0.99, len(expected) - 1)

    def test_chi_square_at_mean_1e4(self):
        n = 4000
        mu = 1e4
        x = RngState(22).poisson(mu, size=n)
        # 20 bins of about equal mass, split at the pmf's quantiles
        cuts = scipy.stats.poisson.ppf(np.linspace(0.0, 1.0, 21)[1:-1], mu)
        observed = np.bincount(np.searchsorted(cuts, x), minlength=20)
        cdf = scipy.stats.poisson.cdf(cuts, mu)
        expected = np.diff(np.concatenate(([0.0], cdf, [1.0]))) * n
        assert np.all(expected >= 5)
        stat = chi_square_stat(observed, expected)
        assert stat < scipy.stats.chi2.ppf(0.99, len(expected) - 1)

    def test_invalid_mean(self):
        rng = RngState(0)
        for bad in (-1.0, float("inf"), float("nan")):
            with pytest.raises(InvalidMean):
                rng.poisson(bad)


def _words_used(rng):
    # Philox words drawn so far: four per counter step, less the buffer
    st = rng._bits.state
    ctr = sum(int(v) << (64 * i) for i, v in enumerate(st["state"]["counter"]))
    return 4 * ctr + int(st["buffer_pos"]) - 4


class TestPoissonIsArrivalCount:
    @pytest.mark.parametrize("mean", [0.5, 7.5, 1e4])
    def test_scalar_is_arrival_count(self, mean):
        a, b = RngState(31, 2), RngState(31, 2)
        assert a.poisson(mean) == b.arrivals(0.0, mean).size
        assert a.uniform01() == b.uniform01()

    def test_scalar_uses_count_plus_one_words(self):
        rng = RngState(32)
        count = rng.poisson(1e6)
        assert _words_used(rng) == count + 1

    def test_empty_draws_use_no_words(self):
        rng = RngState(42)
        assert rng.poisson(0.0) == 0
        assert rng.poisson(0.0, size=3).tolist() == [0, 0, 0]
        assert rng.poisson(5.0, size=0).size == 0
        assert _words_used(rng) == 0

    def test_batch_memory_does_not_grow_with_the_path(self):
        # 10^7 arrival times held at once would take 80 MB
        tracemalloc.start()
        try:
            RngState(33).poisson(100.0, size=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSize:
    DRAWS = {
        "uniform01": lambda rng, size: rng.uniform01(size=size),
        "exponential": lambda rng, size: rng.exponential(1.0, size=size),
        "erlang": lambda rng, size: rng.erlang(2, 1.0, size=size),
        "poisson": lambda rng, size: rng.poisson(5.0, size=size),
    }

    @pytest.mark.parametrize("method", sorted(DRAWS))
    @pytest.mark.parametrize("bad", [2.5, 2.0, -1, True, "3"])
    def test_invalid_size(self, method, bad):
        with pytest.raises(InvalidParameter):
            self.DRAWS[method](RngState(0), bad)

    @pytest.mark.parametrize("method", sorted(DRAWS))
    def test_numpy_integer_size(self, method):
        got = self.DRAWS[method](RngState(0), np.int64(3))
        want = self.DRAWS[method](RngState(0), 3)
        assert np.array_equal(got, want)


class TestConstruction:
    def test_seed_validation(self):
        for bad in (-1, 2**64, 1.5, "7", True):
            with pytest.raises(InvalidParameter):
                RngState(bad)
        with pytest.raises(InvalidParameter):
            RngState(1, stream=-2)

    def test_repr(self):
        assert "seed=42" in repr(RngState(42, 3))
