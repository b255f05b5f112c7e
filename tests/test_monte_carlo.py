import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfdm import (
    MarketParams,
    McConfig,
    OptionContract,
    OptionKind,
    ValidationError,
    price_monte_carlo,
    sample_terminal_price,
)
from mcfdm import monte_carlo
from mcfdm.model import payoff

# regression pins for the default benchmark draw (100k paths, Philox seed 42)
SEED42_PRICE = 0.6377697990357741
SEED42_SE = 0.0036257047505021045
# and for a long march (8192 paths x 1000 steps, seed 123), read before the
# march was streamed through row chunks
SEED123_1000_STEPS_PRICE = 0.6379490662531269
SEED123_1000_STEPS_SE = 0.012825352541827173
LONG_MARCH = McConfig(n_paths=8192, seed=123, n_time_steps=1000)


def market():
    return MarketParams(r=0.05, sigma=0.25)


def contract(kind=OptionKind.CALL, strike=7.5, spot=7.0, maturity=1.0):
    return OptionContract(kind=kind, strike=strike, maturity=maturity, spot=spot)


class TestMcConfig:
    def test_defaults(self):
        config = McConfig()
        assert config.n_paths == 100_000
        assert config.seed == 42
        assert config.n_time_steps == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_paths": 0},
            {"n_paths": 2.5},
            {"seed": -1},
            {"seed": 2**64},
            {"n_time_steps": 0},
            {"n_paths": True},
            {"seed": False},
            {"n_time_steps": True},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValidationError, match="must be an int"):
            McConfig(**kwargs)


class TestSampleTerminalPrice:
    def test_zero_draws_give_pure_drift(self):
        normals = np.zeros((1, 5))
        out = sample_terminal_price(market(), 7.0, 1.0, 1, normals)
        expected = 7.0 * math.exp((0.05 - 0.5 * 0.25**2) * 1.0)
        np.testing.assert_allclose(out, np.full(5, expected), rtol=1e-15)

    def test_vanishing_volatility_grows_at_the_risk_free_rate(self):
        normals = np.random.default_rng(0).standard_normal((1, 64))
        out = sample_terminal_price(
            MarketParams(r=0.05, sigma=1e-8), 7.0, 2.0, 1, normals
        )
        np.testing.assert_allclose(out, 7.0 * math.exp(0.1), atol=1e-6)

    def test_step_count_is_immaterial_for_matched_increments(self):
        rng = np.random.default_rng(11)
        z_total = rng.standard_normal(256)
        single = sample_terminal_price(market(), 7.0, 1.0, 1, z_total[None, :])
        split = np.tile(z_total / math.sqrt(10.0), (10, 1))
        many = sample_terminal_price(market(), 7.0, 1.0, 10, split)
        np.testing.assert_allclose(many, single, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            sample_terminal_price(market(), 7.0, 1.0, 2, np.zeros((1, 5)))

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValidationError):
            sample_terminal_price(market(), -1.0, 1.0, 1, np.zeros((1, 2)))
        with pytest.raises(ValidationError):
            sample_terminal_price(market(), 1.0, 0.0, 1, np.zeros((1, 2)))
        for s0, t_total in [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]:
            with pytest.raises(ValidationError, match="finite"):
                sample_terminal_price(market(), s0, t_total, 1, np.zeros((1, 2)))

    def test_normals_are_left_unchanged(self):
        normals = np.random.default_rng(4).standard_normal((40, 16))
        before = normals.copy()
        sample_terminal_price(market(), 7.0, 1.0, 40, normals)
        np.testing.assert_array_equal(normals, before)


class TestPriceMonteCarlo:
    def test_benchmark_seed_is_pinned(self):
        result = price_monte_carlo(contract(), market())
        assert result.price == SEED42_PRICE
        assert result.extra["se"] == SEED42_SE
        assert result.extra["paths"] == 100_000
        assert result.extra["seed"] == 42

    def test_long_march_is_pinned(self):
        result = price_monte_carlo(contract(), market(), LONG_MARCH)
        assert result.price == SEED123_1000_STEPS_PRICE
        assert result.extra["se"] == SEED123_1000_STEPS_SE

    @pytest.mark.parametrize(
        "n_steps",
        [
            1,
            monte_carlo._CHUNK_ROWS - 1,
            monte_carlo._CHUNK_ROWS,
            monte_carlo._CHUNK_ROWS + 1,
            1000,
        ],
    )
    def test_streamed_blocks_equal_the_whole_block_draw(self, n_steps):
        # the reference draws and transforms each block in one piece; 4097
        # paths leave a one-path last block
        from scipy.special import ndtri

        c, mk = contract(), market()
        config = McConfig(n_paths=4097, seed=9, n_time_steps=n_steps)
        total = total_sq = 0.0
        for b, start in enumerate(range(0, config.n_paths, monte_carlo._BLOCK)):
            m = min(monte_carlo._BLOCK, config.n_paths - start)
            gen = np.random.Generator(np.random.Philox(key=config.seed).jumped(b))
            raw = gen.integers(0, 1 << 53, size=(n_steps, m), dtype=np.uint64)
            z = ndtri((raw.astype(np.float64) + 0.5) / float(1 << 53))
            sample = payoff(c, sample_terminal_price(mk, c.spot, c.maturity, n_steps, z))
            total += float(sample.sum())
            total_sq += float((sample * sample).sum())
        n = config.n_paths
        mean = total / n
        discount = math.exp(-mk.r * c.maturity)
        se = discount * math.sqrt(max((total_sq - n * mean * mean) / (n - 1), 0.0) / n)
        for workers in (1, 2):
            result = price_monte_carlo(c, mk, config, n_workers=workers)
            assert result.price == discount * mean
            assert result.extra["se"] == se

    @pytest.mark.parametrize(("workers", "bound_mb"), [(1, 8.0), (2, 16.0)])
    def test_long_march_memory_peak_is_bounded(self, workers, bound_mb):
        # a whole 4096 x 1000 block of draws is 31 MB per array; streamed
        # blocks keep a few 1 MB chunks live per worker
        warm = McConfig(n_paths=2 * monte_carlo._BLOCK, seed=1, n_time_steps=2)
        price_monte_carlo(contract(), market(), warm, n_workers=workers)
        tracemalloc.start()
        try:
            price_monte_carlo(contract(), market(), LONG_MARCH, n_workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < bound_mb

    def test_worker_count_never_changes_bits(self):
        serial = price_monte_carlo(contract(), market(), n_workers=1)
        pooled = price_monte_carlo(contract(), market(), n_workers=4)
        assert pooled.price == serial.price
        assert pooled.extra["se"] == serial.extra["se"]

    @given(
        n_paths=st.integers(1, 10_000),
        seed=st.integers(0, 2**64 - 1),
        workers=st.integers(2, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_worker_equality_holds_for_any_seed(self, n_paths, seed, workers):
        config = McConfig(n_paths=n_paths, seed=seed)
        serial = price_monte_carlo(contract(), market(), config, n_workers=1)
        pooled = price_monte_carlo(contract(), market(), config, n_workers=workers)
        assert pooled.price == serial.price

    def test_single_path_has_no_standard_error(self):
        result = price_monte_carlo(contract(), market(), McConfig(n_paths=1))
        assert result.extra["se"] is None

    def test_discounted_mean_recovers_the_forward(self):
        # a strikeless call pays S_T, so the discounted estimate must sit on s0
        result = price_monte_carlo(
            contract(strike=1e-12), market(), McConfig(n_paths=200_000, seed=3)
        )
        assert abs(result.price - 7.0) <= 3.0 * result.extra["se"]

    def test_standard_error_shrinks_like_root_n(self):
        ratios = []
        for seed in range(10):
            coarse = price_monte_carlo(
                contract(), market(), McConfig(n_paths=25_000, seed=seed)
            )
            fine = price_monte_carlo(
                contract(), market(), McConfig(n_paths=100_000, seed=seed)
            )
            ratios.append(coarse.extra["se"] / fine.extra["se"])
        assert abs(np.mean(ratios) - 2.0) <= 0.4

    def test_multi_step_march_stays_consistent(self):
        # the exact log-Euler scheme has no time-discretization bias
        result = price_monte_carlo(
            contract(), market(), McConfig(n_paths=200_000, seed=5, n_time_steps=8)
        )
        assert abs(result.price - 0.63791) <= 3.0 * result.extra["se"]

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValidationError):
            price_monte_carlo(contract(), market(), n_workers=0)
        with pytest.raises(ValidationError, match="n_workers must be an int"):
            price_monte_carlo(contract(), market(), n_workers=True)

    def test_estimate_brackets_the_closed_form_across_seeds(self):
        hits = 0
        for seed in range(20):
            result = price_monte_carlo(
                contract(), market(), McConfig(n_paths=50_000, seed=seed)
            )
            if abs(result.price - 0.63791) <= 3.0 * result.extra["se"]:
                hits += 1
        assert hits >= 19
