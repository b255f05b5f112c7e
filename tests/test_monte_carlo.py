import math

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

# regression pins for the default benchmark draw (100k paths, Philox seed 42)
SEED42_PRICE = 0.6377697990357741
SEED42_SE = 0.0036257047505021045


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
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValidationError):
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


class TestPriceMonteCarlo:
    def test_benchmark_seed_is_pinned(self):
        result = price_monte_carlo(contract(), market())
        assert result.price == SEED42_PRICE
        assert result.extra["se"] == SEED42_SE
        assert result.extra["paths"] == 100_000
        assert result.extra["seed"] == 42

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

    def test_estimate_brackets_the_closed_form_across_seeds(self):
        hits = 0
        for seed in range(20):
            result = price_monte_carlo(
                contract(), market(), McConfig(n_paths=50_000, seed=seed)
            )
            if abs(result.price - 0.63791) <= 3.0 * result.extra["se"]:
                hits += 1
        assert hits >= 19
