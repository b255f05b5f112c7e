import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from draws import examples

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


def overflowing_payoff(contract, s):
    """A payoff of inf - inf = NaN: each terminal price times 1e308 overflows."""
    big = np.asarray(s) * 1e308
    return big - big


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
        for n_steps, shape in [(True, (1, 2)), (0, (0, 2)), (1.0, (1, 2))]:
            with pytest.raises(ValidationError, match="n_steps must be an int >= 1"):
                sample_terminal_price(market(), 1.0, 1.0, n_steps, np.zeros(shape))

    @pytest.mark.parametrize(
        ("mk", "s0", "message"),
        [
            (MarketParams(r=1000.0, sigma=0.25), 5.0, "r\\*T"),
            (market(), 1e200, "spot must be in"),
        ],
        ids=["rate", "spot"],
    )
    def test_inputs_outside_the_priced_domain_rejected(self, mk, s0, message):
        # r = 1000 overflowed the step growth into inf with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                sample_terminal_price(mk, s0, 1.0, 1, np.zeros((1, 3)))

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
        for workers in (1, 2, None):
            result = price_monte_carlo(c, mk, config, n_workers=workers)
            assert result.price == discount * mean
            assert result.extra["se"] == se

    # None is the default count: at most two threads for LONG_MARCH's two
    # blocks, whatever the host
    @pytest.mark.parametrize(
        ("workers", "bound_mb"), [(1, 0.6), (2, 1.0), (None, 1.0)]
    )
    def test_long_march_memory_peak_is_bounded(self, workers, bound_mb):
        # a whole 4096 x 1000 block of draws is 31 MB per array; streamed
        # blocks keep one 256 kB chunk of draws live per worker
        warm = McConfig(n_paths=2 * monte_carlo._BLOCK, seed=1, n_time_steps=2)
        price_monte_carlo(contract(), market(), warm, n_workers=workers)
        tracemalloc.start()
        try:
            price_monte_carlo(contract(), market(), LONG_MARCH, n_workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < bound_mb

    def test_top_uniform_draw_prices_finite(self, monkeypatch):
        # every draw is the top one, k = 2^53 - 1, under either uniform
        # rule: (k + 0.5) / 2^53 rounds to 1.0, whose normal is inf
        top = 2**53 - 1

        class TopDraws:
            def __init__(self, bit_generator):
                pass

            def integers(self, low, high, size, dtype):
                return np.full(size, top, dtype=dtype)

            def random(self, out):
                out[...] = top * 2.0**-53
                return out

        monkeypatch.setattr(np.random, "Generator", TopDraws)
        config = McConfig(n_paths=2, seed=1, n_time_steps=1)
        result = price_monte_carlo(contract(), market(), config)
        assert math.isfinite(result.price) and result.price > 0.0

    def test_worker_count_never_changes_bits(self):
        serial = price_monte_carlo(contract(), market(), n_workers=1)
        pooled = price_monte_carlo(contract(), market(), n_workers=4)
        assert pooled.price == serial.price
        assert pooled.extra["se"] == serial.extra["se"]

    def test_default_count_gives_the_serial_bits_on_a_long_march(self):
        serial = price_monte_carlo(contract(), market(), LONG_MARCH, n_workers=1)
        chosen = price_monte_carlo(contract(), market(), LONG_MARCH)
        assert chosen.price == serial.price
        assert chosen.extra["se"] == serial.extra["se"]

    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize(
        ("n_paths", "n_steps", "pooled"),
        [
            # a 1-step run and a one-block run stay serial on any host
            pytest.param(8192, 1, False, id="one-step"),
            pytest.param(monte_carlo._BLOCK, monte_carlo._CHUNK_ROWS, False, id="one-block"),
            # a pool pays once each block marches a full chunk of steps: a
            # thread per block from there, up to the usable CPUs
            pytest.param(8192, monte_carlo._CHUNK_ROWS - 1, False, id="under-a-chunk"),
            pytest.param(8192, monte_carlo._CHUNK_ROWS, True, id="one-chunk"),
        ],
    )
    def test_default_count_follows_the_steps_blocks_and_cpus(
        self, monkeypatch, cpus, n_paths, n_steps, pooled
    ):
        marchers = []
        live = []

        def recorded(*args, _real=monte_carlo._block_stats):
            marchers.append(threading.current_thread())
            live.append(threading.active_count())
            return _real(*args)

        monkeypatch.setattr(monte_carlo, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(monte_carlo, "_block_stats", recorded)
        config = McConfig(n_paths=n_paths, seed=3, n_time_steps=n_steps)
        before = threading.active_count()
        result = price_monte_carlo(contract(), market(), config)
        ran = min(2, cpus) if pooled else 1
        assert result.extra["n_workers"] == ran
        assert len(marchers) == len(range(0, n_paths, monte_carlo._BLOCK))
        # the caller marches on every count and starts one thread fewer
        # than the count, so a serial run starts none
        assert threading.current_thread() in marchers
        assert len(set(marchers)) == ran
        assert max(live) == before + ran - 1

    # with two threads the caller marches block 0 and the other block 1
    @pytest.mark.parametrize(
        ("failing", "on_caller"), [(0, True), (1, False)], ids=["caller", "pool-thread"]
    )
    def test_a_failing_block_raises_and_leaves_no_thread(
        self, monkeypatch, failing, on_caller
    ):
        raised_on = []
        real = monte_carlo._block_stats

        def failing_block(contract, market, config, block_index, *args):
            if block_index == failing:
                raised_on.append(threading.current_thread())
                raise ZeroDivisionError("block failed")
            return real(contract, market, config, block_index, *args)

        monkeypatch.setattr(monte_carlo, "_block_stats", failing_block)
        config = McConfig(n_paths=2 * monte_carlo._BLOCK, seed=2, n_time_steps=40)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="block failed"):
            price_monte_carlo(contract(), market(), config, n_workers=2)
        assert len(raised_on) == 1
        assert (raised_on[0] is threading.current_thread()) == on_caller
        assert threading.active_count() == before

    def test_recorded_count_is_capped_at_the_blocks(self):
        one_block = McConfig(n_paths=monte_carlo._BLOCK, seed=3, n_time_steps=1)
        result = price_monte_carlo(contract(), market(), one_block, n_workers=4)
        assert result.extra["n_workers"] == 1
        three_blocks = McConfig(n_paths=3 * monte_carlo._BLOCK, seed=3)
        result = price_monte_carlo(contract(), market(), three_blocks, n_workers=4)
        assert result.extra["n_workers"] == 3

    def test_pooled_blocks_run_under_the_callers_error_state(self, monkeypatch):
        # the priced domain keeps every path finite, so a stubbed payoff
        # overflows into inf, and inf - inf gives NaN; a started thread does not
        # inherit the caller's np.errstate
        monkeypatch.setattr(monte_carlo, "payoff", overflowing_payoff)
        config = McConfig(n_paths=8192, seed=5, n_time_steps=64)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(over="ignore", invalid="ignore"):
                result = price_monte_carlo(contract(), market(), config, n_workers=2)
        assert [str(w.message) for w in caught] == []
        assert math.isnan(result.price)

    # five blocks, the last of one path, which marches in a prefix of its
    # thread's buffer: on the caller's thread with two threads, on the fifth
    # thread with five; 9 steps leave a one-row last chunk
    @example(n_paths=4 * monte_carlo._BLOCK + 1, seed=8, workers=2, n_steps=9)
    @example(n_paths=4 * monte_carlo._BLOCK + 1, seed=8, workers=5, n_steps=9)
    @given(
        n_paths=st.integers(1, 10_000),
        seed=st.integers(0, 2**64 - 1),
        workers=st.integers(2, 5),
        n_steps=st.integers(1, 9),
    )
    @settings(max_examples=examples(25), deadline=None)
    def test_worker_equality_holds_for_any_seed(self, n_paths, seed, workers, n_steps):
        config = McConfig(n_paths=n_paths, seed=seed, n_time_steps=n_steps)
        serial = price_monte_carlo(contract(), market(), config, n_workers=1)
        # threads switch every microsecond, so a block whose statistics were
        # lost or written to another block's slot would change the sums
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = price_monte_carlo(contract(), market(), config, n_workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert pooled.price == serial.price
        assert pooled.extra["se"] == serial.extra["se"]

    def test_single_path_has_no_standard_error(self):
        result = price_monte_carlo(contract(), market(), McConfig(n_paths=1))
        assert result.extra["se"] is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_standard_error_of_huge_payoffs_scales_with_the_contract(self, workers):
        # at the domain's largest spot and strike the squares of the payoffs,
        # near 1e198, stay finite, and the se is the unit contract's times 1e99
        config = McConfig(n_paths=10_000, seed=9)
        unit = price_monte_carlo(contract(), market(), config, n_workers=workers)
        huge = price_monte_carlo(
            contract(strike=7.5e99, spot=7e99), market(), config, n_workers=workers
        )
        assert huge.extra["se"] == pytest.approx(1e99 * unit.extra["se"], rel=1e-12)

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
        for workers in (0, True, 2.0, "2"):
            with pytest.raises(ValidationError, match="n_workers must be an int >= 1"):
                price_monte_carlo(contract(), market(), n_workers=workers)

    def test_none_worker_count_is_accepted(self):
        result = price_monte_carlo(contract(), market(), n_workers=None)
        assert result.price == SEED42_PRICE
        assert result.extra["n_workers"] == 1

    def test_estimate_brackets_the_closed_form_across_seeds(self):
        hits = 0
        for seed in range(20):
            result = price_monte_carlo(
                contract(), market(), McConfig(n_paths=50_000, seed=seed)
            )
            if abs(result.price - 0.63791) <= 3.0 * result.extra["se"]:
                hits += 1
        assert hits >= 19
