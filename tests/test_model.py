import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfdm import (
    AlphaProfile,
    Discretization,
    MarketParams,
    OptionContract,
    OptionKind,
    PricingResult,
    ValidationError,
    build_grid,
    payoff,
)
from mcfdm import model
from mcfdm.mean_convection import ThetaConfig, _theta_values
from mcfdm.model import OSCILLATION_TOLERANCE, Method, _boundaries, _march, _operator

CALL = OptionKind.CALL
PUT = OptionKind.PUT


def make_contract(kind=CALL, strike=5.5, maturity=1.0, spot=5.0):
    return OptionContract(kind=kind, strike=strike, maturity=maturity, spot=spot)


class TestMarketParams:
    def test_defaults_to_constant_profile(self):
        m = MarketParams(r=0.05, sigma=0.25)
        assert m.alpha_profile is AlphaProfile.CONSTANT

    def test_proportional_profile(self):
        m = MarketParams(r=0.05, sigma=0.25, alpha_profile=AlphaProfile.PROPORTIONAL)
        assert m.alpha_profile is AlphaProfile.PROPORTIONAL

    def test_zero_rate_allowed(self):
        assert MarketParams(r=0.0, sigma=0.1).r == 0.0

    @pytest.mark.parametrize("r,sigma", [(-0.01, 0.25), (0.05, 0.0), (0.05, -1.0), (math.nan, 0.25)])
    def test_invalid_parameters_rejected(self, r, sigma):
        with pytest.raises(ValidationError):
            MarketParams(r=r, sigma=sigma)


class TestOptionContract:
    @pytest.mark.parametrize("field,value", [("strike", 0.0), ("maturity", -1.0), ("spot", math.inf)])
    def test_invalid_fields_rejected(self, field, value):
        kwargs = dict(kind=CALL, strike=5.5, maturity=1.0, spot=5.0)
        kwargs[field] = value
        with pytest.raises(ValidationError):
            OptionContract(**kwargs)

    def test_kind_must_be_enum(self):
        with pytest.raises(ValidationError):
            OptionContract(kind="call", strike=5.5, maturity=1.0, spot=5.0)


class TestPayoff:
    def test_call_in_the_money(self):
        assert payoff(make_contract(CALL), 6.0) == 0.5

    def test_put_out_of_the_money(self):
        assert payoff(make_contract(PUT), 6.0) == 0.0

    def test_at_the_money_is_zero(self):
        assert payoff(make_contract(CALL), 5.5) == 0.0

    def test_vectorized_matches_scalar(self):
        contract = make_contract(PUT)
        s = np.array([0.0, 3.0, 5.5, 9.0])
        np.testing.assert_array_equal(
            payoff(contract, s), [payoff(contract, x) for x in s]
        )

    def test_negative_price_rejected(self):
        with pytest.raises(ValidationError):
            payoff(make_contract(), -1.0)

    @given(
        s=st.floats(0.0, 100.0),
        strike=st.floats(0.01, 50.0),
    )
    def test_nonnegative_and_parity_identity(self, s, strike):
        call = OptionContract(kind=CALL, strike=strike, maturity=1.0, spot=1.0)
        put = OptionContract(kind=PUT, strike=strike, maturity=1.0, spot=1.0)
        c, p = payoff(call, s), payoff(put, s)
        assert c >= 0.0 and p >= 0.0
        # max(s-K,0) - max(K-s,0) == s - K holds exactly for floats
        assert c - p == s - strike


class TestBoundaryValue:
    """Dirichlet boundary vectors, one entry per level tau = dt, ..., T."""

    def test_put_lower_at_expiry_is_strike(self):
        contract = OptionContract(kind=PUT, strike=5.0, maturity=1e-15, spot=5.0)
        market = MarketParams(r=0.05, sigma=0.25)
        lower, _ = _boundaries(contract, market, build_grid(contract, n_time=1))
        assert lower[0] == pytest.approx(5.0, abs=1e-12)

    def test_call_upper_discounts_strike(self):
        # 20 - 5.5*exp(-0.05), independently evaluated
        contract = make_contract(CALL)
        market = MarketParams(r=0.05, sigma=0.25)
        disc = build_grid(contract, n_space=100, n_time=4, s_max=20.0)
        _, upper = _boundaries(contract, market, disc)
        assert upper.shape == (4,)
        assert upper[-1] == pytest.approx(14.768238165246073, abs=1e-12)
        expected = 20.0 - 5.5 * np.exp(-0.05 * np.array([0.25, 0.5, 0.75, 1.0]))
        np.testing.assert_allclose(upper, expected, atol=1e-12)

    def test_call_lower_is_zero_for_any_tau(self):
        contract = make_contract(CALL)
        market = MarketParams(r=0.05, sigma=0.25)
        lower, _ = _boundaries(contract, market, build_grid(contract, n_time=10))
        np.testing.assert_array_equal(lower, np.zeros(10))

    def test_put_upper_is_zero(self):
        contract = make_contract(PUT, maturity=0.5)
        market = MarketParams(r=0.1, sigma=0.25)
        disc = build_grid(contract, n_time=10, s_max=20.0)
        _, upper = _boundaries(contract, market, disc)
        np.testing.assert_array_equal(upper, np.zeros(10))

    @given(
        kind=st.sampled_from([CALL, PUT]),
        strike=st.floats(0.5, 20.0),
        r=st.floats(0.0, 0.2),
    )
    def test_tau_zero_matches_payoff_at_edges(self, kind, strike, r):
        contract = OptionContract(kind=kind, strike=strike, maturity=1e-15, spot=strike)
        market = MarketParams(r=r, sigma=0.25)
        disc = build_grid(contract, n_time=1, s_max=4.0 * strike)
        lower, upper = _boundaries(contract, market, disc)
        assert lower[0] == pytest.approx(payoff(contract, 0.0), abs=1e-12)
        assert upper[0] == pytest.approx(
            payoff(contract, disc.s_max), abs=1e-9 * disc.s_max
        )


def reference_march(level, bands, boundaries, dt, time_weight, *, keep_surface):
    """The march one level at a time, each step in a new array and scanned
    on its own: the loop the ring march replaced, kept as its reference."""
    from scipy.linalg.lapack import dgttrf, dgttrs

    lower, center, upper = bands
    bc_lower, bc_upper = boundaries
    explicit_dt = (1.0 - time_weight) * dt
    e_lower = explicit_dt * lower
    e_center = 1.0 + explicit_dt * center
    e_upper = explicit_dt * upper
    implicit = time_weight > 0.0
    if implicit:
        implicit_dt = time_weight * dt
        i_lower = implicit_dt * lower
        i_upper = implicit_dt * upper
        *factors, _ = dgttrf(-i_lower[1:], 1.0 - implicit_dt * center, -i_upper[:-1])
    v = level
    levels = np.empty((bc_lower.size + 1, v.size)) if keep_surface else None
    if keep_surface:
        levels[0] = v
    oscillation = False
    for n in range(bc_lower.size):
        interior = e_lower * v[:-2] + e_center * v[1:-1] + e_upper * v[2:]
        if implicit:
            interior[0] += i_lower[0] * bc_lower[n]
            interior[-1] += i_upper[-1] * bc_upper[n]
            interior, _ = dgttrs(*factors, interior)
        else:
            neighborhood = np.maximum(np.maximum(v[:-2], v[1:-1]), v[2:])
            if float((interior - neighborhood).max()) > OSCILLATION_TOLERANCE:
                oscillation = True
        out = np.empty_like(v)
        out[0], out[-1] = bc_lower[n], bc_upper[n]
        out[1:-1] = interior
        v = out
        if keep_surface:
            levels[n + 1] = v
    return v, levels, oscillation


def march_inputs(n_steps, kind=PUT, strike=7.5, spot=7.0, n_space=100, k=1.0):
    """Payoff, bands and boundaries of a contract marched ``n_steps`` steps
    of 1e-3 years each (stable at 100 nodes for k = 1)."""
    contract = OptionContract(kind=kind, strike=strike, maturity=n_steps / 1000, spot=spot)
    market = MarketParams(r=0.05, sigma=0.25)
    disc = build_grid(contract, n_space=n_space, n_time=n_steps)
    s = disc.nodes()
    thetas = _theta_values(market, s[1:-1], disc.ds, ThetaConfig(scaling=k))
    bands = _operator(market, s[1:-1], thetas, disc.ds)
    return payoff(contract, s), bands, _boundaries(contract, market, disc), disc.dt


def assert_marches_agree(*args, time_weight, keep_surface):
    ring = _march(*args, time_weight, keep_surface=keep_surface)
    reference = reference_march(*args, time_weight, keep_surface=keep_surface)
    assert np.array_equal(ring[0], reference[0], equal_nan=True)
    if keep_surface:
        assert np.array_equal(ring[1], reference[1], equal_nan=True)
    else:
        assert ring[1] is None
    assert ring[2] is reference[2]
    return ring


class TestMarch:
    """The ring march gives the bits and the flag of a level-by-level march."""

    @pytest.mark.parametrize("keep_surface", [False, True])
    @pytest.mark.parametrize("time_weight", [0.0, 0.5])
    @pytest.mark.parametrize(
        "n_steps",
        [
            1,
            model._MARCH_ROWS - 1,
            model._MARCH_ROWS,
            model._MARCH_ROWS + 1,
            2 * model._MARCH_ROWS + 1,
            1000,
        ],
    )
    def test_ring_equals_the_reference_loop(self, n_steps, time_weight, keep_surface):
        level, bands, boundaries, dt = march_inputs(n_steps)
        before = level.copy()
        assert_marches_agree(
            level, bands, boundaries, dt,
            time_weight=time_weight, keep_surface=keep_surface,
        )
        np.testing.assert_array_equal(level, before)

    def test_march_that_turns_to_nan_inside_a_block(self):
        # k = 30 at 400 nodes is far past the stability bound: the march
        # overflows, then turns to NaN at a step that is not a block's first
        # or last
        args = march_inputs(1000, kind=CALL, strike=5.5, spot=5.0, n_space=400, k=30.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert_marches_agree(*args, time_weight=0.0, keep_surface=False)
            final, levels, oscillation = assert_marches_agree(
                *args, time_weight=0.0, keep_surface=True
            )
        first_nan = int(np.flatnonzero(np.isnan(levels).any(axis=1))[0])
        assert 0 < (first_nan - 1) % model._MARCH_ROWS < model._MARCH_ROWS - 1
        assert np.isnan(final).any()
        assert oscillation

    def test_nan_step_voids_only_itself(self):
        # the interior grows by 1e-6 per step, so every step exceeds its
        # neighborhood, but from the third step on each level holds the NaN
        # that the second step's boundary brings in; only the first two
        # steps count, and the flag is still set
        n = 11
        bands = (np.zeros(n - 2), np.full(n - 2, 1e-3), np.zeros(n - 2))
        bc_lower = np.ones(model._MARCH_ROWS)
        bc_lower[1] = np.nan
        boundaries = (bc_lower, np.ones(model._MARCH_ROWS))
        with np.errstate(invalid="ignore"):
            final, _, oscillation = assert_marches_agree(
                np.ones(n), bands, boundaries, 1e-3, time_weight=0.0, keep_surface=False
            )
        assert np.isnan(final).any()
        assert oscillation

    def test_nan_bands_of_a_nan_bound_void_every_step(self):
        # at r = 0 a literal theta that overflows to inf makes dt_max NaN and
        # the convection band 0 * inf = NaN, so the first step is all NaN
        contract = OptionContract(kind=CALL, strike=5.5, maturity=1.0, spot=5.0)
        market = MarketParams(r=0.0, sigma=0.25)
        disc = build_grid(contract, n_space=2000, n_time=10)
        s = disc.nodes()
        config = ThetaConfig(scaling=1e308, normalize=False)
        with np.errstate(over="ignore", invalid="ignore"):
            thetas = _theta_values(market, s[1:-1], disc.ds, config)
            bands = _operator(market, s[1:-1], thetas, disc.ds)
            final, _, oscillation = assert_marches_agree(
                payoff(contract, s), bands, _boundaries(contract, market, disc),
                disc.dt, time_weight=0.0, keep_surface=True,
            )
        assert np.isnan(final[1:-1]).all()
        assert not oscillation

    @pytest.mark.parametrize("rising", ["lower", "upper"])
    def test_rising_boundary_sets_no_flag(self, rising):
        # each level's boundary value rises by 1 per step (as a call's upper
        # boundary does) while the interior stays at 0; only the flat scan's
        # entries that straddle two levels see that rise
        n, n_steps = 11, 2 * model._MARCH_ROWS + 1
        bands = (np.zeros(n - 2), np.zeros(n - 2), np.zeros(n - 2))
        rise = np.arange(1.0, n_steps + 1)
        boundaries = (rise, np.zeros(n_steps))
        if rising == "upper":
            boundaries = boundaries[::-1]
        _, _, oscillation = assert_marches_agree(
            np.zeros(n), bands, boundaries, 1e-3, time_weight=0.0, keep_surface=False
        )
        assert not oscillation

    @pytest.mark.parametrize("node", [0, -1])
    def test_excess_at_one_edge_node_sets_the_flag(self, node):
        # only the first (or last) interior node grows, by 1e-6 per step
        n, n_steps = 11, model._MARCH_ROWS + 1
        center = np.zeros(n - 2)
        center[node] = 1e-3
        bands = (np.zeros(n - 2), center, np.zeros(n - 2))
        boundaries = (np.ones(n_steps), np.ones(n_steps))
        final, _, oscillation = assert_marches_agree(
            np.ones(n), bands, boundaries, 1e-3, time_weight=0.0, keep_surface=False
        )
        grown = np.flatnonzero(final > 1.0)
        assert grown.tolist() == [np.arange(n)[1:-1][node]]
        assert oscillation

    def test_implicit_step_solves_into_the_row_it_is_given(self):
        # the march relies on dgttrs writing its solution over a contiguous
        # float64 row in place; a scipy that copies it would leave the ring
        # holding the right-hand side instead of the solution
        from scipy.linalg.lapack import dgttrf, dgttrs

        *factors, info = dgttrf(np.full(4, -1.0), np.full(5, 4.0), np.full(4, -1.0))
        ring = np.ones((2, 7))
        inner = ring[1, 1:-1]
        x, info = dgttrs(*factors, inner, overwrite_b=True)
        assert info == 0
        assert x is inner
        matrix = 4.0 * np.eye(5) - np.eye(5, k=1) - np.eye(5, k=-1)
        np.testing.assert_allclose(matrix @ ring[1, 1:-1], np.ones(5), rtol=1e-14)
        assert ring[1, 0] == ring[1, -1] == 1.0

    def test_rounding_on_a_plateau_sets_the_flag(self):
        # all weights are >= 0 at r = 0, yet a constant level of 1e9 comes
        # back a rounding error above itself, which exceeds the tolerance
        n_steps = 1000
        contract = OptionContract(kind=PUT, strike=7.5, maturity=1.0, spot=7.0)
        market = MarketParams(r=0.0, sigma=0.25)
        disc = build_grid(contract, n_space=100, n_time=n_steps)
        s = disc.nodes()
        bands = _operator(market, s[1:-1], np.ones(disc.n_space - 1), disc.ds)
        lower, center, upper = bands
        assert min(lower.min(), (1.0 + disc.dt * center).min(), upper.min()) >= 0.0
        plateau = np.full(n_steps, 1e9)
        _, _, oscillation = assert_marches_agree(
            np.full(s.size, 1e9), bands, (plateau, plateau), disc.dt,
            time_weight=0.0, keep_surface=False,
        )
        assert oscillation


class TestBuildGrid:
    def test_auto_places_spot_on_node(self):
        disc = build_grid(make_contract(), n_space=100, n_time=1000)
        node = round(5.0 / disc.ds)
        assert abs(5.0 / disc.ds - node) < 1e-12
        assert disc.ds * disc.n_space == pytest.approx(disc.s_max, abs=1e-12)
        # target 4*5.5=22 nudged so that node 23 sits exactly at the spot
        assert disc.ds == pytest.approx(5.0 / 23, abs=1e-15)

    def test_explicit_s_max(self):
        contract = OptionContract(kind=CALL, strike=7.5, maturity=1.0, spot=7.0)
        disc = build_grid(contract, n_space=100, n_time=1000, s_max=30.0)
        assert disc.ds == pytest.approx(0.3, abs=1e-15)

    def test_explicit_s_max_below_strike_rejected(self):
        with pytest.raises(ValidationError):
            build_grid(make_contract(), n_space=100, n_time=1000, s_max=5.0)

    @pytest.mark.parametrize("kwargs", [
        {"n_time": True},
        {"n_space": True},
        {"n_time": 0},
        {"n_space": 3},
        {"n_time": 10.0},
    ])
    def test_counts_that_are_no_int_rejected(self, kwargs):
        with pytest.raises(ValidationError, match="must be an int >= "):
            build_grid(make_contract(), **kwargs)

    def test_dt_is_maturity_over_n_time(self):
        disc = build_grid(make_contract(maturity=0.5), n_space=50, n_time=200)
        assert disc.dt == pytest.approx(0.0025, abs=1e-15)

    @given(
        spot=st.floats(0.5, 50.0),
        strike=st.floats(0.5, 50.0),
        n_space=st.integers(4, 400),
    )
    @settings(max_examples=200)
    def test_auto_grid_invariants(self, spot, strike, n_space):
        contract = OptionContract(kind=CALL, strike=strike, maturity=1.0, spot=spot)
        disc = build_grid(contract, n_space=n_space, n_time=10)
        assert disc.s_max > max(spot, strike)
        assert abs(disc.ds * disc.n_space - disc.s_max) <= 1e-9 * max(1.0, disc.s_max)
        node = round(spot / disc.ds)
        if 0 < node < n_space:
            assert abs(spot / disc.ds - node) < 1e-9


class TestDiscretization:
    def test_inconsistent_ds_rejected(self):
        with pytest.raises(ValidationError):
            Discretization(s_max=10.0, n_space=10, n_time=5, ds=0.9, dt=0.1)

    def test_n_space_minimum(self):
        with pytest.raises(ValidationError):
            Discretization(s_max=3.0, n_space=3, n_time=5, ds=1.0, dt=0.1)

    @pytest.mark.parametrize("n_time", [True, False, 1.0])
    def test_n_time_that_is_no_int_rejected(self, n_time):
        with pytest.raises(ValidationError, match="n_time must be an int >= 1"):
            Discretization(s_max=10.0, n_space=10, n_time=n_time, ds=1.0, dt=0.1)

    def test_nodes_are_uniform(self):
        disc = Discretization(s_max=10.0, n_space=10, n_time=5, ds=1.0, dt=0.1)
        np.testing.assert_allclose(disc.nodes(), np.arange(11.0), atol=1e-15)


class TestPricingResult:
    def test_negative_error_rejected(self):
        with pytest.raises(ValidationError):
            PricingResult(method=Method.EXACT, price=1.0, abs_error=-1e-9, elapsed_seconds=0.0)

    def test_extra_defaults_to_empty(self):
        result = PricingResult(method=Method.MCFDM, price=1.0, abs_error=0.0, elapsed_seconds=0.1)
        assert result.extra == {}
