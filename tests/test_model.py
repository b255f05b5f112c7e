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
from mcfdm.model import Method, _boundaries

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
