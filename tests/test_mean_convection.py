import hashlib
import itertools
import json
import math
import random
import tracemalloc

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
    StabilityError,
    ThetaConfig,
    ValidationError,
    black_scholes_price,
    build_grid,
    max_stable_dt,
    payoff,
    solve_mcfdm,
)
from mcfdm.mean_convection import _theta_values
from mcfdm.model import _boundaries, _march, _operator

CALL = OptionKind.CALL
PUT = OptionKind.PUT

# stability bound for sigma=0.25, r=0.05, n_space=100, normalized k=1;
# equals ds^2 / (sigma^2 s^2 + r s ds + r ds^2) at the last interior node,
# which reduces to 1/(sigma^2 (N-1)^2 + r (N-1) + r) on a uniform grid
DT_MAX_DEFAULT_GRID = 0.001619269304726242


PROPORTIONAL = AlphaProfile.PROPORTIONAL

# SHA-256 of every MCFDM case's price, extra, flag and surface; written
# before the input checks moved into one helper, and held since. Any change
# to a bit of any case moves it.
MCFDM_MATRIX_DIGEST = "75327107aa47e7754476a72408fcb6aad5e369779cbe340ddc7fd5055ab2c504"
# kind, (spot, strike), r, sigma, scaling, (n_space, n_time), alpha profile:
# 240 of the 960 combinations, drawn once with a fixed seed
MCFDM_MATRIX = random.Random(0).sample(list(itertools.product(
    tuple(OptionKind),
    ((7.0, 7.5), (100.0, 90.0)),
    (0.0, 0.05, 0.1),
    (0.05, 0.25),
    (0.0, 0.5, 1.0, 2.0, 30.0),
    ((50, 400), (100, 1000)),
    tuple(AlphaProfile),
)), 240)


def market(r=0.05, sigma=0.25):
    return MarketParams(r=r, sigma=sigma)


def contract(kind=CALL, strike=5.5, maturity=1.0, spot=5.0):
    return OptionContract(kind=kind, strike=strike, maturity=maturity, spot=spot)


class TestThetaConfig:
    def test_defaults(self):
        config = ThetaConfig()
        assert config.scaling == 1.0
        assert config.normalize is True

    def test_defaults_to_constant_profile(self):
        assert ThetaConfig().alpha_profile is AlphaProfile.CONSTANT

    def test_proportional_profile(self):
        config = ThetaConfig(alpha_profile=PROPORTIONAL)
        assert config.alpha_profile is PROPORTIONAL

    def test_unknown_profile_is_rejected(self):
        with pytest.raises(ValidationError, match="unknown alpha profile: 'proportional'"):
            ThetaConfig(alpha_profile="proportional")

    def test_zero_scaling_is_allowed(self):
        assert ThetaConfig(scaling=0.0).scaling == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"scaling": -0.5},
        {"scaling": math.nan},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ThetaConfig(**kwargs)


class TestThetaAt:
    """The tuning factor at cell centers, from ``_theta_values``."""

    def test_constant_profile_literal_value(self):
        # constant integrand makes the cell integral exact: theta = alpha/(2 ds)
        config = ThetaConfig(normalize=False)
        value = _theta_values(market(), np.array([5.0]), 0.1, config)[0]
        assert value == pytest.approx(0.25 / 0.2, abs=1e-12)

    def test_constant_profile_normalized_is_one(self):
        for s, ds in ((5.0, 0.1), (1.0, 0.25), (14.0, 0.5)):
            value = _theta_values(market(), np.array([s]), ds, ThetaConfig())[0]
            assert value == pytest.approx(1.0, abs=1e-15)

    def test_constant_profile_normalized_is_exactly_k_at_low_vol(self):
        # 1/0.1 is inexact in binary, so summing samples of 1/alpha would
        # leave theta 1 ulp off k; the exact cell integral must not
        m = market(sigma=0.1)
        disc = build_grid(contract(PUT, strike=7.5, spot=7.0), 50, 1000)
        s = disc.nodes()[1:-1]
        for k in (0.5, 1.0, 2.0):
            values = _theta_values(m, s, disc.ds, ThetaConfig(scaling=k))
            assert values.shape == s.shape
            assert np.all(values == k)

    def test_proportional_profile_matches_log_antiderivative(self):
        # integral of 1/(sigma S) over the cell is ln((s+ds/2)/(s-ds/2))/sigma;
        # s = 0.06 is the bottom cell, where 1/S varies most across it
        m = market()
        config = ThetaConfig(normalize=False, alpha_profile=PROPORTIONAL)
        for s, ds in ((5.0, 0.1), (0.06, 0.1)):
            expected = 0.25 / (2.0 * math.log((s + 0.5 * ds) / (s - 0.5 * ds)))
            value = _theta_values(m, np.array([s]), ds, config)[0]
            assert value == pytest.approx(expected, rel=1e-12)
        value = _theta_values(m, np.array([5.0]), 0.1, config)[0]
        assert value == pytest.approx(6.24979, abs=1e-5)

    def test_proportional_normalized_near_one(self):
        config = ThetaConfig(alpha_profile=PROPORTIONAL)
        value = _theta_values(market(), np.array([5.0]), 0.1, config)[0]
        assert value == pytest.approx(1.0, abs=1e-3)

    @given(
        k=st.floats(0.0, 50.0),
        s=st.floats(0.5, 20.0),
        ds=st.floats(0.01, 0.4),
        normalize=st.booleans(),
    )
    def test_scaling_linearity_exact(self, k, s, ds, normalize):
        m = market()
        nodes = np.array([s])
        base = _theta_values(m, nodes, ds, ThetaConfig(1.0, normalize, PROPORTIONAL))
        scaled = _theta_values(m, nodes, ds, ThetaConfig(k, normalize, PROPORTIONAL))
        assert scaled[0] == k * base[0]


class TestConvectionFluxDifference:
    """The fitted convection term inside the operator bands.

    On the value triple (v-, v, v+) the bands give
    d (v+ - 2v + v-) + c theta (v+ - v-) - r v, so the convection flux
    difference is the antisymmetric part (upper - lower) / 2 of the bands.
    """

    s = np.arange(1.0, 10.0)

    def bands(self, theta):
        return _operator(market(), self.s, np.full(9, theta), 1.0)

    def test_constant_field_is_zero(self):
        # a constant field sees only the reaction term, whatever theta is
        for theta in (0.0, 1.0, 2.5):
            lower, center, upper = self.bands(theta)
            np.testing.assert_allclose(lower + center + upper, -0.05, atol=1e-12)

    def test_linear_field(self):
        # v = S: no curvature, and the central flux difference is r S theta,
        # which cancels the reaction -r S at theta = 1
        lower, center, upper = self.bands(1.0)
        v = np.arange(11.0)
        applied = lower * v[:-2] + center * v[1:-1] + upper * v[2:]
        np.testing.assert_allclose(applied, 0.0, atol=1e-12)

    def test_linear_in_theta(self):
        lower, _, upper = self.bands(1.0)
        lower_k, _, upper_k = self.bands(2.5)
        np.testing.assert_allclose(upper_k - lower_k, 2.5 * (upper - lower), rtol=1e-14)
        np.testing.assert_allclose(upper - lower, 0.05 * self.s, rtol=1e-14)


class TestExplicitStep:
    """One explicit step (``implicit=False``) of the march both engines share."""

    def toy_disc(self, n_time=100):
        return Discretization(s_max=10.0, n_space=10, n_time=n_time, ds=1.0)

    def step(self, level, dt=0.01):
        s = np.arange(11.0)
        thetas = _theta_values(market(), s[1:-1], 1.0, ThetaConfig())
        bands = _operator(market(), s[1:-1], thetas, 1.0)
        boundaries = (np.array([level[0]]), np.array([level[-1]]))
        out, _, _ = _march(level, bands, boundaries, dt, implicit=False, keep_surface=False)
        return out

    def test_hand_computed_stencil(self):
        # v=(0, 0.5, 1.5) at S=(4,5,6), sigma=0.25, r=0.05, ds=1, dt=0.01,
        # normalized theta=1:
        #   diffusion 0.5*0.0625*25*(1.5-1.0+0.0) = 0.390625
        #   convection 0.05*5*(1.5-0)/2          = 0.1875
        #   reaction  -0.05*0.5                  = -0.025
        #   update 0.5 + 0.01*0.553125           = 0.50553125
        level = np.zeros(11)
        level[4], level[5], level[6] = 0.0, 0.5, 1.5
        out = self.step(level)
        assert out[5] == pytest.approx(0.50553125, abs=1e-15)

    def test_tiny_step_leaves_interior_unchanged(self):
        level = payoff(contract(), np.arange(11.0))
        out = self.step(level, dt=1e-300)
        np.testing.assert_allclose(out[1:-1], level[1:-1], atol=1e-12)

    def test_boundaries_overwritten_at_new_tau(self):
        # level n of the production surface carries the Dirichlet values at
        # tau = n*dt
        tau = 0.37
        disc = self.toy_disc(n_time=37)
        c = contract(maturity=tau)
        report = solve_mcfdm(c, market(), disc, keep_surface=True)
        for n in (1, 37):
            out = report.surface[n]
            assert out[0] == 0.0
            assert out[-1] == pytest.approx(
                10.0 - 5.5 * math.exp(-0.05 * n * 0.01), abs=1e-12
            )

    @given(
        a=st.floats(-2.0, 2.0),
        b=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=50)
    def test_linear_field_consistency(self, a, b):
        # a linear field has zero second difference, so the stencil reduces
        # to dt*(r*S*a - r*(a*S+b)) at every interior node
        s = np.arange(11.0)
        level = a * s + b
        out = self.step(level)
        expected = level[1:-1] + 0.01 * (
            0.05 * s[1:-1] * a - 0.05 * (a * s[1:-1] + b)
        )
        np.testing.assert_allclose(out[1:-1], expected, atol=1e-12)


class TestMaxStableDt:
    def test_direct_formula_at_worst_node(self):
        contract_ = contract()
        disc = build_grid(contract_, n_space=100, n_time=1000, s_max=22.0)
        worst_s = 22.0 - 0.22
        expected = 0.22**2 / (
            0.0625 * worst_s**2 + 0.05 * worst_s * 0.22 + 0.05 * 0.22**2
        )
        value = max_stable_dt(market(), disc, ThetaConfig())
        assert value == pytest.approx(expected, abs=1e-18)
        assert value == pytest.approx(DT_MAX_DEFAULT_GRID, abs=1e-15)

    def test_bound_is_ds_independent_on_uniform_grids(self):
        # with S_i = i*ds the denominator scales as ds^2, so the bound
        # depends only on n_space and the market
        for c in (contract(), contract(strike=7.5, spot=7.0)):
            disc = build_grid(c, n_space=100, n_time=1000)
            assert max_stable_dt(market(), disc, ThetaConfig()) == pytest.approx(
                DT_MAX_DEFAULT_GRID, abs=1e-15
            )

    def test_vanishing_market_unconstrains_the_bound(self):
        disc = build_grid(contract(), n_space=100, n_time=1000)
        value = max_stable_dt(market(r=0.0, sigma=1e-8), disc, ThetaConfig())
        assert value > 1e10

    def test_underflowing_diffusion_at_zero_rate_unconstrains_the_bound(self):
        disc = build_grid(contract(), n_space=100, n_time=1000)
        assert max_stable_dt(market(r=0.0, sigma=1e-200), disc, ThetaConfig()) == math.inf

    @pytest.mark.parametrize("n_space", [100, 2000])
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("r", [0.0, 0.05, 10.0])
    @pytest.mark.parametrize("scaling", [1.0, 1e308])
    def test_bound_is_never_nan(self, scaling, r, normalize, n_space):
        # no np.errstate here: the bound maps overflow and NaN itself, and
        # a RuntimeWarning fails the test
        disc = build_grid(contract(), n_space=n_space, n_time=10)
        value = max_stable_dt(market(r=r), disc, ThetaConfig(scaling, normalize))
        assert 0.0 <= value <= math.inf

    def test_doubling_n_space_quarters_the_bound(self):
        coarse = max_stable_dt(
            market(), build_grid(contract(), n_space=100, n_time=1), ThetaConfig()
        )
        fine = max_stable_dt(
            market(), build_grid(contract(), n_space=200, n_time=1), ThetaConfig()
        )
        assert coarse / fine == pytest.approx(4.0, rel=0.05)


class TestSolveMcfdm:
    def test_benchmark_call_within_loosened_tolerance(self):
        c = contract(strike=7.5, spot=7.0)
        report = solve_mcfdm(c, market(), build_grid(c))
        assert report.result.price == pytest.approx(0.63791, abs=5e-3)
        assert report.result.abs_error <= 5e-3
        assert report.result.extra["cfl_margin"] > 1.0
        assert not report.result.extra["oscillation"]

    def test_put_half_year_vs_oracle(self):
        c = contract(kind=PUT, strike=7.5, maturity=0.5, spot=7.0)
        report = solve_mcfdm(c, market(), build_grid(c))
        assert report.result.abs_error <= 5e-3

    def test_degenerate_maturity_returns_payoff(self):
        c = contract(kind=PUT, maturity=1e-12)
        report = solve_mcfdm(c, market(), build_grid(c, n_time=1))
        assert report.result.price == pytest.approx(0.5, abs=1e-9)

    def test_stability_rejection_names_the_bound(self):
        c = contract(strike=7.5, spot=7.0)
        with pytest.raises(StabilityError) as excinfo:
            solve_mcfdm(c, market(), build_grid(c, n_time=300))
        assert excinfo.value.dt_max == pytest.approx(DT_MAX_DEFAULT_GRID, abs=1e-15)
        assert "1.619269e-03" in str(excinfo.value)
        assert str(excinfo.value.n_time_min) in str(excinfo.value)

    @pytest.mark.parametrize("r", [0.05, 10.0])
    def test_bound_that_underflows_is_a_stability_rejection(self, r):
        # k = 1e308 puts dt_max at ~2e-309 (r = 0.05) or at 0.0 (r = 10),
        # so T / dt_max is no finite step count; at r = 10 the bound's
        # denominator overflows on the way
        with np.errstate(over="ignore"), pytest.raises(StabilityError) as excinfo:
            solve_mcfdm(contract(), market(r=r), build_grid(contract()), ThetaConfig(1e308))
        assert excinfo.value.dt_max < 1e-300
        assert excinfo.value.n_time_min is None
        assert "no time grid meets the bound" in str(excinfo.value)

    def test_nan_bound_is_a_stability_rejection(self):
        # at r = 0 a literal theta that overflows to inf makes the bound's
        # convection term 0 * inf = NaN, which the bound maps to 0.0: no
        # step is stable
        job = contract(), market(r=0.0), build_grid(contract(), n_space=2000, n_time=10)
        config = ThetaConfig(1e308, normalize=False)
        assert max_stable_dt(job[1], job[2], config) == 0.0
        with pytest.raises(StabilityError) as excinfo:
            solve_mcfdm(*job, config)
        assert excinfo.value.dt_max == 0.0
        assert excinfo.value.n_time_min is None
        assert "no time grid meets the bound" in str(excinfo.value)

    @pytest.mark.parametrize("r, sigma, maturity, n_space, n_time_min", [
        # T / dt_max rounds to a whole count whose step is just past dt_max
        (0.0, 0.4, 2.0, 126, 5001),
        (0.05, 0.25, 3.0, 215, 8620),
        # T / dt_max rounds just above a count whose step is dt_max
        (0.0, 0.25, 1.0, 57, 196),
    ])
    def test_remedy_is_the_smallest_admitted_n_time(self, r, sigma, maturity, n_space, n_time_min):
        put = contract(kind=PUT, strike=7.5, spot=7.0, maturity=maturity)
        m = market(r, sigma)
        with pytest.raises(StabilityError) as excinfo:
            solve_mcfdm(put, m, build_grid(put, n_space=n_space, n_time=n_time_min - 1))
        assert excinfo.value.n_time_min == n_time_min
        report = solve_mcfdm(put, m, build_grid(put, n_space=n_space, n_time=n_time_min))
        assert report.result.extra["cfl_margin"] >= 1.0

    @given(
        kind=st.sampled_from([CALL, PUT]),
        r=st.floats(0.0, 0.2),
        sigma=st.floats(0.2, 0.6),
        maturity=st.floats(0.1, 3.0),
        n_space=st.integers(20, 60),
    )
    @settings(max_examples=100, deadline=None)
    def test_gate_admits_the_remedy_and_refuses_one_step_fewer(
        self, kind, r, sigma, maturity, n_space
    ):
        # dt_max < 0.07 here, so one step of T >= 0.1 is always refused
        c, m = contract(kind=kind, strike=7.5, spot=7.0, maturity=maturity), market(r, sigma)
        with pytest.raises(StabilityError) as excinfo:
            solve_mcfdm(c, m, build_grid(c, n_space=n_space, n_time=1))
        n_time_min = excinfo.value.n_time_min
        solve_mcfdm(c, m, build_grid(c, n_space=n_space, n_time=n_time_min))
        with pytest.raises(StabilityError):
            solve_mcfdm(c, m, build_grid(c, n_space=n_space, n_time=n_time_min - 1))

    def test_allow_unstable_override_runs(self):
        c = contract(strike=7.5, spot=7.0)
        report = solve_mcfdm(
            c, market(), build_grid(c, n_time=300), allow_unstable=True
        )
        assert report.result.extra["cfl_margin"] < 1.0

    def test_march_memory_peak_is_bounded(self):
        # the 400-node rung of a convergence ladder: its surface would take
        # 34 MB, while the march keeps a 106 kB ring of 33 levels
        c = contract(kind=PUT, strike=7.5, spot=7.0)
        m = market(r=0.1)
        solve_mcfdm(c, m, build_grid(c, n_space=400, n_time=10543, s_max=28.0))
        tracemalloc.start()
        try:
            solve_mcfdm(c, m, build_grid(c, n_space=400, n_time=10543, s_max=28.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < 1.0

    def test_halving_both_steps_does_not_increase_error(self):
        c = contract(strike=7.5, spot=7.0)
        coarse = solve_mcfdm(c, market(), build_grid(c, n_space=100, n_time=1000))
        fine = solve_mcfdm(c, market(), build_grid(c, n_space=200, n_time=4000))
        assert fine.result.abs_error <= coarse.result.abs_error

    def test_parity_at_default_grids(self):
        call = contract(kind=CALL, strike=7.5, spot=7.0)
        put = contract(kind=PUT, strike=7.5, spot=7.0)
        c = solve_mcfdm(call, market(), build_grid(call)).result.price
        p = solve_mcfdm(put, market(), build_grid(put)).result.price
        gap = 7.0 - 7.5 * math.exp(-0.05)
        assert abs(c - p - gap) <= 5e-3

    def test_zero_scaling_equals_hard_disabled_convection(self):
        # the march on bands built with no convection term at all
        c = contract(kind=PUT)
        disc = build_grid(c)
        scaled = solve_mcfdm(
            c, market(), disc, ThetaConfig(scaling=0.0), keep_surface=True
        )
        s = disc.nodes()
        bands = _operator(market(), s[1:-1], np.zeros(disc.n_space - 1), disc.ds)
        final, disabled, _ = _march(
            payoff(c, s),
            bands,
            _boundaries(c, market(), disc),
            c.maturity / disc.n_time,
            implicit=False,
            keep_surface=True,
        )
        assert np.abs(scaled.surface - disabled).max() <= 1e-14
        assert scaled.result.price == float(np.interp(c.spot, s, final))

    def test_surface_is_nonnegative_and_shaped(self):
        c = contract(strike=7.5, spot=7.0)
        disc = build_grid(c)
        report = solve_mcfdm(c, market(), disc, keep_surface=True)
        assert report.surface.shape == (disc.n_time + 1, disc.n_space + 1)
        assert report.surface.min() >= 0.0
        np.testing.assert_allclose(report.surface[0], payoff(c, disc.nodes()), atol=1e-15)

    def test_theta_values_cover_interior(self):
        # one tuning factor per interior node, 1 for a constant profile
        c = contract()
        disc = build_grid(c)
        thetas = _theta_values(market(), disc.nodes()[1:-1], disc.ds, ThetaConfig())
        assert thetas.shape == (disc.n_space - 1,)
        np.testing.assert_allclose(thetas, 1.0, atol=1e-12)

    def test_proportional_profile_prices_close_to_constant(self):
        c = contract(strike=7.5, spot=7.0)
        base = solve_mcfdm(c, market(), build_grid(c)).result.price
        prop = solve_mcfdm(
            c, market(), build_grid(c), ThetaConfig(alpha_profile=PROPORTIONAL)
        ).result.price
        # normalized proportional theta deviates from 1 by O(ds^2/s^2)
        assert prop == pytest.approx(base, abs=1e-3)

    def test_oscillation_flag_fires_on_pinned_large_scaling(self):
        # regression pin: k=30 on the default put grid oscillates
        c = contract(kind=PUT)
        report = solve_mcfdm(c, market(), build_grid(c), ThetaConfig(scaling=30.0))
        assert report.result.extra["oscillation"]

    @pytest.mark.parametrize("profile", list(AlphaProfile))
    @pytest.mark.parametrize("config", [
        ThetaConfig(),
        ThetaConfig(scaling=0.0),
        ThetaConfig(scaling=2.0, normalize=False),
    ])
    def test_cfl_margin_is_the_stable_step_over_dt(self, profile, config):
        # one stability computation: the solver's margin is max_stable_dt / dt
        c = contract(kind=PUT, strike=7.5, spot=7.0)
        m = market()
        config = ThetaConfig(config.scaling, config.normalize, profile)
        disc = build_grid(c)
        report = solve_mcfdm(c, m, disc, config, allow_unstable=True)
        dt = c.maturity / disc.n_time
        assert report.result.extra["cfl_margin"] == max_stable_dt(m, disc, config) / dt

    def test_cfl_margin_at_two_maturities_sharing_one_grid(self):
        m, config = market(), ThetaConfig()
        disc = build_grid(contract(kind=PUT, strike=7.5, spot=7.0))
        margins = []
        for maturity in (0.5, 1.0):
            c = contract(kind=PUT, strike=7.5, spot=7.0, maturity=maturity)
            margins.append(solve_mcfdm(c, m, disc, config).result.extra["cfl_margin"])
            assert margins[-1] == max_stable_dt(m, disc, config) / (maturity / disc.n_time)
        assert margins[0] == 2.0 * margins[1]

    def test_pinned_very_large_scaling_violates_stability(self):
        # regression pin: k=80 pushes the CFL bound below the default dt
        c = contract(kind=PUT)
        with pytest.raises(StabilityError):
            solve_mcfdm(c, market(), build_grid(c), ThetaConfig(scaling=80.0))


class TestBitIdentity:
    def test_mcfdm_matrix_digest_holds(self):
        # a refactor or a perf change of the explicit march must keep every
        # bit of every case, unstable and oscillating ones included
        digest = hashlib.sha256()
        flagged = 0
        for kind, (spot, strike), r, sigma, k, (n_space, n_time), profile in MCFDM_MATRIX:
            c = contract(kind=kind, strike=strike, spot=spot)
            report = solve_mcfdm(
                c, market(r, sigma), build_grid(c, n_space, n_time),
                ThetaConfig(scaling=k, alpha_profile=profile),
                allow_unstable=True, keep_surface=True,
            )
            extra = report.result.extra
            flagged += extra["oscillation"]
            digest.update(repr(report.result.price).encode())
            digest.update(json.dumps(extra, sort_keys=True).encode())
            digest.update(report.surface.tobytes())
        # the matrix covers both sides of the oscillation flag
        assert 0 < flagged < len(MCFDM_MATRIX)
        assert digest.hexdigest() == MCFDM_MATRIX_DIGEST
