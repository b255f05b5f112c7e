import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfdm import (
    MarketParams,
    OptionContract,
    OptionKind,
    SingularSystemError,
    ThetaConfig,
    black_scholes_price,
    build_grid,
    crank_nicolson_surface,
    max_stable_dt,
    payoff,
    solve_crank_nicolson,
    solve_mcfdm,
)
from mcfdm.model import _march

CALL = OptionKind.CALL
PUT = OptionKind.PUT

# fixed truncation putting the spot on-node for n_space in {50, 100, 200}
SHARED_S_MAX = 350.0 / 12.0


def market():
    return MarketParams(r=0.05, sigma=0.25)


def contract(kind=CALL, strike=7.5, maturity=1.0, spot=7.0):
    return OptionContract(kind=kind, strike=strike, maturity=maturity, spot=spot)


def implicit_step(level, bands, dt, boundaries=(0.0, 0.0)):
    """One Crank-Nicolson step (time weight 1/2) of the shared march."""
    out, _, _ = _march(
        np.asarray(level, dtype=float),
        tuple(np.asarray(band, dtype=float) for band in bands),
        (np.array([boundaries[0]]), np.array([boundaries[1]])),
        dt,
        0.5,
        keep_surface=False,
    )
    return out


def trapezoidal_residual(old, new, bands, dt):
    """Interior residual of (I - dt/2 L) new = (I + dt/2 L) old."""
    lower, center, upper = bands

    def apply(v):
        return lower * v[:-2] + center * v[1:-1] + upper * v[2:]

    return (new[1:-1] - 0.5 * dt * apply(new)) - (old[1:-1] + 0.5 * dt * apply(old))


class TestThomasSolve:
    """The tridiagonal solve of the march's implicit half.

    With dt = 2 the implicit matrix is I - L, so bands of L spell out the
    matrix that LAPACK factors.
    """

    def test_identity_returns_rhs(self):
        level = np.array([0.0, 3.0, -1.0, 2.5, 0.0, 0.0])
        zero = np.zeros(4)
        out = implicit_step(level, (zero, zero, zero), dt=0.1)
        np.testing.assert_allclose(out, level, atol=1e-15)

    def test_hand_eliminated_three_by_three(self):
        # bands (1, -1, 1) give I - L = [[2,-1,0],[-1,2,-1],[0,-1,2]] and, from
        # the level (0,0,1,0,0), the right-hand side (I + L) v = (1, 0, 1)
        ones = np.ones(3)
        out = implicit_step([0.0, 0.0, 1.0, 0.0, 0.0], (ones, -ones, ones), dt=2.0)
        np.testing.assert_allclose(out, [0.0, 1.0, 1.0, 1.0, 0.0], atol=1e-12)

    def test_random_diagonally_dominant_residual(self):
        rng = np.random.default_rng(7)
        n = 50
        bands = (
            rng.uniform(-1.0, 1.0, n),
            -3.0 - rng.uniform(0.0, 1.0, n),
            rng.uniform(-1.0, 1.0, n),
        )
        old = rng.uniform(-5.0, 5.0, n + 2)
        new = implicit_step(old, bands, dt=2.0, boundaries=(1.5, -0.5))
        assert (new[0], new[-1]) == (1.5, -0.5)
        residual = np.abs(trapezoidal_residual(old, new, bands, 2.0)).max()
        assert residual <= 1e-10 * (1.0 + np.abs(old).max())

    def test_singular_pivot_raises(self):
        # I - L = [[0, 0, 0], [1, 1, 0], [0, 0, 1]]: the first column is zero
        bands = ([0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(SingularSystemError):
            implicit_step(np.zeros(5), bands, dt=2.0)

    def test_elimination_created_zero_pivot_raises(self):
        # I - L = [[2, 2, 0], [2, 2, 0], [0, 0, 1]]: the second pivot becomes
        # 2 - 2*2/2 = 0
        bands = ([0.0, -2.0, 0.0], [-1.0, -1.0, 0.0], [-2.0, 0.0, 0.0])
        with pytest.raises(SingularSystemError):
            implicit_step(np.zeros(5), bands, dt=2.0)

    def test_all_zero_matrix_raises(self):
        zero, one = np.zeros(3), np.ones(3)
        with pytest.raises(SingularSystemError):
            implicit_step(np.zeros(5), (zero, one, zero), dt=2.0)

    # the march always has at least three interior nodes (n_space >= 4)
    @given(data=st.data(), n=st.integers(3, 30))
    @settings(max_examples=60)
    def test_multiply_round_trip(self, data, n):
        floats = st.floats(-1.0, 1.0)
        lower, bulk, upper = (
            np.array(data.draw(st.lists(floats, min_size=n, max_size=n)))
            for _ in range(3)
        )
        bands = (lower, -3.0 - bulk, upper)
        old = np.array(data.draw(st.lists(floats, min_size=n + 2, max_size=n + 2)))
        new = implicit_step(old, bands, dt=2.0, boundaries=(0.25, -0.75))
        np.testing.assert_allclose(
            trapezoidal_residual(old, new, bands, 2.0), 0.0, atol=1e-9
        )


class TestSolveCrankNicolson:
    def test_benchmark_call(self):
        c = contract()
        result = solve_crank_nicolson(c, market(), build_grid(c))
        assert result.price == pytest.approx(0.63791, abs=1e-2)
        assert result.abs_error <= 1e-2

    def test_degenerate_maturity_returns_payoff(self):
        c = contract(kind=PUT, maturity=1e-12)
        result = solve_crank_nicolson(c, market(), build_grid(c, n_time=1))
        assert result.price == pytest.approx(0.5, abs=1e-9)

    def test_put_call_parity(self):
        call_price = solve_crank_nicolson(contract(CALL), market(), build_grid(contract(CALL))).price
        put_price = solve_crank_nicolson(contract(PUT), market(), build_grid(contract(PUT))).price
        gap = 7.0 - 7.5 * math.exp(-0.05)
        assert abs(call_price - put_price - gap) <= 1e-2

    def test_second_order_spatial_convergence(self):
        errors = []
        for n_space in (50, 100, 200):
            c = contract()
            disc = build_grid(c, n_space=n_space, n_time=2000, s_max=SHARED_S_MAX)
            errors.append(solve_crank_nicolson(c, market(), disc).abs_error)
        assert errors[0] / errors[1] >= 3.0
        assert errors[1] / errors[2] >= 3.0

    def test_stable_far_past_the_explicit_bound(self):
        c = contract()
        disc = build_grid(c, n_time=6)
        explicit_bound = max_stable_dt(market(), disc, ThetaConfig())
        assert disc.dt >= 100.0 * explicit_bound
        surface = crank_nicolson_surface(c, market(), disc)
        values = surface.values
        cap = disc.s_max - 7.5 * math.exp(-0.05)
        assert np.isfinite(values).all()
        assert values.min() >= -1e-12
        assert values.max() <= cap + 1e-9

    def test_surface_shape_and_terminal_level(self):
        c = contract(kind=PUT)
        disc = build_grid(c, n_space=60, n_time=40)
        surface = crank_nicolson_surface(c, market(), disc)
        assert surface.values.shape == (41, 61)
        np.testing.assert_allclose(
            surface.values[0], payoff(c, disc.nodes()), atol=1e-15
        )
        assert surface.values.min() >= -1e-12

    def test_one_step_satisfies_the_trapezoidal_equation(self):
        # (v_new - v_old)/dt must equal the average of the spatial operator
        # applied to both levels, with boundary values read off the levels
        c = contract(kind=PUT, strike=5.5, spot=5.0)
        m = market()
        disc = build_grid(c, n_space=12, n_time=5)
        surface = crank_nicolson_surface(c, m, disc)
        s = disc.nodes()

        def spatial_operator(level):
            d = 0.5 * m.sigma**2 * s[1:-1] ** 2 / disc.ds**2
            cv = m.r * s[1:-1] / (2.0 * disc.ds)
            return (
                d * (level[2:] - 2.0 * level[1:-1] + level[:-2])
                + cv * (level[2:] - level[:-2])
                - m.r * level[1:-1]
            )

        for step in (1, 3, 5):
            old, new = surface.values[step - 1], surface.values[step]
            lhs = (new[1:-1] - old[1:-1]) / disc.dt
            rhs = 0.5 * (spatial_operator(new) + spatial_operator(old))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_price_matches_surface_final_level(self):
        c = contract()
        disc = build_grid(c, n_space=80, n_time=50)
        result = solve_crank_nicolson(c, m := market(), disc)
        surface = crank_nicolson_surface(c, m, disc)
        interpolated = float(np.interp(c.spot, disc.nodes(), surface.values[disc.n_time]))
        assert result.price == pytest.approx(interpolated, abs=1e-14)

    def test_elapsed_and_error_fields(self):
        c = contract()
        result = solve_crank_nicolson(c, market(), build_grid(c, n_space=20, n_time=10))
        assert result.elapsed_seconds >= 0.0
        exact = black_scholes_price(c, market())
        assert result.abs_error == pytest.approx(abs(result.price - exact), abs=1e-15)
        # the oscillation scan is the explicit step's check only
        assert "oscillation" not in result.extra

    @given(
        kind=st.sampled_from([CALL, PUT]),
        spot=st.floats(5.0, 8.0),
        strike=st.floats(5.0, 8.0),
        maturity=st.floats(0.25, 1.0),
        r=st.floats(0.0, 0.1),
    )
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_unit_theta_mcfdm(self, kind, spot, strike, maturity, r):
        # both are the shared march on the central stencil; they differ only
        # in the time weight, so their gap is the time discretization error
        c = contract(kind=kind, strike=strike, maturity=maturity, spot=spot)
        m = MarketParams(r=r, sigma=0.25)
        disc = build_grid(c)
        explicit = solve_mcfdm(c, m, disc).result.price
        trapezoidal = solve_crank_nicolson(c, m, disc).price
        assert abs(explicit - trapezoidal) <= 1e-3
