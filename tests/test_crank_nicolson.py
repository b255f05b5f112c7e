import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from draws import examples

# loaded with the module, so that no Hypothesis example pays the march's
# lazy import of LAPACK (about 280 ms) inside its 200 ms deadline
import scipy.linalg.lapack  # noqa: F401

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
from mcfdm.model import _boundaries, _march, _operator

CALL = OptionKind.CALL
PUT = OptionKind.PUT

# fixed truncation putting the spot on-node for n_space in {50, 100, 200}
SHARED_S_MAX = 350.0 / 12.0


def market():
    return MarketParams(r=0.05, sigma=0.25)


def contract(kind=CALL, strike=7.5, maturity=1.0, spot=7.0):
    return OptionContract(kind=kind, strike=strike, maturity=maturity, spot=spot)


def implicit_step(level, bands, dt, boundaries=(0.0, 0.0)):
    """One Crank-Nicolson step (``implicit=True``) of the shared march."""
    out, _, _ = _march(
        np.asarray(level, dtype=float),
        tuple(np.asarray(band, dtype=float) for band in bands),
        (np.array([boundaries[0]]), np.array([boundaries[1]])),
        dt,
        implicit=True,
        keep_surface=False,
    )
    return out


def round_trip_cases(n):
    """Lower, bulk and upper bands of n random entries in [-1, 1], and a
    level of n + 2."""
    floats = st.floats(-1.0, 1.0)
    band = st.lists(floats, min_size=n, max_size=n)
    return st.tuples(band, band, band, st.lists(floats, min_size=n + 2, max_size=n + 2))


def trapezoidal_residual(old, new, bands, dt):
    """Interior residual of (I - dt/2 L) new = (I + dt/2 L) old."""
    lower, center, upper = bands

    def apply(v):
        return lower * v[:-2] + center * v[1:-1] + upper * v[2:]

    return (new[1:-1] - 0.5 * dt * apply(new)) - (old[1:-1] + 0.5 * dt * apply(old))


def two_band_trapezoid(level, bands, boundaries, dt):
    """The last level of the classical Crank-Nicolson march: each step
    applies B = I + dt/2 L to the level, adds the new level's boundary
    terms and solves with A = I - dt/2 L."""
    from scipy.linalg.lapack import dgttrf, dgttrs

    lower, center, upper = (0.5 * dt * band for band in bands)
    *factors, _ = dgttrf(-lower[1:], 1.0 - center, -upper[:-1])
    diagonal = 1.0 + center
    v = level.copy()
    for new_lower, new_upper in zip(*boundaries):
        interior = lower * v[:-2] + diagonal * v[1:-1] + upper * v[2:]
        interior[0] += lower[0] * new_lower
        interior[-1] += upper[-1] * new_upper
        v[1:-1], _ = dgttrs(*factors, interior)
        v[0], v[-1] = new_lower, new_upper
    return v


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

    def test_symmetrizable_but_indefinite_matrix_is_still_solved(self):
        # I - L = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]] is symmetric but not
        # positive definite, so dpttrf refuses it and dgttrf factors it
        ones = np.ones(3)
        old = np.array([0.5, 1.0, -2.0, 3.0, 0.25])
        bands = (-ones, 3.0 * ones, -ones)
        new = implicit_step(old, bands, dt=2.0, boundaries=(1.0, -1.0))
        residual = np.abs(trapezoidal_residual(old, new, bands, 2.0)).max()
        assert residual <= 1e-12

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
    @given(case=st.integers(3, 30).flatmap(round_trip_cases))
    # the subnormal quotient 5e-324 / 0.1875 of a band pair lost 6 % to
    # rounding, and the symmetric solve left a residual of 8.6e-6
    @example(
        case=(
            [0.0, 1.0, 5e-324, 1.0, 1.0, 1.0, 1.0, 1.0],
            [0.0] * 8,
            [1.0, 0.1875, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
            [0.0] * 8 + [1.0, 0.0],
        )
    )
    @settings(max_examples=examples(60))
    def test_multiply_round_trip(self, case):
        lower, bulk, upper, old = map(np.array, case)
        bands = (lower, -3.0 - bulk, upper)
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
        assert c.maturity / disc.n_time >= 100.0 * explicit_bound
        values = crank_nicolson_surface(c, market(), disc)
        cap = disc.s_max - 7.5 * math.exp(-0.05)
        assert np.isfinite(values).all()
        assert values.min() >= -1e-12
        assert values.max() <= cap + 1e-9

    def test_march_memory_peak_is_bounded(self):
        # the 400-node rung of a convergence ladder: its surface would take
        # 34 MB, while the march keeps a ring of 33 levels and one block's
        # boundary terms (a 0.32 MB peak; the explicit step's scratch row
        # and scan buffer, which the march does not allocate at w = 1/2,
        # would add 0.1 MB)
        c, m = contract(kind=PUT), MarketParams(r=0.1, sigma=0.25)
        disc = build_grid(c, n_space=400, n_time=10543, s_max=28.0)
        solve_crank_nicolson(c, m, disc)
        tracemalloc.start()
        try:
            solve_crank_nicolson(c, m, disc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < 0.4

    @pytest.mark.parametrize("grid", [(50, 400), (100, 1000), (400, 10543)])
    def test_march_stays_at_the_two_band_trapezoid(self, grid):
        # the march's one-solve step A^-1 (2u + beta) - u, on the symmetrized
        # system wherever r / sigma^2 < 2, is the two-band step
        # A^-1 (B u + beta) up to rounding; sigma = 0.05 with r > 0 takes the
        # general solve, and r / sigma^2 = 1.92 and 1.984 sit just inside the
        # symmetric range; the largest gaps measured over this sweep are
        # 3.0e-12 of a level's maximum and 5.2e-13 of a price, and each bound
        # is ten times that or more
        n_space, n_time = grid
        markets = [
            *itertools.product([0.0, 0.05, 0.1], [0.05, 0.25, 0.6]),
            (0.12, 0.25),
            (0.124, 0.25),
        ]
        level_gap = price_gap = 0.0
        for kind, (r, sigma), (spot, strike) in itertools.product(
            [CALL, PUT], markets, [(7.0, 7.5), (5.0, 5.5)]
        ):
            c = contract(kind=kind, strike=strike, spot=spot)
            m = MarketParams(r=r, sigma=sigma)
            disc = build_grid(c, n_space=n_space, n_time=n_time)
            s = disc.nodes()
            args = (
                payoff(c, s),
                _operator(m, s[1:-1], 1.0, disc.ds),
                _boundaries(c, m, disc),
                c.maturity / disc.n_time,
            )
            final, _, _ = _march(*args, implicit=True, keep_surface=False)
            reference = two_band_trapezoid(*args)
            gap = np.abs(final - reference).max()
            level_gap = max(level_gap, gap / np.abs(reference).max())
            price_gap = max(
                price_gap, abs(np.interp(spot, s, final) - np.interp(spot, s, reference))
            )
        assert level_gap <= 3e-11
        assert price_gap <= 1e-11

    def test_surface_shape_and_terminal_level(self):
        c = contract(kind=PUT)
        disc = build_grid(c, n_space=60, n_time=40)
        surface = crank_nicolson_surface(c, market(), disc)
        assert surface.shape == (41, 61)
        np.testing.assert_allclose(surface[0], payoff(c, disc.nodes()), atol=1e-15)
        assert surface.min() >= -1e-12

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
            old, new = surface[step - 1], surface[step]
            lhs = (new[1:-1] - old[1:-1]) / (c.maturity / disc.n_time)
            rhs = 0.5 * (spatial_operator(new) + spatial_operator(old))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_price_matches_surface_final_level(self):
        c = contract()
        disc = build_grid(c, n_space=80, n_time=50)
        result = solve_crank_nicolson(c, m := market(), disc)
        surface = crank_nicolson_surface(c, m, disc)
        interpolated = float(np.interp(c.spot, disc.nodes(), surface[disc.n_time]))
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
    @settings(max_examples=examples(40), deadline=None)
    def test_agrees_with_unit_theta_mcfdm(self, kind, spot, strike, maturity, r):
        # both are the shared march on the central stencil; they differ only
        # in the time step, so their gap is the time discretization error
        c = contract(kind=kind, strike=strike, maturity=maturity, spot=spot)
        m = MarketParams(r=r, sigma=0.25)
        disc = build_grid(c)
        explicit = solve_mcfdm(c, m, disc).result.price
        trapezoidal = solve_crank_nicolson(c, m, disc).price
        assert abs(explicit - trapezoidal) <= 1e-3
