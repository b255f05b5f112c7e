import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from draws import examples

from mcfdm import (
    Discretization,
    MarketParams,
    OptionContract,
    OptionKind,
    PricingResult,
    ValidationError,
    build_grid,
    crank_nicolson_surface,
    payoff,
    solve_crank_nicolson,
    solve_mcfdm,
)
from mcfdm import model
from mcfdm.mean_convection import ThetaConfig, _theta_values
from mcfdm.model import (
    OSCILLATION_TOLERANCE,
    Method,
    _boundaries,
    _march,
    _operator,
    _scan_can_fire,
)

CALL = OptionKind.CALL
PUT = OptionKind.PUT


def make_contract(kind=CALL, strike=5.5, maturity=1.0, spot=5.0):
    return OptionContract(kind=kind, strike=strike, maturity=maturity, spot=spot)


class TestMarketParams:
    def test_holds_only_rate_and_volatility(self):
        # the alpha profile is the convection tuning's, in ThetaConfig
        assert [f.name for f in dataclasses.fields(MarketParams)] == ["r", "sigma"]

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
    @settings(max_examples=examples(100))
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
    @settings(max_examples=examples(100))
    def test_tau_zero_matches_payoff_at_edges(self, kind, strike, r):
        contract = OptionContract(kind=kind, strike=strike, maturity=1e-15, spot=strike)
        market = MarketParams(r=r, sigma=0.25)
        disc = build_grid(contract, n_time=1, s_max=4.0 * strike)
        lower, upper = _boundaries(contract, market, disc)
        assert lower[0] == pytest.approx(payoff(contract, 0.0), abs=1e-12)
        assert upper[0] == pytest.approx(
            payoff(contract, disc.s_max), abs=1e-9 * disc.s_max
        )


def reference_march(level, bands, boundaries, dt, *, implicit, keep_surface):
    """The march one level at a time, each step in a new array and scanned
    on its own: the loop the ring march replaced, kept as its reference.
    A Crank-Nicolson step is A^-1 (2u + beta) - u, with A = I - dt/2 L and
    beta the boundary terms of both levels. When every off-diagonal pair of
    A shares a strict sign, the step runs on w = u / s with the symmetric
    S = D^-1 A D (D = diag(s)) and ``dpttrs``, and each kept level is u = s w;
    otherwise it runs on u with ``dgttrs``."""
    from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

    lower, center, upper = bands
    bc_lower, bc_upper = boundaries
    scale = None
    if implicit:
        i_lower = 0.5 * dt * lower
        i_upper = 0.5 * dt * upper
        below, diagonal, above = -i_lower[1:], 1.0 - 0.5 * dt * center, -i_upper[:-1]
        if all(b != 0.0 and np.sign(b) == np.sign(a) for b, a in zip(below, above)):
            # s_{i+1} / s_i = sqrt(b / a), and S's off-diagonal is b s_i / s_{i+1}
            ratios = [np.sqrt(b / a) for b, a in zip(below, above)]
            scale = [1.0]
            for ratio in ratios:
                scale.append(scale[-1] * ratio)
            scale = np.array(scale)
            d, e, info = dpttrf(diagonal, below / np.array(ratios))
            assert info == 0
            upper_weight = i_upper[-1] / scale[-1]
        else:
            *factors, _ = dgttrf(below, diagonal, above)
            upper_weight = i_upper[-1]
    else:
        e_lower = dt * lower
        e_center = 1.0 + dt * center
        e_upper = dt * upper
    v = level.copy()
    if scale is not None:
        v[1:-1] = v[1:-1] / scale
    levels = np.empty((bc_lower.size + 1, v.size)) if keep_surface else None
    if keep_surface:
        levels[0] = level
    oscillation = False
    for n in range(bc_lower.size):
        if implicit:
            interior = v[1:-1] + v[1:-1]
            interior[0] += i_lower[0] * (v[0] + bc_lower[n])
            interior[-1] += upper_weight * (v[-1] + bc_upper[n])
            if scale is not None:
                interior, _ = dpttrs(d, e, interior)
            else:
                interior, _ = dgttrs(*factors, interior)
            interior = interior - v[1:-1]
        else:
            interior = e_lower * v[:-2] + e_center * v[1:-1] + e_upper * v[2:]
            neighborhood = np.maximum(np.maximum(v[:-2], v[1:-1]), v[2:])
            if float((interior - neighborhood).max()) > OSCILLATION_TOLERANCE:
                oscillation = True
        out = np.empty_like(v)
        out[0], out[-1] = bc_lower[n], bc_upper[n]
        out[1:-1] = interior
        v = out
        if keep_surface:
            levels[n + 1] = v
            if scale is not None:
                levels[n + 1, 1:-1] = v[1:-1] * scale
    if scale is not None:
        v[1:-1] = v[1:-1] * scale
    return v, levels, oscillation


def march_inputs(
    n_steps, kind=PUT, strike=7.5, spot=7.0, n_space=100, k=1.0, r=0.05, sigma=0.25
):
    """Payoff, bands and boundaries of a contract marched ``n_steps`` steps
    of 1e-3 years each (stable at 100 nodes for k = 1 and the default market)."""
    contract = OptionContract(kind=kind, strike=strike, maturity=n_steps / 1000, spot=spot)
    market = MarketParams(r=r, sigma=sigma)
    disc = build_grid(contract, n_space=n_space, n_time=n_steps)
    s = disc.nodes()
    thetas = _theta_values(market, s[1:-1], disc.ds, ThetaConfig(scaling=k))
    bands = _operator(market, s[1:-1], thetas, disc.ds)
    dt = contract.maturity / disc.n_time
    return payoff(contract, s), bands, _boundaries(contract, market, disc), dt


def assert_marches_agree(*args, implicit, keep_surface):
    ring = _march(*args, implicit=implicit, keep_surface=keep_surface)
    reference = reference_march(*args, implicit=implicit, keep_surface=keep_surface)
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
    @pytest.mark.parametrize("implicit", [False, True])
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
    def test_ring_equals_the_reference_loop(self, n_steps, implicit, keep_surface):
        level, bands, boundaries, dt = march_inputs(n_steps)
        before = level.copy()
        assert_marches_agree(
            level, bands, boundaries, dt,
            implicit=implicit, keep_surface=keep_surface,
        )
        np.testing.assert_array_equal(level, before)

    @pytest.mark.parametrize("kind", [CALL, PUT])
    @pytest.mark.parametrize("r, sigma", [(0.05, 0.25), (0.1, 0.05)])
    def test_implicit_ring_equals_the_reference_loop_on_either_solve(self, r, sigma, kind):
        # a call's upper boundary is nonzero, so its edge term, divided by s
        # at the last node on the symmetric solve, enters every step; at
        # r / sigma^2 = 40 the lower band is negative at the first nodes
        # (Peclet number above 1), so A's off-diagonal pairs there have
        # opposite signs and the march solves with dgttrs on the parent's bits
        level, bands, boundaries, dt = march_inputs(
            2 * model._MARCH_ROWS + 1, kind=kind, strike=5.5, spot=5.0, r=r, sigma=sigma
        )
        assert (bands[0][1:] < 0.0).any() == (r / sigma**2 >= 2.0)
        assert_marches_agree(
            level, bands, boundaries, dt, implicit=True, keep_surface=True
        )

    def test_march_that_turns_to_nan_inside_a_block(self):
        # k = 30 at 400 nodes is far past the stability bound: the march
        # overflows, then turns to NaN at a step that is not a block's first
        # or last
        args = march_inputs(1000, kind=CALL, strike=5.5, spot=5.0, n_space=400, k=30.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert_marches_agree(*args, implicit=False, keep_surface=False)
            final, levels, oscillation = assert_marches_agree(
                *args, implicit=False, keep_surface=True
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
                np.ones(n), bands, boundaries, 1e-3, implicit=False, keep_surface=False
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
                contract.maturity / disc.n_time, implicit=False, keep_surface=True,
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
            np.zeros(n), bands, boundaries, 1e-3, implicit=False, keep_surface=False
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
            np.ones(n), bands, boundaries, 1e-3, implicit=False, keep_surface=False
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
        x, info = dgttrs(*factors, inner, "N", True)
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
        dt = contract.maturity / disc.n_time
        assert min(lower.min(), (1.0 + dt * center).min(), upper.min()) >= 0.0
        plateau = np.full(n_steps, 1e9)
        _, _, oscillation = assert_marches_agree(
            np.full(s.size, 1e9), bands, (plateau, plateau), dt,
            implicit=False, keep_surface=False,
        )
        assert oscillation


def explicit_weights(bands, dt):
    """The explicit step's weights, as ``_march`` forms them from ``bands``."""
    lower, center, upper = bands
    return dt * lower, 1.0 + dt * center, dt * upper


def scan_can_fire(level, bands, boundaries, dt):
    return _scan_can_fire(explicit_weights(bands, dt), level, boundaries)


class TestScanSkip:
    """The oscillation scan runs unless the bands and data prove that it
    cannot set the flag."""

    def test_skips_on_the_default_put(self):
        assert not scan_can_fire(*march_inputs(1000))

    def test_skips_on_a_call_whose_one_negative_weight_meets_a_zero_column(self):
        # at r = 0.1 > sigma^2 node 1's lower weight is negative, but a
        # call's S = 0 column is zero at every level
        level, bands, boundaries, dt = march_inputs(1000, kind=CALL, r=0.1)
        e_lower, _, _ = explicit_weights(bands, dt)
        assert e_lower[0] < 0.0 and (e_lower[1:] >= 0.0).all()
        assert level[0] == 0.0 and not boundaries[0].any()
        assert not scan_can_fire(level, bands, boundaries, dt)

    def test_scans_a_put_at_a_rate_above_sigma_squared(self):
        # the put's S = 0 column is its discounted strike, not zero
        assert scan_can_fire(*march_inputs(1000, r=0.1))

    def test_scans_the_plateau(self):
        # rounding on a level of 1e9 exceeds the tolerance: the bound is
        # about 5e-7 there
        contract = OptionContract(kind=PUT, strike=7.5, maturity=1.0, spot=7.0)
        market = MarketParams(r=0.0, sigma=0.25)
        disc = build_grid(contract, n_space=100, n_time=1000)
        s = disc.nodes()
        bands = _operator(market, s[1:-1], np.ones(disc.n_space - 1), disc.ds)
        plateau = np.full(disc.n_time, 1e9)
        dt = contract.maturity / disc.n_time
        assert scan_can_fire(np.full(s.size, 1e9), bands, (plateau, plateau), dt)

    def test_scans_negative_data(self):
        # a level below zero rises towards zero under weights that sum to
        # 1 - r dt < 1, so a constant -1e6 comes back 50 above itself
        level, bands, _, dt = march_inputs(100)
        negative = np.full(100, -1e6)
        args = (np.full(level.size, -1e6), bands, (negative, negative), dt)
        assert scan_can_fire(*args)
        assert _march(*args, implicit=False, keep_surface=False)[2]

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["level", "lower boundary", "upper boundary", "band"])
    def test_scans_on_a_nan_or_inf(self, where, value):
        level, bands, (bc_lower, bc_upper), dt = march_inputs(100)
        level, bands = level.copy(), [band.copy() for band in bands]
        target = {
            "level": level, "lower boundary": bc_lower,
            "upper boundary": bc_upper, "band": bands[0],
        }[where]
        # the last entry: the put's upper column and node n - 1's lower band,
        # neither of which a zero column drops
        target[-1] = value
        assert scan_can_fire(level, bands, (bc_lower, bc_upper), dt)

    def test_scans_a_nan_weight_next_to_a_zero_column(self):
        # 0 * NaN is NaN, so a weight that meets a zero column counts when
        # it is not finite
        level, bands, boundaries, dt = march_inputs(100, kind=CALL)
        lower = bands[0].copy()
        lower[0] = math.nan
        assert scan_can_fire(level, (lower, *bands[1:]), boundaries, dt)

    @pytest.mark.parametrize("kind", [CALL, PUT])
    @pytest.mark.parametrize(
        "n_space, r, sigma",
        [
            (400, 0.05, 0.25),
            # only node 1's lower weight is negative, so a call's drops it
            # and node 1's weights then sum well above 1
            (100, 0.003, 0.25),
        ],
    )
    def test_scans_k30_bands_with_no_warning(self, kind, n_space, r, sigma):
        args = march_inputs(
            1000, kind=kind, strike=5.5, spot=5.0, n_space=n_space, k=30.0, r=r, sigma=sigma
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scan_can_fire(*args)

    def test_a_growth_whose_power_overflows_scans_with_no_warning(self):
        # g = 2 passes the bound on its own at data of 1e-12, and
        # 2^2000 is past the float range
        n, n_steps = 11, 2000
        bands = (np.full(n - 2, 1.0), np.zeros(n - 2), np.zeros(n - 2))
        tiny = np.full(n_steps, 1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scan_can_fire(np.full(n, 1e-12), bands, (tiny, tiny), 1.0)

    def test_weights_whose_sum_overflows_scan_with_no_warning(self):
        n = 11
        bands = (np.full(n - 2, 1e308), np.zeros(n - 2), np.full(n - 2, 1e308))
        ones = np.ones(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scan_can_fire(np.ones(n), bands, (ones, ones), 1.0)

    def test_a_march_that_skips_reports_no_oscillation(self, monkeypatch):
        verdicts = []

        def spy(*args):
            verdicts.append(_scan_can_fire(*args))
            return verdicts[-1]

        monkeypatch.setattr(model, "_scan_can_fire", spy)
        _, _, oscillation = _march(*march_inputs(1000), implicit=False, keep_surface=False)
        assert verdicts == [False]
        assert oscillation is False

    @given(data=st.data())
    @settings(max_examples=examples(150), deadline=None)
    def test_a_skip_is_never_a_missed_flag(self, data):
        # monotone bands and nonnegative data, with zero boundary columns
        # (and then, sometimes, a negative weight next to one) and levels
        # from 0 to 1e9
        n = data.draw(st.integers(5, 24), label="nodes")
        n_steps = data.draw(st.integers(1, 2 * model._MARCH_ROWS + 3), label="steps")
        dt = data.draw(st.sampled_from([1e-4, 1e-3]), label="dt")
        scale = data.draw(st.sampled_from([0.0, 1.0, 1e3, 1e9]), label="scale")
        # at r = 0 the weights sum to 1 up to rounding, which can flag
        r = data.draw(st.just(0.0) | st.floats(0.0, 0.2), label="r")
        positive = st.floats(0.0, 400.0)
        lower = np.array(data.draw(st.lists(positive, min_size=n - 2, max_size=n - 2)))
        upper = np.array(data.draw(st.lists(positive, min_size=n - 2, max_size=n - 2)))
        # a plateau, as in test_rounding_on_a_plateau_sets_the_flag, or not
        unit = st.just(1.0) if data.draw(st.booleans(), label="plateau") else st.floats(0.0, 1.0)
        level = scale * np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
        columns = []
        for edge in (0, -1):
            if data.draw(st.booleans(), label=f"zero column {edge}"):
                level[edge] = 0.0
                columns.append(np.zeros(n_steps))
                band = lower if edge == 0 else upper
                band[edge] = -data.draw(st.floats(0.0, 50.0), label=f"weight {edge}")
            else:
                columns.append(scale * np.array(data.draw(
                    st.lists(unit, min_size=n_steps, max_size=n_steps)
                )))
        bands = (lower, -np.abs(lower) - np.abs(upper) - r, upper)
        args = (level, bands, tuple(columns), dt)
        scan = scan_can_fire(*args)
        # the ring's flag is reference_march's, which scans every step
        _, _, oscillation = assert_marches_agree(*args, implicit=False, keep_surface=True)
        event(f"scan {scan}, flag {oscillation}")
        assert scan or not oscillation


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

    def test_explicit_s_max_above_the_domain_rejected(self):
        assert build_grid(make_contract(), s_max=1e101).s_max == 1e101
        with pytest.raises(ValidationError, match=r"s_max must be <= 1e101, got 1.0000000000000001e\+101"):
            build_grid(make_contract(), s_max=math.nextafter(1e101, math.inf))

    @pytest.mark.parametrize("n_space", [4, 5, 6, 7, 100])
    def test_auto_grid_at_the_domain_corner_is_admitted(self, n_space):
        # the spot nudge takes the auto grid from 3 to 5 max(spot, strike) here
        c = make_contract(spot=1e100, strike=1e100)
        assert 3e100 <= build_grid(c, n_space=n_space).s_max <= 5e100

    @pytest.mark.parametrize("s_max", ["abc", None, "40", True])
    def test_s_max_that_is_not_auto_or_a_number_rejected(self, s_max):
        with pytest.raises(ValidationError, match="s_max must be 'auto' or a number, got "):
            build_grid(make_contract(), s_max=s_max)

    @pytest.mark.parametrize("kwargs", [
        {"n_time": True},
        {"n_space": True},
        {"n_time": 0},
        {"n_space": 3},
        {"n_time": 10.0},
        {"n_time": np.bool_(True)},
        {"n_space": np.bool_(True)},
    ])
    def test_counts_that_are_no_int_rejected(self, kwargs):
        with pytest.raises(ValidationError, match="must be an int >= "):
            build_grid(make_contract(), **kwargs)

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_counts_become_python_ints(self, integer):
        disc = build_grid(make_contract(), n_space=integer(100), n_time=integer(1000))
        assert type(disc.n_space) is int and type(disc.n_time) is int
        assert disc == build_grid(make_contract(), n_space=100, n_time=1000)

    def test_count_that_is_a_string_is_quoted(self):
        with pytest.raises(ValidationError, match="n_space must be an int >= 4, got '100'"):
            build_grid(make_contract(), n_space="100")

    def test_grid_does_not_depend_on_the_maturity(self):
        assert build_grid(make_contract(maturity=0.5)) == build_grid(make_contract(maturity=1.0))

    @pytest.mark.parametrize("engine", [
        lambda c, m, disc: solve_mcfdm(c, m, disc).result,
        solve_crank_nicolson,
    ], ids=["MCFDM", "CFDM"])
    def test_one_grid_prices_a_second_maturity_as_its_own_grid(self, engine):
        # a grid once carried the step of the maturity it was built for, so
        # a half-year contract on a one-year grid was marched a whole year
        m = MarketParams(r=0.05, sigma=0.25)
        shared = build_grid(make_contract(PUT, strike=7.5, spot=7.0, maturity=1.0))
        half = make_contract(PUT, strike=7.5, spot=7.0, maturity=0.5)
        result = engine(half, m, shared)
        own = engine(half, m, build_grid(half))
        assert (result.price, result.abs_error) == (own.price, own.abs_error)
        assert result.abs_error <= 5e-3

    @given(
        spot=st.floats(0.5, 50.0),
        strike=st.floats(0.5, 50.0),
        n_space=st.integers(4, 400),
    )
    @settings(max_examples=examples(200))
    def test_auto_grid_invariants(self, spot, strike, n_space):
        contract = OptionContract(kind=CALL, strike=strike, maturity=1.0, spot=spot)
        disc = build_grid(contract, n_space=n_space, n_time=10)
        assert disc.s_max > max(spot, strike)
        assert abs(disc.ds * disc.n_space - disc.s_max) <= 1e-9 * max(1.0, disc.s_max)
        node = round(spot / disc.ds)
        if 0 < node < n_space:
            assert abs(spot / disc.ds - node) < 1e-9


class TestDiscretization:
    def test_holds_no_time_step(self):
        # the step is the contract's maturity over n_time
        fields = [f.name for f in dataclasses.fields(Discretization)]
        assert fields == ["s_max", "n_space", "n_time", "ds"]

    def test_inconsistent_ds_rejected(self):
        with pytest.raises(ValidationError):
            Discretization(s_max=10.0, n_space=10, n_time=5, ds=0.9)

    def test_n_space_minimum(self):
        with pytest.raises(ValidationError):
            Discretization(s_max=3.0, n_space=3, n_time=5, ds=1.0)

    @pytest.mark.parametrize("n_time", [True, False, 1.0])
    def test_n_time_that_is_no_int_rejected(self, n_time):
        with pytest.raises(ValidationError, match="n_time must be an int >= 1"):
            Discretization(s_max=10.0, n_space=10, n_time=n_time, ds=1.0)

    @pytest.mark.parametrize("engine", [solve_crank_nicolson, solve_mcfdm])
    def test_s_max_above_the_domain_rejected_before_an_engine_runs(self, engine):
        # a grid built by hand, not by build_grid, once reached ds**2 and
        # raised a bare OverflowError
        c, m = make_contract(), MarketParams(r=0.05, sigma=0.25)
        with pytest.raises(ValidationError, match=r"s_max must be <= 1e101, got 1e\+200"):
            engine(c, m, Discretization(s_max=1e200, n_space=4, n_time=1, ds=2.5e199))

    @pytest.mark.parametrize("engine", [solve_crank_nicolson, crank_nicolson_surface, solve_mcfdm])
    def test_grid_below_the_spot_rejected_before_an_engine_runs(self, engine):
        # interpolation once clamped the spot to the top node and priced the
        # put at 0.0; one step here is past the explicit bound too, and the
        # grid is named first
        c, m = make_contract(PUT, strike=7.5, spot=7.0), MarketParams(r=0.05, sigma=0.25)
        disc = Discretization(s_max=5.0, n_space=100, n_time=1, ds=0.05)
        message = r"s_max must exceed max\(spot, strike\)=7.5, got 5.0"
        with pytest.raises(ValidationError, match=message):
            engine(c, m, disc)

    def test_nodes_are_uniform(self):
        disc = Discretization(s_max=10.0, n_space=10, n_time=5, ds=1.0)
        np.testing.assert_allclose(disc.nodes(), np.arange(11.0), atol=1e-15)


class TestPricingResult:
    def test_negative_error_rejected(self):
        with pytest.raises(ValidationError):
            PricingResult(method=Method.EXACT, price=1.0, abs_error=-1e-9, elapsed_seconds=0.0)

    def test_extra_defaults_to_empty(self):
        result = PricingResult(method=Method.MCFDM, price=1.0, abs_error=0.0, elapsed_seconds=0.1)
        assert result.extra == {}
