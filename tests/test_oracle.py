import math
import time
import warnings

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mcfdm.oracle
from mcfdm import (
    Discretization,
    McConfig,
    MarketParams,
    OptionContract,
    OptionKind,
    QuadratureError,
    ValidationError,
    black_scholes_price,
    build_grid,
    price_monte_carlo,
    risk_neutral_integral_price,
    solve_crank_nicolson,
    solve_mcfdm,
    std_normal_cdf,
)
from mcfdm.cli import JobSpec, run_table

CALL = OptionKind.CALL
PUT = OptionKind.PUT

# N(1.959964) and N(-3.0) via adaptive quadrature of the normal density,
# recorded before the implementation existed
CDF_AT_1959964 = 0.9750000009035578
CDF_AT_MINUS_3 = 0.0013498980316300946

# quadrature value for the call (S0=5, K=5.5, r=0.05, sigma=0.25, T=0.5),
# recorded from the integral oracle before the closed form was written
QUAD_CALL_5_55_HALF_YEAR = 0.2112891196480034


def market(r=0.05, sigma=0.25):
    return MarketParams(r=r, sigma=sigma)


def contract(kind=CALL, strike=5.5, maturity=1.0, spot=5.0):
    return OptionContract(kind=kind, strike=strike, maturity=maturity, spot=spot)


def edge_sigma(r, maturity):
    """The largest sigma of the priced domain, where rT + 8.3 sigma sqrt(T) = 100."""
    sigma = (100.0 - r * maturity) / (8.3 * math.sqrt(maturity))
    while r * maturity + 8.3 * sigma * math.sqrt(maturity) > 100.0:
        sigma = math.nextafter(sigma, 0.0)
    return sigma


class TestStdNormalCdf:
    def test_zero_is_half(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_upper_quantile(self):
        assert std_normal_cdf(1.959964) == pytest.approx(CDF_AT_1959964, abs=1e-12)

    def test_left_tail(self):
        assert std_normal_cdf(-3.0) == pytest.approx(CDF_AT_MINUS_3, abs=1e-12)

    def test_non_finite_rejected(self):
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                std_normal_cdf(x)

    @given(x=st.floats(-38.0, 38.0))
    def test_symmetry(self, x):
        assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-15

    @given(x=st.floats(-10.0, 10.0), y=st.floats(-10.0, 10.0))
    def test_monotone_and_bounded(self, x, y):
        lo, hi = sorted((x, y))
        n_lo, n_hi = std_normal_cdf(lo), std_normal_cdf(hi)
        assert 0.0 <= n_lo <= n_hi <= 1.0


class TestBlackScholesPrice:
    def test_first_benchmark_anchor(self):
        assert black_scholes_price(contract(), market()) == pytest.approx(0.40131, abs=5e-4)

    def test_second_benchmark_anchor(self):
        c = contract(strike=7.5, spot=7.0)
        assert black_scholes_price(c, market()) == pytest.approx(0.63791, abs=5e-4)

    def test_zero_strike_call_is_the_asset(self):
        c = OptionContract(kind=CALL, strike=1e-12, maturity=1.0, spot=5.0)
        assert black_scholes_price(c, market()) == pytest.approx(5.0, abs=1e-9)

    @given(
        spot=st.floats(1.0, 10.0),
        strike=st.floats(1.0, 10.0),
        r=st.sampled_from([0.0, 0.05, 0.1]),
        sigma=st.sampled_from([0.1, 0.25, 0.5]),
        maturity=st.sampled_from([0.25, 0.5, 1.0]),
    )
    @settings(max_examples=300)
    def test_parity_and_no_arbitrage_bounds(self, spot, strike, r, sigma, maturity):
        m = MarketParams(r=r, sigma=sigma)
        call = OptionContract(kind=CALL, strike=strike, maturity=maturity, spot=spot)
        put = OptionContract(kind=PUT, strike=strike, maturity=maturity, spot=spot)
        c = black_scholes_price(call, m)
        p = black_scholes_price(put, m)
        forward_gap = spot - strike * math.exp(-r * maturity)
        assert abs(c - p - forward_gap) <= 1e-10
        assert max(forward_gap, 0.0) - 1e-12 <= c <= spot + 1e-12
        assert max(-forward_gap, 0.0) - 1e-12 <= p <= strike * math.exp(-r * maturity) + 1e-12

    @pytest.mark.parametrize("spot", [5.0, 6.0])
    @pytest.mark.parametrize("kind", [CALL, PUT])
    @pytest.mark.parametrize("maturity", [1.0, 1e-9])
    def test_vanishing_volatility_is_the_discounted_forward_payoff(self, maturity, kind, spot):
        # sigma sqrt(T) is subnormal at T = 1, so d1 overflows, and 0 at T = 1e-9
        forward_gap = spot - 5.5 * math.exp(-0.05 * maturity)
        expected = max(forward_gap if kind is CALL else -forward_gap, 0.0)
        c = contract(kind=kind, maturity=maturity, spot=spot)
        assert black_scholes_price(c, market(sigma=1e-320)) == expected

    @pytest.mark.parametrize("maturity", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("share", [0.95, 0.96, 0.97, 0.98, 0.99, 1.0])
    def test_huge_volatility_takes_its_limit(self, share, maturity):
        # up to the domain's bound sigma sqrt(T) is about 12, and the prices
        # sit within the normal tail N(-5.7) of their limits S0 and K e^-rT
        sigma = share * edge_sigma(0.05, maturity)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = black_scholes_price(contract(maturity=maturity), market(sigma=sigma))
            p = black_scholes_price(contract(kind=PUT, maturity=maturity), market(sigma=sigma))
        discounted_strike = 5.5 * math.exp(-0.05 * maturity)
        forward_gap = 5.0 - discounted_strike
        assert abs(c - p - forward_gap) <= 1e-12
        assert max(forward_gap, 0.0) <= c <= 5.0
        assert max(-forward_gap, 0.0) <= p <= discounted_strike
        assert (c, p) == pytest.approx((5.0, discounted_strike), rel=0.0, abs=1e-7)

    def test_monotone_in_spot_and_maturity(self):
        spots = [3.0, 4.0, 5.0, 6.0, 7.0]
        calls = [
            black_scholes_price(contract(spot=s), market()) for s in spots
        ]
        puts = [
            black_scholes_price(contract(kind=PUT, spot=s), market()) for s in spots
        ]
        assert calls == sorted(calls)
        assert puts == sorted(puts, reverse=True)
        maturities = [0.25, 0.5, 1.0, 2.0]
        by_t = [black_scholes_price(contract(maturity=t), market()) for t in maturities]
        assert by_t == sorted(by_t)


class TestRiskNeutralIntegralPrice:
    def test_recorded_value_and_closed_form_agreement(self):
        c = contract(maturity=0.5)
        value = risk_neutral_integral_price(c, market())
        assert value == pytest.approx(QUAD_CALL_5_55_HALF_YEAR, abs=1e-10)
        assert value == pytest.approx(black_scholes_price(c, market()), abs=1e-8)

    def test_tiny_call_stays_below_its_spot(self):
        # QUADPACK's absolute tolerance of 1e-10 is loose at S0 = K = 1e-100:
        # this call's integral once came to 1.00016e-100, above S0
        c = contract(spot=1e-100, strike=1e-100)
        m = market(r=50.0)
        assert risk_neutral_integral_price(c, m) <= c.spot
        assert risk_neutral_integral_price(c, m) == black_scholes_price(c, m)

    def test_vanishing_volatility_is_discounted_forward_payoff(self):
        c = OptionContract(kind=CALL, strike=4.0, maturity=1.0, spot=5.0)
        m = MarketParams(r=0.05, sigma=1e-8)
        expected = math.exp(-0.05) * (5.0 * math.exp(0.05) - 4.0)
        assert risk_neutral_integral_price(c, m) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("strike", [5.5, 6.0, 6.5])
    @pytest.mark.parametrize("kind", [CALL, PUT])
    @pytest.mark.parametrize("maturity", [1.0, 1e-9])
    def test_underflowing_volatility_agrees_with_the_closed_form(self, maturity, kind, strike):
        # sigma sqrt(T) is subnormal at T = 1, and 0 at T = 1e-9
        c = contract(kind=kind, strike=strike, maturity=maturity, spot=6.0)
        m = market(sigma=1e-320)
        assert risk_neutral_integral_price(c, m) == pytest.approx(
            black_scholes_price(c, m), abs=1e-10
        )

    def test_at_the_money_zero_rate_put_call_symmetry(self):
        m = MarketParams(r=0.0, sigma=0.25)
        c = OptionContract(kind=CALL, strike=7.0, maturity=1.0, spot=7.0)
        p = OptionContract(kind=PUT, strike=7.0, maturity=1.0, spot=7.0)
        assert risk_neutral_integral_price(c, m) == pytest.approx(
            risk_neutral_integral_price(p, m), abs=1e-10
        )

    def test_put_agrees_with_closed_form(self):
        p = contract(kind=PUT, strike=7.5, spot=7.0)
        assert risk_neutral_integral_price(p, market()) == pytest.approx(
            black_scholes_price(p, market()), abs=1e-8
        )

    def test_deep_tails_stay_finite(self):
        # huge log-moneyness exercises the clamped integration window
        c = OptionContract(kind=CALL, strike=10.0, maturity=0.25, spot=1.0)
        m = MarketParams(r=0.0, sigma=0.1)
        assert risk_neutral_integral_price(c, m) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind", [CALL, PUT])
    @pytest.mark.parametrize("sigma", [6.0, 8.0, 10.0, 11.0, 12.0, edge_sigma(0.05, 1.0)])
    def test_huge_volatility_matches_the_closed_form_or_raises(self, sigma, kind):
        # up to the domain's bound on sigma sqrt(T), about 12, the call's
        # asset leg peaks at z = sigma sqrt(T), inside the integration window
        c = contract(kind=kind)
        m = market(sigma=sigma)
        expected = black_scholes_price(c, m)
        try:
            value = risk_neutral_integral_price(c, m)
        except QuadratureError:
            assert kind is CALL
        else:
            assert value == pytest.approx(expected, rel=0.0, abs=1e-9 * max(c.spot, c.strike))

    def test_package_import_leaves_quadrature_unloaded(self, fresh_python):
        # scipy.integrate serves only this oracle, so it loads on first call
        proc = fresh_python(
            "-c", "import sys, mcfdm; print('scipy.integrate' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestExtremeMoneyness:
    # S0 / K at the domain's corners, 1e-200 and 1e200
    @pytest.mark.parametrize("kind", [CALL, PUT])
    @pytest.mark.parametrize("spot, strike", [(1e-100, 1e100), (1e100, 1e-100)])
    def test_closed_form_and_quadrature_agree_within_the_bounds(self, spot, strike, kind):
        c = contract(kind=kind, strike=strike, spot=spot)
        m = market()
        df_strike = strike * math.exp(-m.r * c.maturity)
        if kind is CALL:
            low, high = max(spot - df_strike, 0.0), spot
        else:
            low, high = max(df_strike - spot, 0.0), df_strike
        closed = black_scholes_price(c, m)
        integral = risk_neutral_integral_price(c, m)
        assert low <= closed <= high
        assert low <= integral <= high
        assert integral == pytest.approx(closed, rel=1e-9)


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def in_domain(spot, strike, maturity, sigma, r):
    """Whether the inputs lie in the priced domain, as README states it."""
    return (
        all(1e-100 <= x <= 1e100 for x in (spot, strike))
        and maturity >= 1e-100
        and r * maturity + 8.3 * sigma * math.sqrt(maturity) <= 100.0
    )


@st.composite
def domain_inputs(draw):
    """Log-uniform across the priced domain: S0 / K from 1e-100 to 1e100,
    rT up to 98 and sigma from subnormal to the bound on rT + 8.3 sigma sqrt(T)."""
    maturity = draw(_decades(-12, 17))
    rt = draw(st.one_of(st.just(0.0), _decades(-20, 1.99)))
    sigma_max = (100.0 - rt) * (1.0 - 1e-9) / (8.3 * math.sqrt(maturity))
    return {
        "kind": draw(st.sampled_from([CALL, PUT])),
        "spot": draw(_decades(-100, 100)),
        "strike": draw(_decades(-100, 100)),
        "maturity": maturity,
        "sigma": draw(_decades(-320, math.log10(sigma_max))),
        "r": rt / maturity,
    }


# log-uniform across most of the double range, where S0 / K overflows,
# e^-rT underflows and sigma sqrt(T) rounds to 0 or overflows
FLOAT_RANGE_INPUTS = {
    "kind": st.sampled_from([CALL, PUT]),
    "spot": _decades(-300, 300),
    "strike": _decades(-300, 300),
    "maturity": _decades(-320, 17),
    "sigma": _decades(-320, 300),
    "r": st.one_of(st.sampled_from([0.0, 0.05]), _decades(-20, 300)),
}


def edge_case(kind, spot, strike, maturity, sigma, r):
    """The contract, the market and the scale max(S0, K e^-rT) of its price."""
    c = OptionContract(kind=kind, strike=strike, maturity=maturity, spot=spot)
    df_strike = math.exp(math.log(strike) - r * maturity)
    return c, MarketParams(r=r, sigma=sigma), df_strike, max(spot, df_strike)


class TestFloatRangeEdges:
    @given(inputs=domain_inputs())
    # S0 / K at 1e100 with sigma sqrt(T) subnormal, then at 1e-100 with
    # rT + 8.3 sigma sqrt(T) = 100
    @example(inputs=dict(kind=CALL, spot=1e100, strike=1e-100, maturity=1e-12, sigma=1e-320, r=0.0))
    @example(inputs=dict(kind=PUT, spot=1e-100, strike=1e100, maturity=1.0, sigma=edge_sigma(50.0, 1.0), r=50.0))
    @example(inputs=dict(kind=CALL, spot=1e-100, strike=1e100, maturity=1e17, sigma=edge_sigma(0.0, 1e17), r=0.0))
    # e^-rT at its floor e^-100, with sigma sqrt(T) subnormal
    @example(inputs=dict(kind=PUT, spot=1e-100, strike=1e100, maturity=10.0, sigma=1e-320, r=10.0 - 1e-14))
    @settings(max_examples=500)
    def test_closed_form_stays_within_the_no_arbitrage_bounds(self, inputs):
        c, m, df_strike, scale = edge_case(**inputs)
        price = black_scholes_price(c, m)
        if c.kind is CALL:
            low, high = max(c.spot - df_strike, 0.0), c.spot
        else:
            low, high = max(df_strike - c.spot, 0.0), df_strike
        assert low - 1e-12 * scale <= price <= high + 1e-12 * scale

    @given(inputs=domain_inputs())
    # sigma sqrt(T) and rT at the domain's bound, at both corners of S0 / K
    @example(inputs=dict(kind=PUT, spot=1e100, strike=1e-100, maturity=1e17, sigma=edge_sigma(0.0, 1e17), r=0.0))
    @example(inputs=dict(kind=CALL, spot=1e-100, strike=1e100, maturity=1.0, sigma=edge_sigma(50.0, 1.0), r=50.0))
    @example(inputs=dict(kind=CALL, spot=1e100, strike=1e-100, maturity=25.0, sigma=0.25, r=3.5))
    # contracts far below 1, which an absolute tolerance of 1e-10 prices 1e-4 off
    @example(inputs=dict(kind=CALL, spot=1e-100, strike=1e-100, maturity=1.0, sigma=0.25, r=0.05))
    @example(inputs=dict(kind=PUT, spot=1e-100, strike=2e-100, maturity=1.0, sigma=0.25, r=0.05))
    @settings(max_examples=200, deadline=None)
    def test_quadrature_agrees_with_the_closed_form_or_raises(self, inputs):
        c, m, _, scale = edge_case(**inputs)
        try:
            value = risk_neutral_integral_price(c, m)
        except QuadratureError:
            return
        expected = black_scholes_price(c, m)
        assert abs(value - expected) <= 1e-9 * scale


class TestPricedDomain:
    """Inputs outside the priced domain raise before any engine works."""

    @staticmethod
    def refusals(c, m):
        """The ValidationError of each engine, None where one priced."""
        # an ordinary grid, since build_grid may itself refuse c's auto s_max
        grid = Discretization(s_max=22.0, n_space=4, n_time=1, ds=5.5)
        engines = {
            "closed form": lambda: black_scholes_price(c, m),
            "quadrature": lambda: risk_neutral_integral_price(c, m),
            "Monte Carlo": lambda: price_monte_carlo(c, m, McConfig(n_paths=1), n_workers=1),
            "MCFDM": lambda: solve_mcfdm(c, m, grid),
            "CFDM": lambda: solve_crank_nicolson(c, m, grid),
        }
        errors = {}
        for name, engine in engines.items():
            try:
                engine()
            except ValidationError as exc:
                errors[name] = exc
            else:
                errors[name] = None
        return errors

    # the last two float-range defects found before the domain was declared:
    # Monte Carlo's paths overflowed where rT passed 709, and the closed
    # form's sigma -> inf branch formed -inf + inf
    @pytest.mark.parametrize("kind", [CALL, PUT])
    @pytest.mark.parametrize(
        "inputs",
        [
            dict(spot=1.17e-146, strike=1.35e200, maturity=78.9, sigma=3.2e-311, r=10.0),
            dict(spot=1e-300, strike=1e300, maturity=1e17, sigma=1e-320, r=1e300),
        ],
        ids=["rT past 709", "rT overflows"],
    )
    def test_float_range_defects_are_refused(self, inputs, kind):
        c, m, _, _ = edge_case(kind=kind, **inputs)
        with pytest.raises(ValidationError, match="spot must be in"):
            price_monte_carlo(c, m, McConfig(n_paths=1000))
        with pytest.raises(ValidationError, match="spot must be in"):
            black_scholes_price(c, m)

    @pytest.mark.parametrize(
        "inputs, quantity",
        [
            (dict(spot=1e101), "spot must be in [1e-100, 1e100], got 1e+101"),
            (dict(strike=9e-101), "strike must be in [1e-100, 1e100], got 9e-101"),
            (dict(maturity=1e-101), "maturity must be >= 1e-100, got 1e-101"),
            (dict(r=100.0), "r*T + 8.3*sigma*sqrt(T) must be <= 100, got 102.075"),
            (dict(sigma=12.1), "r*T + 8.3*sigma*sqrt(T) must be <= 100, got 100.43"),
        ],
        ids=["spot", "strike", "maturity", "rate", "sigma"],
    )
    def test_every_engine_names_the_quantity(self, inputs, quantity):
        fields = dict(kind=CALL, spot=5.0, strike=5.5, maturity=1.0, sigma=0.25, r=0.0)
        c, m, _, _ = edge_case(**{**fields, **inputs})
        for name, exc in self.refusals(c, m).items():
            assert exc is not None, name
            assert str(exc).startswith(quantity), name

    @given(**FLOAT_RANGE_INPUTS)
    # S0 / K overflows with sigma sqrt(T) = 0 (once a ZeroDivisionError), then
    # with sigma sqrt(T) = inf (once NaN)
    @example(kind=CALL, spot=1e300, strike=1e-300, maturity=1e-12, sigma=1e-320, r=0.0)
    @example(kind=PUT, spot=1e300, strike=1e-300, maturity=1e17, sigma=1e300, r=0.0)
    # S0 / K is subnormal, so its log was 0.2 off and the call priced below 0
    @example(
        kind=CALL, spot=9.156154305859823e-162, strike=2.260864376382897e162,
        maturity=172348737827230.9, sigma=1.1358829561938399e-59, r=4.319685604110488e-12,
    )
    # sigma sqrt(T) overflows (once a quadrature of 0.0 for a price of 7.5),
    # a leg overflows (once a bare OverflowError), the integral overflows
    @example(kind=PUT, spot=7.0, strike=7.5, maturity=1e17, sigma=1e300, r=0.0)
    @example(kind=CALL, spot=2.7e-29, strike=7.3e35, maturity=6.3e14, sigma=5e-32, r=10.0)
    @example(kind=CALL, spot=3.8e298, strike=8.5e-261, maturity=25.0, sigma=0.25, r=10.0)
    # (r + sigma^2 / 2) T overflows at a subnormal maturity with sigma sqrt(T) = 1
    @example(kind=CALL, spot=1.0, strike=1.0, maturity=1e-310, sigma=1e155, r=0.0)
    @settings(max_examples=200, deadline=None)
    def test_inputs_outside_the_domain_are_refused(self, **inputs):
        assume(not in_domain(**{k: v for k, v in inputs.items() if k != "kind"}))
        c, m, _, _ = edge_case(**inputs)
        assert None not in self.refusals(c, m).values()


class TestOracleOutsideTheClock:
    """Each engine stops its clock before it scores its price against the
    closed form; only the Exact row, whose solve is the closed form, times
    it."""

    DELAY = 0.1

    @staticmethod
    def solves():
        c = contract()
        disc = build_grid(c, n_space=20, n_time=100)
        return {
            "MCFDM": lambda: solve_mcfdm(c, market(), disc).result,
            "CFDM": lambda: solve_crank_nicolson(c, market(), disc),
            "MonteCarlo": lambda: price_monte_carlo(
                c, market(), McConfig(n_paths=1000), n_workers=1
            ),
        }

    def slow_down_the_cdf(self, monkeypatch):
        real = std_normal_cdf

        def slow(x):
            time.sleep(self.DELAY)
            return real(x)

        monkeypatch.setattr(mcfdm.oracle, "std_normal_cdf", slow)

    @pytest.mark.parametrize("method", ["MCFDM", "CFDM", "MonteCarlo"])
    def test_engine_time_excludes_the_oracle(self, monkeypatch, method):
        solve = self.solves()[method]
        fast = solve()
        self.slow_down_the_cdf(monkeypatch)
        slow = solve()
        assert slow.elapsed_seconds < self.DELAY
        assert (slow.price, slow.abs_error) == (fast.price, fast.abs_error)

    def test_exact_row_times_the_closed_form(self, monkeypatch):
        self.slow_down_the_cdf(monkeypatch)
        (row,) = run_table([1.0], JobSpec(method="Exact")).rows
        assert row.elapsed_seconds >= self.DELAY
        assert row.price == black_scholes_price(contract(), market())
        assert row.abs_error == 0.0
