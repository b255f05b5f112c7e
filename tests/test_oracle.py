import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcfdm.oracle
from mcfdm import (
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

    def test_package_import_leaves_quadrature_unloaded(self, fresh_python):
        # scipy.integrate serves only this oracle, so it loads on first call
        proc = fresh_python(
            "-c", "import sys, mcfdm; print('scipy.integrate' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


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
