"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
CRITERION lines as they print; ``-v`` alone shows one PASSED/FAILED row
per criterion).
"""

import csv
import functools
import itertools
import json
import math
import time

import numpy as np
import pytest

from mcfdm import (
    MarketParams,
    McConfig,
    OptionContract,
    OptionKind,
    StabilityError,
    ThetaConfig,
    black_scholes_price,
    build_grid,
    crank_nicolson_surface,
    max_stable_dt,
    payoff,
    price_monte_carlo,
    risk_neutral_integral_price,
    solve_crank_nicolson,
    solve_mcfdm,
)
from mcfdm.cli import (
    JobSpec,
    format_error,
    jobspec_from_report,
    main,
    run_convergence,
    run_table,
    run_theta_study,
    run_timing,
)
from mcfdm.mean_convection import _theta_values
from mcfdm.model import _boundaries, _march, _operator

MARKET = MarketParams(r=0.05, sigma=0.25)


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {number} ({label}): FAIL")
                raise
            print(f"CRITERION {number} ({label}): PASS")

        return wrapper

    return decorate


def call(spot: float, strike: float, maturity: float = 1.0) -> OptionContract:
    return OptionContract(
        kind=OptionKind.CALL, strike=strike, maturity=maturity, spot=spot
    )


def put(spot: float, strike: float, maturity: float = 1.0) -> OptionContract:
    return OptionContract(
        kind=OptionKind.PUT, strike=strike, maturity=maturity, spot=spot
    )


def parameter_sweep():
    grid = itertools.product(
        range(1, 11), range(1, 11), (0.0, 0.05, 0.1), (0.1, 0.25, 0.5),
        (0.25, 0.5, 1.0),
    )
    for s0, k, r, sigma, t in grid:
        yield float(s0), float(k), r, sigma, t


@criterion(1, "oracle fidelity")
def test_criterion_1_oracle_fidelity(tmp_path):
    anchors = [(5.0, 5.5, 0.40131), (7.0, 7.5, 0.63791)]
    for spot, strike, anchor in anchors:
        out = tmp_path / f"exact-{spot}.json"
        code = main([
            "price", "--method", "exact", "--spot", str(spot),
            "--strike", str(strike), "--maturity", "1.0",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        row = json.loads(out.read_text(encoding="utf-8"))["rows"][0]
        assert abs(row["price"] - anchor) <= 5e-4
        assert row["elapsed_seconds"] < 0.010


@criterion(2, "oracle self-consistency")
def test_criterion_2_oracle_self_consistency():
    start = time.perf_counter()
    combos = list(parameter_sweep())
    for s0, k, r, sigma, t in combos:
        market = MarketParams(r=r, sigma=sigma)
        c = black_scholes_price(call(s0, k, t), market)
        p = black_scholes_price(put(s0, k, t), market)
        assert abs(c - p - (s0 - k * math.exp(-r * t))) <= 1e-10
    quad_combos = combos[::13]
    assert len(quad_combos) >= 200
    for index, (s0, k, r, sigma, t) in enumerate(quad_combos):
        market = MarketParams(r=r, sigma=sigma)
        contract = call(s0, k, t) if index % 2 == 0 else put(s0, k, t)
        closed = black_scholes_price(contract, market)
        integral = risk_neutral_integral_price(contract, market)
        assert abs(closed - integral) <= 1e-7
    assert time.perf_counter() - start < 10.0


@criterion(3, "mean-convection accuracy")
def test_criterion_3_mcfdm_accuracy():
    benchmark = call(7.0, 7.5)
    report = solve_mcfdm(benchmark, MARKET, build_grid(benchmark))
    assert report.result.abs_error <= 5e-3
    for maturity in (0.25, 0.5):
        contract = call(5.0, 5.5, maturity)
        solved = solve_mcfdm(contract, MARKET, build_grid(contract))
        oracle = black_scholes_price(contract, MARKET)
        assert solved.result.abs_error / oracle <= 1e-2


@criterion(4, "theta identities and degenerate limits")
def test_criterion_4_theta_identities():
    start = time.perf_counter()
    contract = call(5.0, 5.5)
    disc = build_grid(contract)
    nodes = disc.nodes()[1:-1]

    def thetas(config):
        return _theta_values(MARKET, nodes, disc.ds, config)

    expected = MARKET.sigma / (2.0 * disc.ds)
    literal = thetas(ThetaConfig(normalize=False))
    assert (abs(literal - expected) <= 1e-12 * expected).all()
    assert (abs(thetas(ThetaConfig()) - 1.0) <= 1e-12).all()

    base = thetas(ThetaConfig(scaling=1.0))
    for k in (0.25, 0.5, 2.0, 7.0):
        assert (thetas(ThetaConfig(scaling=k)) == k * base).all()

    # scaling 0 marches exactly as bands built with no convection term
    s = disc.nodes()
    _, disabled, _ = _march(
        payoff(contract, s),
        _operator(MARKET, nodes, np.zeros_like(nodes), disc.ds),
        _boundaries(contract, MARKET, disc),
        contract.maturity / disc.n_time,
        implicit=False,
        keep_surface=True,
    )
    zeroed = solve_mcfdm(
        contract, MARKET, disc, ThetaConfig(scaling=0.0), keep_surface=True
    )
    gap = abs(zeroed.surface - disabled).max()
    assert gap <= 1e-14

    vanishing = call(5.0, 5.5, 1e-12)
    solved = solve_mcfdm(vanishing, MARKET, build_grid(vanishing, n_time=1))
    assert abs(solved.result.price - 0.0) <= 1e-9
    near_strike = put(5.0, 5.5, 1e-12)
    solved_put = solve_mcfdm(near_strike, MARKET, build_grid(near_strike, n_time=1))
    assert abs(solved_put.result.price - 0.5) <= 1e-9
    assert time.perf_counter() - start < 5.0


@criterion(5, "crank-nicolson baseline")
def test_criterion_5_cn_baseline():
    start = time.perf_counter()
    benchmark = call(7.0, 7.5)

    coarse_time = build_grid(benchmark, n_time=6)
    explicit_bound = max_stable_dt(MARKET, coarse_time, ThetaConfig())
    assert benchmark.maturity / coarse_time.n_time >= 100.0 * explicit_bound
    surface = crank_nicolson_surface(benchmark, MARKET, coarse_time)
    cap = coarse_time.s_max - 7.5 * math.exp(-0.05)
    assert surface.min() >= -1e-12
    assert surface.max() <= cap + 1e-9

    errors = []
    for n_space in (50, 100, 200):
        disc = build_grid(benchmark, n_space=n_space, n_time=2000, s_max=350.0 / 12.0)
        errors.append(solve_crank_nicolson(benchmark, MARKET, disc).abs_error)
    assert errors[0] / errors[1] >= 3.0
    assert errors[1] / errors[2] >= 3.0

    call_price = solve_crank_nicolson(benchmark, MARKET, build_grid(benchmark)).price
    put_price = solve_crank_nicolson(
        put(7.0, 7.5), MARKET, build_grid(put(7.0, 7.5))
    ).price
    parity_gap = call_price - put_price - (7.0 - 7.5 * math.exp(-0.05))
    assert abs(parity_gap) <= 1e-2
    assert time.perf_counter() - start < 30.0


@criterion(6, "monte carlo statistics")
def test_criterion_6_monte_carlo_statistics():
    start = time.perf_counter()
    benchmark = call(7.0, 7.5)

    serial = price_monte_carlo(benchmark, MARKET, n_workers=1)
    for workers in (2, 4):
        pooled = price_monte_carlo(benchmark, MARKET, n_workers=workers)
        assert pooled.price == serial.price
        assert pooled.extra["se"] == serial.extra["se"]

    oracle = black_scholes_price(benchmark, MARKET)
    hits = 0
    for seed in range(20):
        result = price_monte_carlo(benchmark, MARKET, McConfig(seed=seed))
        if abs(result.price - oracle) <= 3.0 * result.extra["se"]:
            hits += 1
    assert hits >= 19
    assert time.perf_counter() - start < 60.0


@criterion(7, "timing comparison")
def test_criterion_7_timing_comparison():
    job = JobSpec(method="All", kind="put", spot=7.0, strike=7.5)
    report = run_timing(job, repeats=3)
    medians = {row.method: row.elapsed_seconds for row in report.rows}
    assert medians["MonteCarlo"] >= 3.0 * medians["MCFDM"]
    ratio = medians["MCFDM"] / medians["CFDM"]
    assert 0.2 <= ratio <= 5.0


@criterion(8, "theta study regression pins")
def test_criterion_8_theta_study_pins():
    job = JobSpec(method="MCFDM", spot=7.0, strike=7.5)
    study = run_theta_study([1.0], job)
    (plain,) = run_table([job.maturity], job).rows
    assert study.rows[0].price == plain.price

    pinned = put(5.0, 5.5)
    flagged = solve_mcfdm(
        pinned, MARKET, build_grid(pinned), ThetaConfig(scaling=30.0),
        allow_unstable=True,
    )
    assert flagged.result.extra["oscillation"] is True

    with pytest.raises(StabilityError):
        solve_mcfdm(pinned, MARKET, build_grid(pinned), ThetaConfig(scaling=80.0))

    rejected = run_table([1.0], JobSpec(method="MCFDM", kind="put", theta_scale=80.0))
    assert rejected.rows[0].error_kind == "stability"


def _masked_json(report) -> dict:
    payload = json.loads(report.to_json())
    payload["provenance"]["generated_at"] = "MASKED"
    for row in payload["rows"]:
        row["elapsed_seconds"] = None
    return payload


def _masked_csv(report):
    comments, rows = [], []
    for line in report.to_csv().splitlines():
        if line.startswith("# generated_at"):
            continue
        if line.startswith("# "):
            comments.append(line)
        else:
            rows.append(line)
    parsed = list(csv.reader(rows))
    for row in parsed[1:]:
        row[4] = "ELAPSED"
    return comments, parsed


@criterion(9, "report integrity")
def test_criterion_9_report_integrity():
    table_job = JobSpec(paths=20_000)
    tiny = JobSpec(maturity=0.25, n_space=50, n_time=100, paths=2000)
    cn_job = JobSpec(method="CFDM", spot=7.0, strike=7.5)
    builders = [
        lambda: run_table([0.25, 1.0], table_job),
        lambda: run_timing(tiny, repeats=3),
        lambda: run_theta_study([0.5, 1.0], table_job),
        lambda: run_convergence([(50, 400), (100, 400)], cn_job),
    ]
    for build in builders:
        first, second = build(), build()
        assert _masked_json(first) == _masked_json(second)
        assert _masked_csv(first) == _masked_csv(second)

        payload = json.loads(first.to_json())
        job = jobspec_from_report(payload)
        kind = OptionKind(job.kind)
        market = MarketParams(r=job.rate, sigma=job.vol)
        checked = 0
        for row in payload["rows"]:
            if row["price"] is None or row["method"] == "Exact":
                continue
            contract = OptionContract(
                kind=kind, strike=job.strike,
                maturity=row["maturity_years"], spot=job.spot,
            )
            recomputed = abs(row["price"] - black_scholes_price(contract, market))
            assert row["abs_error"] == pytest.approx(recomputed, abs=1e-15)
            assert row["abs_error_text"] == format_error(recomputed)
            checked += 1
        assert checked >= 2
