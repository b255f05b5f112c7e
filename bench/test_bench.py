"""Tests of the benchmark itself: its reference pricer, that each
workload's checks reject a report with one perturbed price, and that a
probe whose function is gone reports its layer as unmeasured.

Run from the root of the repository with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math

import pytest

from mcfdm import MarketParams, OptionContract, OptionKind, risk_neutral_integral_price
from mcfdm.cli import main as cli_main

import layers
import workloads
from reference import bs_price, no_arbitrage_bounds
from tracing import NullTracer, Tracer

BUMP = 0.05  # five times the finite-difference tolerance


class TestReferencePricer:
    @pytest.mark.parametrize("kind", ["call", "put"])
    @pytest.mark.parametrize("strike", [5.5, 7.0, 8.0])
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.1])
    @pytest.mark.parametrize("maturity", [0.25, 1.0])
    def test_agrees_with_quadrature(self, kind, strike, rate, maturity):
        contract = OptionContract(kind=OptionKind(kind), strike=strike, maturity=maturity, spot=7.0)
        quad = risk_neutral_integral_price(contract, MarketParams(r=rate, sigma=0.25))
        assert bs_price(kind, 7.0, strike, maturity, rate, 0.25) == pytest.approx(quad, abs=1e-8)

    @pytest.mark.parametrize("q", [-0.1, 0.0, 0.03])
    @pytest.mark.parametrize("strike", [6.0, 7.5])
    def test_put_call_parity(self, q, strike):
        spot, t, r = 7.0, 0.75, 0.05
        call = bs_price("call", spot, strike, t, r, 0.25, q)
        put = bs_price("put", spot, strike, t, r, 0.25, q)
        forward = spot * math.exp(-q * t) - strike * math.exp(-r * t)
        assert call - put == pytest.approx(forward, abs=1e-12)

    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_within_no_arbitrage_bounds(self, kind):
        for q in (-0.05, 0.0, 0.05):
            lo, hi = no_arbitrage_bounds(kind, 7.0, 7.5, 1.0, 0.05, q)
            assert lo <= bs_price(kind, 7.0, 7.5, 1.0, 0.05, 0.25, q) <= hi

    # the paper's anchors are printed truncated to five decimals
    def test_paper_anchor_5_55(self):
        assert bs_price("call", 5.0, 5.5, 1.0, 0.05, 0.25) == pytest.approx(0.40131, abs=1e-5)

    def test_paper_anchor_7_75(self):
        assert bs_price("call", 7.0, 7.5, 1.0, 0.05, 0.25) == pytest.approx(0.63791, abs=1e-5)


def _bump_report(report, index):
    rows = list(report.rows)
    rows[index] = dataclasses.replace(rows[index], price=rows[index].price + BUMP)
    return dataclasses.replace(report, rows=tuple(rows))


def _perturbing(fn, index=0):
    def wrapper(*args, **kwargs):
        return _bump_report(fn(*args, **kwargs), index)
    return wrapper


def _run_round(workload, perturb=None, seed=3):
    """Prepare the workload, then apply ``perturb`` (a callable taking no
    arguments) and run round 0."""
    inputs = workload.prepare(seed)
    if perturb is not None:
        perturb()
    return workload.run_round(inputs, 0, NullTracer())


@pytest.fixture
def small_long_march(monkeypatch):
    monkeypatch.setattr(workloads.LongMarch, "MC_PATHS", 4096)
    monkeypatch.setattr(workloads.LongMarch, "MC_STEPS", 10)
    return workloads.LongMarch()


class TestChecksRejectPerturbedPrice:
    def test_paper_study_passes_unperturbed(self):
        res = _run_round(workloads.PaperStudy())
        assert res.problems == [] and res.failed == 0

    @pytest.mark.parametrize("target,index", [("run_table", 0), ("run_table", 8), ("run_theta_study", 2)])
    def test_paper_study(self, monkeypatch, target, index):
        bumped = _perturbing(getattr(workloads, target), index)
        res = _run_round(workloads.PaperStudy(), lambda: monkeypatch.setattr(workloads, target, bumped))
        assert res.problems

    def test_long_march_passes_unperturbed(self, small_long_march):
        res = _run_round(small_long_march)
        assert res.problems == [] and res.failed == 0

    @pytest.mark.parametrize("index", [0, 2])
    def test_long_march(self, monkeypatch, small_long_march, index):
        bumped = _perturbing(workloads.run_convergence, index)
        res = _run_round(small_long_march, lambda: monkeypatch.setattr(workloads, "run_convergence", bumped))
        assert res.problems


def _in_process_cli(perturb_call=None):
    """Stand-in for ``run_child`` that runs the CLI in this process and
    optionally bumps the first price in the output of one call."""
    calls = iter(range(len(workloads.CliCold.SEQUENCE)))

    def run_child(argv, stderr_path):
        n = next(calls)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv[3:])
        text = out.getvalue()
        if n == perturb_call:
            text = _bump_output(text, argv[argv.index("--format") + 1])
        return code, text, 0.5, 1024

    return run_child


def _bump_output(text, fmt):
    if fmt == "json":
        doc = json.loads(text)
        doc["rows"][0]["price"] += BUMP
        return json.dumps(doc)
    lines = text.splitlines()
    if fmt == "csv":
        i = next(i for i, line in enumerate(lines) if line.startswith("method,")) + 1
        cells = next(csv.reader([lines[i]]))
        cells[2] = repr(float(cells[2]) + BUMP)
        lines[i] = ",".join(cells)
    else:
        i = next(i for i, line in enumerate(lines) if set(line) == {"-"}) + 1
        price = lines[i].split()[2]
        lines[i] = lines[i].replace(price, f"{float(price) + BUMP:.5f}", 1)
    return "\n".join(lines) + "\n"


class TestCliColdChecks:
    def test_passes_unperturbed(self, monkeypatch):
        monkeypatch.setattr(workloads, "run_child", _in_process_cli())
        res = _run_round(workloads.CliCold())
        assert res.problems == [] and res.failed == 0

    # one call per output format: text, JSON, CSV
    @pytest.mark.parametrize("call", [0, 1, 2])
    def test_rejects_perturbed_price(self, monkeypatch, call):
        monkeypatch.setattr(workloads, "run_child", _in_process_cli(perturb_call=call))
        assert _run_round(workloads.CliCold()).problems


def test_missing_function_marks_layer_unmeasured(monkeypatch):
    import mcfdm.monte_carlo

    monkeypatch.delattr(mcfdm.monte_carlo, "sample_terminal_price")
    monkeypatch.setattr(layers, "PROBES", {layers.probe_paths: layers.PROBES[layers.probe_paths]})
    metrics, unmeasured = layers.probe_all(Tracer())
    assert metrics == {}
    assert set(unmeasured) == {"monte_carlo.ns_per_path_step", "monte_carlo.march_ns_per_path_step"}
