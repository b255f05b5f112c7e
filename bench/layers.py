"""Per-layer probes for the traced run.

Each probe times calls into one module's public functions, on fixed inputs
(the paper's 7 / 7.5 put, T = 1, r = 0.05), so its figures compare across
workloads and seeds. Functions are looked up by name when the probe runs:
if a later change removes or renames one, its metrics are reported as
unmeasured and the run goes on.
"""

from __future__ import annotations

import importlib
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import LongMarch, child_env

# modules whose cumulative import time is reported, by metric name
IMPORTS = {
    "import.numpy_ms": "numpy",
    "import.scipy_linalg_ms": "scipy.linalg",
    "import.scipy_integrate_ms": "scipy.integrate",
    "import.scipy_special_ms": "scipy.special",
    "import.mcfdm_total_ms": "mcfdm",
}
IMPORT_REPEATS = 3


def _fn(module: str, name: str):
    return getattr(importlib.import_module(f"mcfdm.{module}"), name)


def _median_seconds(tracer, name: str, call, repeats: int) -> float:
    """Median wall time of ``call``; each repeat is one span ``name``."""
    samples = []
    for _ in range(repeats):
        with tracer.span(name):
            start = time.perf_counter()
            call()
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _per_call_us(tracer, name: str, call, calls: int = 400, batches: int = 5) -> float:
    """Median over batches of the mean time of one call, in microseconds.

    A span covers a batch, not a call, so that spans cost little next to
    calls of a few microseconds.
    """
    def batch():
        for _ in range(calls):
            call()
    return _median_seconds(tracer, f"{name}[x{calls}]", batch, batches) / calls * 1e6


def _inputs():
    model = importlib.import_module("mcfdm.model")
    contract = model.OptionContract(kind=model.OptionKind.PUT, strike=7.5, maturity=1.0, spot=7.0)
    market = model.MarketParams(r=0.05, sigma=0.25)
    return model, contract, market


def probe_imports(tracer) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime -c 'import mcfdm'``.

    A module that the import no longer loads reads 0.
    """
    samples: dict[str, list[float]] = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_REPEATS):
        with tracer.span("import mcfdm"):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import mcfdm"],
                capture_output=True, text=True, env=child_env(), check=True,
            )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
        for name, module in IMPORTS.items():
            samples[name].append(cumulative.get(module, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def probe_small_calls(tracer) -> dict[str, float]:
    model, contract, market = _inputs()
    disc = model.build_grid(contract)
    bs = _fn("oracle", "black_scholes_price")
    max_stable_dt = _fn("mean_convection", "max_stable_dt")
    theta = _fn("mean_convection", "ThetaConfig")()
    return {
        "model.build_grid_us": _per_call_us(
            tracer, "model.build_grid", lambda: model.build_grid(contract)
        ),
        "oracle.black_scholes_us": _per_call_us(
            tracer, "oracle.black_scholes_price", lambda: bs(contract, market)
        ),
        "mean_convection.max_stable_dt_us": _per_call_us(
            tracer, "mean_convection.max_stable_dt", lambda: max_stable_dt(market, disc, theta), calls=100
        ),
    }


def probe_solves(tracer) -> dict[str, float]:
    """One solve of each engine at the CLI's default size."""
    model, contract, market = _inputs()
    disc = model.build_grid(contract)
    solve_mcfdm = _fn("mean_convection", "solve_mcfdm")
    solve_cn = _fn("crank_nicolson", "solve_crank_nicolson")
    price_mc = _fn("monte_carlo", "price_monte_carlo")
    config = _fn("monte_carlo", "McConfig")(n_paths=100_000, seed=42, n_time_steps=1)
    return {
        "mean_convection.solve_ms": _median_seconds(
            tracer, "mean_convection.solve_mcfdm", lambda: solve_mcfdm(contract, market, disc), 5
        ) * 1e3,
        "crank_nicolson.solve_ms": _median_seconds(
            tracer, "crank_nicolson.solve_crank_nicolson", lambda: solve_cn(contract, market, disc), 5
        ) * 1e3,
        "monte_carlo.price_ms": _median_seconds(
            tracer, "monte_carlo.price_monte_carlo", lambda: price_mc(contract, market, config), 5
        ) * 1e3,
    }


def probe_node_steps(tracer) -> dict[str, float]:
    """Both finite-difference engines on the top long_march rung."""
    model, contract, market = _inputs()
    n = LongMarch.RUNGS[-1]
    disc = model.build_grid(contract, n_space=n, n_time=LongMarch.n_time(n), s_max=LongMarch.S_MAX)
    node_steps = (disc.n_space - 1) * disc.n_time
    solve_mcfdm = _fn("mean_convection", "solve_mcfdm")
    solve_cn = _fn("crank_nicolson", "solve_crank_nicolson")
    return {
        "mean_convection.ns_per_node_step": _median_seconds(
            tracer, "mean_convection.solve_mcfdm", lambda: solve_mcfdm(contract, market, disc), 3
        ) / node_steps * 1e9,
        "crank_nicolson.ns_per_node_step": _median_seconds(
            tracer, "crank_nicolson.solve_crank_nicolson", lambda: solve_cn(contract, market, disc), 3
        ) / node_steps * 1e9,
    }


def probe_paths(tracer) -> dict[str, float]:
    """Monte Carlo per path-step: whole estimator, and the march alone.

    The march runs ``sample_terminal_price`` on normals drawn here, so the
    gap between the two figures is the program's RNG and normal transform
    (plus its payoff reduction).
    """
    _, contract, market = _inputs()
    paths, steps = 4096, LongMarch.MC_STEPS
    price_mc = _fn("monte_carlo", "price_monte_carlo")
    sample = _fn("monte_carlo", "sample_terminal_price")
    config = _fn("monte_carlo", "McConfig")(n_paths=paths, seed=42, n_time_steps=steps)
    normals = np.random.default_rng(42).standard_normal((steps, paths))
    work = paths * steps
    return {
        "monte_carlo.ns_per_path_step": _median_seconds(
            tracer, "monte_carlo.price_monte_carlo", lambda: price_mc(contract, market, config), 3
        ) / work * 1e9,
        "monte_carlo.march_ns_per_path_step": _median_seconds(
            tracer, "monte_carlo.sample_terminal_price",
            lambda: sample(market, contract.spot, contract.maturity, steps, normals), 3,
        ) / work * 1e9,
    }


def probe_cli(tracer) -> dict[str, float]:
    """One table job, its renderings, and how the job inflates row timings.

    ``cli.elapsed_inflation.<method>`` is the solve time a table row reports
    over the time the same solve reports when run alone.
    """
    model, contract, market = _inputs()
    cli = importlib.import_module("mcfdm.cli")
    job = cli.JobSpec(kind="put", spot=7.0, strike=7.5, rate=0.05, vol=0.25)
    maturities = (0.25, 0.5, 1.0)
    solo = {
        "MCFDM": lambda c: _fn("mean_convection", "solve_mcfdm")(c, market, model.build_grid(c)).result,
        "CFDM": lambda c: _fn("crank_nicolson", "solve_crank_nicolson")(c, market, model.build_grid(c)),
        "MonteCarlo": lambda c: _fn("monte_carlo", "price_monte_carlo")(c, market),
    }
    table_s, ratios = [], {m: [] for m in solo}
    for _ in range(3):
        with tracer.span("cli.run_table"):
            start = time.perf_counter()
            report = cli.run_table(maturities, job)
            table_s.append(time.perf_counter() - start)
        for method, solve in solo.items():
            in_table = sum(r.elapsed_seconds for r in report.rows if r.method == method)
            alone = sum(
                solve(model.OptionContract(kind=contract.kind, strike=7.5, maturity=t, spot=7.0)).elapsed_seconds
                for t in maturities
            )
            ratios[method].append(in_table / alone)
    out = {"cli.run_table_ms": statistics.median(table_s) * 1e3}
    out.update({f"cli.elapsed_inflation.{m}": statistics.median(v) for m, v in ratios.items()})
    for fmt in ("json", "csv", "text"):
        render = getattr(report, f"to_{fmt}")
        out[f"cli.render_{fmt}_ms"] = _per_call_us(tracer, f"cli.TableReport.to_{fmt}", render, calls=20) / 1e3
    return out


PROBES = {
    probe_imports: tuple(IMPORTS),
    probe_small_calls: ("model.build_grid_us", "oracle.black_scholes_us", "mean_convection.max_stable_dt_us"),
    probe_solves: ("mean_convection.solve_ms", "crank_nicolson.solve_ms", "monte_carlo.price_ms"),
    probe_node_steps: ("mean_convection.ns_per_node_step", "crank_nicolson.ns_per_node_step"),
    probe_paths: ("monte_carlo.ns_per_path_step", "monte_carlo.march_ns_per_path_step"),
    probe_cli: (
        "cli.run_table_ms", "cli.render_json_ms", "cli.render_csv_ms", "cli.render_text_ms",
        "cli.elapsed_inflation.MCFDM", "cli.elapsed_inflation.CFDM", "cli.elapsed_inflation.MonteCarlo",
    ),
}


def probe_all(tracer) -> tuple[dict[str, float], dict[str, str]]:
    """Run every probe; returns the metrics and, per unmeasured metric, why."""
    metrics: dict[str, float] = {}
    unmeasured: dict[str, str] = {}
    for probe, names in PROBES.items():
        try:
            with tracer.span(f"probe.{probe.__name__.removeprefix('probe_')}"):
                metrics.update(probe(tracer))
        except (ImportError, AttributeError, TypeError, subprocess.CalledProcessError) as exc:
            for name in names:
                unmeasured[name] = f"{probe.__name__}: {exc!r}"
    return metrics, unmeasured
