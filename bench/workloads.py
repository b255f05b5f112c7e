"""The three workloads: cli_cold, paper_study and long_march.

BENCHMARK.json lists cli_cold and long_march; paper_study is run by hand,
because its figures were not steady enough between runs to gate on (see
README.md).

Each workload has ``prepare(seed)``, which builds its inputs from the seed
and warms the engines it calls, and ``run_round(inputs, i, tracer)``, which
runs round ``i``: a fixed set of operations whose make-up does not depend
on the seed or on ``i``. A run repeats rounds until its time is up, so the
share of failed operations is the same in every run.

Every round adds samples of the end-to-end metrics; the run reports the
quartile of all samples on the slow side (see ``run.slow_quartile``). Call
times and row rates are sampled once per round, as the mean over the
round, because a round mixes calls of different lengths. Where an engine
runs alone (long_march) its rate is timed by the benchmark's clock, once
per round. In paper_study each ``run_table`` row
is one sample of its engine's rate, from the solve time the row reports in
``elapsed_seconds``; rows of the sequential theta study are left out, so
that all samples share one setting. In cli_cold a rate is the engine work
the round's calls printed over their wall time.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import mcfdm  # noqa: F401  (set-up time includes the package import)
from mcfdm.cli import JobSpec, run_convergence, run_table, run_theta_study
from mcfdm.model import MarketParams, OptionContract, OptionKind
from mcfdm.monte_carlo import McConfig, price_monte_carlo

import checks
from checks import Contract, Row

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

SPOT = 7.0
VOL = 0.25
RATES = (0.0, 0.02, 0.04, 0.06, 0.08, 0.1)
MATURITIES = (0.25, 0.5, 1.0)
SCALINGS = (0.5, 1.0, 2.0)
# the CLI's default grid and Monte Carlo size, used by cli_cold and paper_study
DEFAULT_NODE_STEPS = (100 - 1) * 1000
DEFAULT_PATH_STEPS = 100_000 * 1

# what the ``mcfdm`` console script runs
CLI_ENTRY = "import sys; from mcfdm.cli import main; sys.exit(main())"


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    peak_rss_kb: int = 0

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def add_rows(self, rows: list[Row], problems: list[str]) -> None:
        self.attempted += len(rows)
        self.failed += checks.failed(rows)
        self.problems += problems


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], stderr_path: Path) -> tuple[int, str, float, int]:
    """Run one child process to its end.

    Returns the exit code, standard output, wall seconds and the child's
    peak resident set in KiB (from ``wait4``, so it is this child's alone).
    """
    stderr_path.parent.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=BENCH.parent
        )
        try:
            with proc.stdout:
                out = proc.stdout.read()
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), seconds, usage.ru_maxrss


ENGINE_RATES = {
    "MCFDM": ("mcfdm_node_steps_per_s", DEFAULT_NODE_STEPS),
    "CFDM": ("cfdm_node_steps_per_s", DEFAULT_NODE_STEPS),
    "MonteCarlo": ("mc_path_steps_per_s", DEFAULT_PATH_STEPS),
}


def _sample_engine_rates(table_rows: list[Row], res: RoundResult) -> None:
    """One rate sample per table row, from the solve time the row reports."""
    for r in table_rows:
        if r.method in ENGINE_RATES and r.error is None:
            name, work = ENGINE_RATES[r.method]
            res.sample(name, work / r.elapsed)


def _contract(c: Contract, maturity: float) -> OptionContract:
    return OptionContract(kind=OptionKind(c.kind), strike=c.strike, maturity=maturity, spot=c.spot)


def _job(c: Contract, **kw) -> JobSpec:
    return JobSpec(kind=c.kind, spot=c.spot, strike=c.strike, rate=c.rate, vol=c.vol, **kw)


class CliCold:
    """Fresh-process CLI calls, one at a time: import and CLI overhead."""

    # (subcommand, kind, spot, strike, output format)
    SEQUENCE = (
        ("price", "call", 5.0, 5.5, "table"),
        ("price", "put", 7.0, 7.5, "json"),
        ("table", "call", 7.0, 7.5, "csv"),
        ("table", "put", 5.0, 5.5, "table"),
        ("theta-study", "call", 7.0, 7.5, "json"),
        ("theta-study", "put", 5.0, 5.5, "csv"),
    )
    # rows each subcommand prints, by method
    ROWS = {
        "price": {"MCFDM": 1, "CFDM": 1, "MonteCarlo": 1, "Exact": 1},
        "table": {"MCFDM": 3, "CFDM": 3, "MonteCarlo": 3, "Exact": 3},
        "theta-study": {"MCFDM": 3},
    }

    def prepare(self, seed: int) -> list[tuple[Contract, str, str, list[str]]]:
        rng = random.Random(seed)
        calls = []
        for sub, kind, spot, strike, fmt in self.SEQUENCE:
            c = Contract(kind, spot, strike, rng.choice(RATES), VOL)
            argv = [sys.executable, "-c", CLI_ENTRY, sub, "--kind", kind,
                    "--spot", repr(spot), "--strike", repr(strike), "--rate", repr(c.rate),
                    "--vol", repr(VOL), "--seed", str(rng.randrange(2**31)), "--format", fmt]
            if sub == "table":
                argv += ["--method", "all"]
            calls.append((c, sub, fmt, argv))
        return calls

    def counts(self) -> dict[str, int]:
        def rows(method: str) -> int:
            return sum(self.ROWS[sub].get(method, 0) for sub, *_ in self.SEQUENCE)

        return {
            "mean_convection.node_steps": rows("MCFDM") * DEFAULT_NODE_STEPS,
            "crank_nicolson.node_steps": rows("CFDM") * DEFAULT_NODE_STEPS,
            "monte_carlo.path_steps": rows("MonteCarlo") * DEFAULT_PATH_STEPS,
            "cli.rows": sum(sum(self.ROWS[sub].values()) for sub, *_ in self.SEQUENCE),
        }

    def run_round(self, calls, i: int, tracer) -> RoundResult:
        res = RoundResult()
        priced: list[Row] = []
        call_seconds = []
        for n, (c, sub, fmt, argv) in enumerate(calls):
            with tracer.span(f"cli.main[{sub}]"):
                code, out, seconds, rss_kb = run_child(argv, OUT / f"cli_cold.{n}.stderr")
            call_seconds.append(seconds)
            res.peak_rss_kb = max(res.peak_rss_kb, rss_kb)
            res.attempted += 1
            if code != 0:
                res.failed += 1
                continue
            parse, precision = checks.PARSERS[fmt]
            try:
                rows = parse(out)
            except (ValueError, KeyError, StopIteration) as exc:
                res.problems.append(f"{sub} --format {fmt}: output does not parse: {exc!r}")
                continue
            expected = sum(self.ROWS[sub].values())
            if len(rows) != expected:
                res.problems.append(f"{sub}: {len(rows)} rows, expected {expected}")
            res.problems += checks.check_rows(rows, c, precision)
            priced += rows
        wall = sum(call_seconds)
        res.sample("cli_call_s", wall / len(call_seconds))
        res.sample("rows_per_s", len(priced) / wall)
        # the engines are a small share of a cold call, and a row's own
        # elapsed_seconds in a fresh process varies too much to sample:
        # here a rate is the work the round's calls printed over their
        # wall time, what a user waiting on the CLI gets
        for method, (name, work) in ENGINE_RATES.items():
            done = sum(r.method == method and r.error is None for r in priced)
            res.sample(name, done * work / wall)
        return res


class PaperStudy:
    """The paper's strike and rate study in one warm process."""

    STRIKES = (6.0, 6.5, 7.0, 7.5, 8.0)
    ROWS = 2 * (4 * len(MATURITIES) + len(SCALINGS))

    def prepare(self, seed: int) -> list[tuple[float, float, int]]:
        rng = random.Random(seed)
        ladder = [(k, r, rng.randrange(2**31)) for k in self.STRIKES for r in RATES]
        rng.shuffle(ladder)
        # warm every engine and renderer once before timed work
        warm = Contract("call", 5.0, 5.5, 0.05, VOL)
        run_table(MATURITIES, _job(warm)).to_json()
        run_theta_study(SCALINGS, _job(warm)).to_json()
        price_monte_carlo(
            _contract(warm, 1.0), MarketParams(r=warm.rate, sigma=VOL), McConfig(), n_workers=2
        )
        return ladder

    def counts(self) -> dict[str, int]:
        return {
            "mean_convection.node_steps": 2 * (len(MATURITIES) + len(SCALINGS)) * DEFAULT_NODE_STEPS,
            "crank_nicolson.node_steps": 2 * len(MATURITIES) * DEFAULT_NODE_STEPS,
            "monte_carlo.path_steps": (2 * len(MATURITIES) + 1) * DEFAULT_PATH_STEPS,
            "cli.rows": self.ROWS,
        }

    def run_round(self, ladder, i: int, tracer) -> RoundResult:
        strike, rate, mc_seed = ladder[i % len(ladder)]
        res = RoundResult()
        n_rows = 0
        call_seconds = []
        mc_row = None
        for kind in ("call", "put"):
            c = Contract(kind, SPOT, strike, rate, VOL)
            job = _job(c, seed=mc_seed)
            start = time.perf_counter()
            with tracer.span("cli.run_table"):
                table = run_table(MATURITIES, job)
            with tracer.span("cli.render_json"):
                table_json = table.to_json()
            mid = time.perf_counter()
            with tracer.span("cli.run_theta_study"):
                theta = run_theta_study(SCALINGS, job)
            with tracer.span("cli.render_json"):
                theta_json = theta.to_json()
            call_seconds += [mid - start, time.perf_counter() - mid]
            with tracer.span("check"):
                rows = checks.rows_from_json(table_json)
                theta_rows = checks.rows_from_json(theta_json)
                res.add_rows(rows, checks.check_rows(rows, c))
                res.add_rows(theta_rows, checks.check_rows(theta_rows, c))
                plain = [r for r in rows if r.method == "MCFDM" and r.maturity == 1.0]
                neutral = [r for r in theta_rows if r.k == 1.0]
                res.problems += checks.check_equal(
                    plain[0].price, neutral[0].price, f"theta k=1 against MCFDM {c}"
                )
            n_rows += len(rows) + len(theta_rows)
            _sample_engine_rates(rows, res)
            if kind == "call":
                mc_row = next(r for r in rows if r.method == "MonteCarlo" and r.maturity == 1.0)
        # the call's T=1 Monte Carlo row again, on two worker threads
        c = Contract("call", SPOT, strike, rate, VOL)
        with tracer.span("monte_carlo.price_monte_carlo[n_workers=2]"):
            two = price_monte_carlo(
                _contract(c, 1.0),
                MarketParams(r=rate, sigma=VOL),
                McConfig(n_paths=100_000, seed=mc_seed, n_time_steps=1),
                n_workers=2,
            )
        res.attempted += 1
        res.problems += checks.check_equal(mc_row.price, two.price, f"MC price at 1 and 2 workers {c}")
        res.problems += checks.check_equal(mc_row.se, two.extra["se"], f"MC se at 1 and 2 workers {c}")
        res.sample("cli_call_s", sum(call_seconds) / len(call_seconds))
        res.sample("rows_per_s", n_rows / sum(call_seconds))
        return res


class LongMarch:
    """A few long solves: work per node-step and per path-step."""

    # strikes on a node of every rung: s_max = 28 puts nodes at multiples of
    # 0.28, 0.14 and 0.07, so spot 7 and each strike sit on a node and the
    # observed order is the scheme's, not interpolation noise
    S_MAX = 28.0
    STRIKES = (6.16, 6.44, 6.72, 7.0, 7.28, 7.56, 7.84)
    # the ladder stops at 400 nodes (10.5k levels) and Monte Carlo runs two
    # blocks of paths, so that a round takes about 1.3 s: a 40 s run then
    # holds some 30 rounds to take its quartiles over, where an 800-node
    # rung (42k levels, 3.7 s of Crank-Nicolson) would leave six or seven
    RUNGS = (100, 200, 400)
    MC_PATHS = 8192
    MC_STEPS = 1000

    @staticmethod
    def n_time(n_space: int) -> int:
        """Time levels 5% above the stability bound at the highest rate.

        The explicit bound is dt <= 1 / (vol^2 (n-1)^2 + r (n-1) + r) for
        T = 1; using n and the top rate keeps the work per rung the same
        for every contract.
        """
        r = max(RATES)
        return int(1.05 * (VOL**2 * n_space**2 + r * n_space + r)) + 1

    def grids(self) -> list[tuple[int, int]]:
        return [(n, self.n_time(n)) for n in self.RUNGS]

    def prepare(self, seed: int) -> list[tuple[Contract, int]]:
        rng = random.Random(seed)
        ladder = [
            (Contract(kind, SPOT, k, r, VOL), rng.randrange(2**31))
            for kind in ("call", "put") for k in self.STRIKES for r in RATES
        ]
        rng.shuffle(ladder)
        warm = ladder[0][0]
        for method in ("MCFDM", "CFDM"):
            run_convergence([(50, 200), (100, 700)], _job(warm, method=method, s_max=self.S_MAX))
        price_monte_carlo(
            _contract(warm, 1.0), MarketParams(r=warm.rate, sigma=VOL),
            McConfig(n_paths=4096, seed=1, n_time_steps=10),
        )
        return ladder

    def counts(self) -> dict[str, int]:
        node_steps = sum((n - 1) * nt for n, nt in self.grids())
        return {
            "mean_convection.node_steps": node_steps,
            "crank_nicolson.node_steps": node_steps,
            "monte_carlo.path_steps": self.MC_PATHS * self.MC_STEPS,
            "cli.rows": 2 * len(self.RUNGS),
        }

    def run_round(self, ladder, i: int, tracer) -> RoundResult:
        c, mc_seed = ladder[i % len(ladder)]
        res = RoundResult()
        grids = self.grids()
        node_steps = sum((n - 1) * nt for n, nt in grids)
        call_seconds = []
        for method, name in (("MCFDM", "mcfdm_node_steps_per_s"), ("CFDM", "cfdm_node_steps_per_s")):
            start = time.perf_counter()
            with tracer.span(f"cli.run_convergence[{method}]"):
                report = run_convergence(grids, _job(c, method=method, s_max=self.S_MAX))
            seconds = time.perf_counter() - start
            call_seconds.append(seconds)
            res.sample(name, node_steps / seconds)
            with tracer.span("check"):
                rows = checks.rows_from_report(report)
                res.add_rows(rows, checks.check_rows(rows, c) + checks.check_order(rows, f"{method} {c}"))
        res.sample("cli_call_s", sum(call_seconds) / len(call_seconds))
        res.sample("rows_per_s", 2 * len(grids) / sum(call_seconds))
        start = time.perf_counter()
        with tracer.span("monte_carlo.price_monte_carlo"):
            mc = price_monte_carlo(
                _contract(c, 1.0), MarketParams(r=c.rate, sigma=VOL),
                McConfig(n_paths=self.MC_PATHS, seed=mc_seed, n_time_steps=self.MC_STEPS),
            )
        res.sample("mc_path_steps_per_s", self.MC_PATHS * self.MC_STEPS / (time.perf_counter() - start))
        row = Row("MonteCarlo", 1.0, mc.price, mc.abs_error, se=mc.extra["se"], elapsed=mc.elapsed_seconds)
        res.add_rows([row], checks.check_rows([row], c))
        return res


WORKLOADS = {"cli_cold": CliCold(), "paper_study": PaperStudy(), "long_march": LongMarch()}
