"""Benchmark of the mcfdm pricing engines and CLI.

Usage, from the root of the repository:

    python3 bench/run.py --workload paper_study --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see BENCHMARK.json and bench/README.md). The last line of standard
output is one JSON object: correct, attempted, failed and metrics. Results,
with every sample behind each metric, and trace files go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# fresh interpreters timed before the rounds, and as many again after them,
# so that the samples spread over the run
SETUP_REPEATS = 3


def slow_quartile(samples: list[float], better: str) -> float:
    """The quartile of a run's samples on the slow side: the upper quartile
    of a time, the lower quartile of a rate.

    The host this benchmark was tuned on switches between a slow state,
    where it spends most of its time, and spells up to 35 % faster. A
    run's median lands in whichever state held most of that run, and so
    jumps between runs; the slow-side quartile stays in the slow state
    unless three quarters of a run were fast.
    """
    if len(samples) < 2:
        return samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1 if better == "higher" else q3


def time_setup(name: str, seed: int) -> list[float]:
    """Wall times of fresh interpreters that import mcfdm and prepare the
    workload."""
    from workloads import child_env

    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; "
        f"workloads.WORKLOADS[{name!r}].prepare({seed})"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def run_rounds(workload, inputs, seconds: float, tracer, rounds: list) -> None:
    """Whole rounds until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        with tracer.span("round"):
            rounds.append(workload.run_round(inputs, i, tracer))
        i += 1
        if time.perf_counter() >= deadline:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mcfdm" / "__init__.py").is_file():
        print(f"error: no mcfdm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import layers
    from tracing import NullTracer, Tracer
    from workloads import OUT, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    samples: dict[str, list[float]] = {}
    if not args.trace:
        samples["setup_s"] = time_setup(args.workload, args.seed)
    inputs = workload.prepare(args.seed)
    rounds: list = []
    if args.trace:
        # round 0 once untraced, then traced: the difference is the overhead
        start = time.perf_counter()
        rounds.append(workload.run_round(inputs, 0, NullTracer()))
        untraced_s = time.perf_counter() - start
        tracer = Tracer()
        run_rounds(workload, inputs, args.seconds, tracer, rounds)
        first = next(s for s in tracer.spans if s["name"] == "round")
        values = {"trace.overhead_s": (first["end"] - first["start"]) - untraced_s}
        values.update(workload.counts())
        probed, unmeasured = layers.probe_all(tracer)
        values.update(probed)
        wanted = spec["per_layer"]
    else:
        run_rounds(workload, inputs, args.seconds, NullTracer(), rounds)
        samples["setup_s"] += time_setup(args.workload, args.seed)
        for r in rounds:
            for name, v in r.samples.items():
                samples.setdefault(name, []).extend(v)
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        values = {name: slow_quartile(v, better[name]) for name, v in samples.items()}
        if args.workload == "cli_cold":
            peak_kb = max(r.peak_rss_kb for r in rounds)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values["peak_rss_mb"] = peak_kb / 1024.0
        unmeasured = {}
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            unmeasured.setdefault(m["name"], "not produced by this run")
    problems = [p for r in rounds for p in r.problems]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        tracer.write(OUT / f"trace-{stem}.json", metrics=metrics, unmeasured=unmeasured)
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**result, "rounds": len(rounds), "samples": samples}) + "\n", encoding="utf-8"
    )

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for name, why in unmeasured.items():
        print(f"unmeasured: {name} ({why})")
    print(f"workload {args.workload}: {len(rounds)} rounds, "
          f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
