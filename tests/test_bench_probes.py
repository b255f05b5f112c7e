"""The benchmark's per-layer probes measure every metric against this checkout.

A probe that fails, say because a function it calls changed its name or
what it returns, reports its metrics as unmeasured and the benchmark run
goes on; this test fails instead, before a traced run would show it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers
from tracing import NullTracer


def test_every_probe_measures_every_metric():
    metrics, unmeasured = layers.probe_all(NullTracer())
    assert unmeasured == {}
    assert set(metrics) == {name for names in layers.PROBES.values() for name in names}
