"""The benchmark's traced run reads spans by the names of czfkit's public
functions and methods (``perfbench/tracing.py``), and the per-layer metrics
it reports are declared in ``BENCHMARK.json``.  A change that renames or
moves what a span is read from breaks the traced run; this test catches it
in the main suite."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_metrics_find_every_span_they_read():
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics = tracing.layer_metrics(tracer, 1.0)
    finally:
        tracer.uninstall()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # the worker adds the overhead ratio, from two runs
    assert set(metrics) | {"trace_overhead_ratio"} \
        == {m["name"] for m in declared}
    assert len(metrics) == 48
