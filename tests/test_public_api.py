"""The package's exports and the benchmark's per-layer spans all resolve."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import qperc

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves_once():
    assert [name for name, count in Counter(qperc.__all__).items() if count > 1] == []
    for name in qperc.__all__:
        assert hasattr(qperc, name), name


def test_every_benchmark_span_resolves():
    # benchmarks/tracing.py wraps these functions; a deleted one would
    # silently drop its per-layer metric.
    spec = importlib.util.spec_from_file_location(
        "_bench_tracing", ROOT / "benchmarks" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    for module, attr in tracing.SPANS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
