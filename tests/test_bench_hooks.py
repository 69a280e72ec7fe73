"""The benchmark's tracer patches functions of the package by module and
name (perfbench/spans.py).  A function it names that no longer exists
makes every metric that reads it absent instead of failing the run, so
this test fails first."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    targets = spans.SPAN_TARGETS + spans.COUNT_TARGETS
    originals = [getattr(importlib.import_module(m), a, None) for m, a, _ in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == set()
    finally:
        tracer.uninstall()
    restored = [getattr(importlib.import_module(m), a, None) for m, a, _ in targets]
    assert all(now is then for now, then in zip(restored, originals))
