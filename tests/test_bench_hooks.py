"""The benchmark's tracer patches functions of the package by module and
name (perfbench/spans.py), and reads facts off their arguments and
results.  A function it names that no longer exists, or a result that
lost an attribute a fact reads, makes every metric that depends on it
absent instead of failing the run, so these tests fail first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("perfbench_spans", SPANS)


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


@pytest.mark.parametrize("workload", ["nk-fixture", "switch-on", "sphere-steady", "full-wave"])
def test_traced_pass_reads_every_fact(workload, tmp_path):
    spans = _load_spans()
    run, check, _ = _load("perfbench_workloads", PERFBENCH / "workloads.py").WORKLOADS[workload]
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = tracer.root(lambda: run(tmp_path))
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    assert tracer.broken_facts == set()
    assert check(tmp_path, result)[0] <= 1.0
