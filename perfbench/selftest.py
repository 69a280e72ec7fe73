"""Self-test of the trace wrappers against the counts of the seed commit.

    python3 perfbench/selftest.py

Runs one traced pass of every workload in this process and asserts:

* the exact work counts of the commit that defined the benchmark: 303
  residual maps, 2,005 and 501 Mie samples, the 14,641-point field map,
  6,123 lab samples and 6,122 accepted ODE steps;
* that the self times of all spans in a pass add up to its wall time,
  timed outside the tracer, within the cost of installing it, and that
  time outside every layer span is under 1% of it;
* that a target missing from the package is reported absent;
* that a NaN in an output misses the reference check.

A later commit that changes how much work a layer does changes some of
these counts on purpose; the self-test then fails on exactly those.
Exit code 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import BLAS_THREADS, SRC

os.environ.update(BLAS_THREADS)  # before numpy loads, as in a benchmark worker
sys.path.insert(0, str(SRC))

# loads every module the tracer patches, so that installing it imports
# nothing inside a timed pass; fails here when the sources are missing
import lsepkit.cli  # noqa: E402,F401
from spans import ROOT, Tracer, layer_metrics, layer_self_times  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import REFERENCE, WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
# Allowed gap between the summed self times and the pass wall time: the
# tracer's install and uninstall, which run outside the root span.
INSTALL_ALLOWANCE_S = 0.005

# (metric or fact, expected) per workload; a fact list is checked whole.
EXPECTED = {
    "nk-fixture": {
        "film.grid_points": 303 * 681 * 641,
        "film.residual.calls": None,  # printed only: simplex evaluations vary
    },
    "switch-on": {"mie.qabs.samples": 2005, "mie.efficiencies.calls": 2005},
    "sphere-steady": {"mie.qabs.samples": 501},
    "full-wave": {
        "bloch.evolve_lab.samples": 6123,
        "numerics.ode.steps_accepted": 6122,
        "numerics.ode.steps_rejected": 0,
    },
}
EXPECTED_FACTS = {
    "nk-fixture": {"film.grid_points": [681 * 641] * 303},
    # the first field evaluation is the map; the rest are streamline probes
    "sphere-steady": {"mie.near_field_grid.points": (0, 121 * 121)},
}


def check_workload(name: str, work: Path) -> list[str]:
    run, check, _calibrated = WORKLOADS[name]
    tracer = Tracer()
    record, summary = run_pass(run, check, work / "out", tracer)
    problems = []
    if not record["ok"]:
        problems.append(f"pass failed: {record['worst']}")
    metrics, absent = layer_metrics(tracer, [summary])
    for metric, expected in EXPECTED[name].items():
        if metric in absent:
            print(f"  {metric}: absent ({absent[metric]})")
            continue
        got = metrics[metric]["value"]
        print(f"  {metric} = {got:g}" + ("" if expected is None else f" (expected {expected})"))
        if expected is not None and got != expected:
            problems.append(f"{metric} = {got}, expected {expected}")
    for fact, expected in EXPECTED_FACTS.get(name, {}).items():
        got = summary["facts"].get(fact, [])
        if isinstance(expected, tuple):
            index, value = expected
            ok = len(got) > index and got[index] == value
        else:
            ok = got == expected
        if not ok:
            problems.append(f"{fact}: per-call values {got[:5]}... do not match")
    layers = layer_self_times(summary)
    total = sum(layers.values())
    outside = layers.get(ROOT.split(".")[0], 0.0)
    wall = record["wall_s"]
    print(f"  wall {wall:.6f} s, layer self times "
          + ", ".join(f"{k} {v:.6f}" for k, v in sorted(layers.items())))
    if not 0.0 <= wall - total <= INSTALL_ALLOWANCE_S:
        problems.append(f"self times sum to {total:.6f} s, wall is {wall:.6f} s")
    if outside > 0.01 * wall:
        problems.append(f"{outside:.6f} s of the pass is outside every layer span")
    return problems


def check_absent_target() -> list[str]:
    import lsepkit.bloch

    original = lsepkit.bloch.integrate
    del lsepkit.bloch.integrate
    tracer = Tracer()
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        lsepkit.bloch.integrate = original
    empty = {"busy_s": {}, "self_s": {}, "calls": {}, "counts": {}, "facts": {}}
    metrics, absent = layer_metrics(tracer, [empty])
    want = {"numerics.ode.steps_accepted", "numerics.ode.steps_rejected"}
    if not want <= set(absent) or want & set(metrics):
        return [f"missing bloch.integrate not reported absent: {sorted(absent)}"]
    return []


def check_nan_output(work: Path) -> list[str]:
    """A NaN written into an output must fail the check, wherever it is."""
    _run, check, _calibrated = WORKLOADS["switch-on"]
    ref = REFERENCE / "switch-on" / "qabs_t.csv"
    with ref.open(newline="") as handle:
        rows = list(csv.reader(handle))
    problems = []
    # a physical efficiency, a roundoff-only slice, and an input column
    # whose reference is 0 (no allowance at all)
    for row, column in ((2, "Q_abs"), (1, "Q_abs"), (1, "time_fs")):
        out = work / f"nan-{row}-{column}"
        (out / "transient").mkdir(parents=True)
        bad = [list(r) for r in rows]
        bad[row][rows[0].index(column)] = "nan"
        with (out / "transient" / "qabs_t.csv").open("w", newline="") as handle:
            csv.writer(handle).writerows(bad)
        dev, where = check(out, None)
        if dev <= 1.0:
            problems.append(f"NaN in qabs_t.csv row {row} {column} passed the check")
    return problems


def main() -> int:
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=BENCH / ".work"))
    problems = []
    try:
        for name in WORKLOADS:
            print(name)
            problems += [f"{name}: {p}" for p in check_workload(name, work)]
        problems += check_nan_output(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems += check_absent_target()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
