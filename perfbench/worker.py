"""Run one workload in this fresh process and print its record as JSON.

run.py starts one worker per workload, with the checkout's ``src`` on
PYTHONPATH and the BLAS thread count pinned.  The loop is closed: one
client, each pass starting when the previous one ended.  After one
warm-up pass it runs passes until ``--seconds`` have gone by.  With
``--trace 1`` untraced and traced passes alternate, so the traced run
measures its own overhead.  Every pass, the warm-up included, is
checked against the reference outputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


# The calibration kernel runs in bursts of three between passes; each
# pass is scaled by the median of the bursts just before and after it.
CALIBRATION_BURST = 3
# Typical time of calibrate() on an idle core of the machine the
# benchmark was defined on (2-vCPU Intel Xeon virtual machine).
CALIBRATION_REF_S = 0.020


def calibrate() -> float:
    """Seconds for three fixed kernels of the kinds of work lsepkit does:
    a scalar interpreter loop, numpy calls on small arrays, and a sweep
    over an array larger than the caches.

    The program under test never runs this code, so its time tracks only
    how much of the machine a pass next to it got.
    """
    import numpy as np

    t0 = time.perf_counter()
    z = 0.3 + 0.1j
    for k in range(1, 30000):
        z = 1.0 / (z + k * 0.001) + 0.5j
    v = np.linspace(0.1, 1.0, 16) + 0.1j
    for _ in range(1000):
        v = np.sqrt(v * v + 0.5) / (1.0 + np.abs(v))
    np.exp(1j * np.linspace(0.0, 1.0, 250_000))
    return time.perf_counter() - t0


def burst() -> list[float]:
    return [calibrate() for _ in range(CALIBRATION_BURST)]


def run_pass(run, check, out_dir: Path, tracer=None) -> tuple[dict, dict | None]:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    record = {"traced": tracer is not None, "error": None}
    result = summary = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = run(out_dir)
        else:
            tracer.install()
            try:
                result = tracer.root(lambda: run(out_dir))
            finally:
                tracer.uninstall()
    except (Exception, SystemExit) as exc:  # a failed pass is counted, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["wall_s"] = time.perf_counter() - t0
    record["cpu_s"] = time.process_time() - cpu0
    if tracer is not None:
        summary = tracer.take_pass()
    if record["error"] is None:
        try:
            dev, where = check(out_dir, result)
        except Exception as exc:
            dev, where = float("inf"), f"check raised {type(exc).__name__}: {exc}"
    else:
        dev, where = float("inf"), record["error"]
    record["max_dev"] = min(dev, sys.float_info.max)
    record["worst"] = where
    record["ok"] = dev <= 1.0
    record["output_bytes"] = _output_bytes(out_dir)
    return record, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where to write the traced spans")
    args = parser.parse_args(argv)

    import lsepkit
    import numpy
    import scipy

    if Path(lsepkit.__file__).resolve().parent != SRC.resolve() / "lsepkit":
        print(f"error: lsepkit imported from {lsepkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer, layer_metrics, layer_self_times
    from workloads import WORKLOADS

    run, check, calibrated = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        # import every module the tracer patches now (full-wave never loads
        # lsepkit.cli), not inside the first traced pass
        tracer.install()
        tracer.uninstall()
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        warmup, _ = run_pass(run, check, work / "out")
        bursts = [burst()]
        passes, summaries = [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            record, summary = run_pass(run, check, work / "out", tracer if traced else None)
            bursts.append(burst())
            record["cal_s"] = statistics.median(bursts[-2] + bursts[-1])
            scale = CALIBRATION_REF_S / record["cal_s"] if calibrated else 1.0
            record["scaled_s"] = record["wall_s"] * scale
            passes.append(record)
            if summary is not None:
                summaries.append(summary)
            if time.perf_counter() >= deadline and len(passes) >= (2 if tracer else 1):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {
        "workload": args.workload,
        "warmup": warmup,
        "passes": passes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibrated": calibrated,
        "calibration_s": bursts,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "lsepkit": getattr(lsepkit, "__version__", "unknown"),
        },
    }
    if tracer is not None:
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        metrics, absent = layer_metrics(tracer, summaries)
        metrics.update({
            "cli.output_bytes": {
                "value": statistics.median(p["output_bytes"] for p in passes), "unit": "bytes"},
            "proc.cpu_s": {"value": statistics.median(p["cpu_s"] for p in plain), "unit": "s"},
            "check.max_dev": {
                "value": max(p["max_dev"] for p in [warmup, *passes]), "unit": "tol"},
            # scaled like wall_s, so machine speed changes cancel
            "trace.overhead_s": {
                "value": statistics.median(p["scaled_s"] for p in traced)
                - statistics.median(p["scaled_s"] for p in plain),
                "unit": "s",
            },
        })
        out["layer_metrics"] = metrics
        out["absent"] = absent
        out["layer_self_s"] = [layer_self_times(s) for s in summaries]
        if args.spans:
            with args.spans.open("w") as handle:
                for i, s in enumerate(summaries):
                    for row in s["spans"]:
                        handle.write(json.dumps([i, *row]) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
