"""Pipeline benchmark for lsepkit: four workloads, each in a fresh process.

    python3 perfbench/run.py --workload nk-fixture --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # all four, order shuffled by seed

Run it from anywhere; it measures the ``src`` tree next to this
directory.  With ``--trace 0`` it reports the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  A full
record (environment, every pass, absent metrics) goes to
``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import CALIBRATION_REF_S, burst
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_SAMPLES = 7
# One pass at a time on one BLAS thread: the plain single-threaded
# baseline, and the steadiest on a small shared machine.
BLAS_THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
# One invocation must end within 180 s; leave room for set-up and output.
DEADLINE_S = 175.0
IMPORT_PROBE = (
    "import time, lsepkit.cli; "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC)); print(lsepkit.cli.__file__)"
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(BLAS_THREADS)
    return env


def measure_setup(env: dict) -> dict:
    """Seconds from spawning a fresh interpreter to a finished import of
    lsepkit.cli.  The first, untimed import compiles the bytecode cache.

    Like a pass, each import is scaled by the calibration kernel timed
    just before and after it (worker.py): the import is interpreter work,
    and its raw time follows the machine's speed phases.
    """
    samples, scaled, bursts = [], [], []
    for i in range(SETUP_SAMPLES + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"import lsepkit.cli failed:\n{proc.stderr}")
        done, path = proc.stdout.split("\n", 1)
        if Path(path.strip()).resolve() != (SRC / "lsepkit" / "cli.py").resolve():
            raise BenchError(f"lsepkit.cli imported from {path.strip()}, not {SRC}")
        bursts.append(burst())
        if i:
            samples.append(float(done) - start)
            scaled.append(samples[-1] * CALIBRATION_REF_S
                          / statistics.median(bursts[-2] + bursts[-1]))
    return {"value": statistics.median(scaled), "samples_s": samples,
            "scaled_s": scaled, "calibration_s": bursts}


def run_worker(name: str, seconds: float, trace: int, env: dict, spans: Path, timeout: float):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
           "--seconds", str(seconds), "--trace", str(trace), "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{name}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """(rank, value) of the highest order statistic with ten passes above it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * k / (n - 1), sorted(values)[k]


def measure(name: str, seed: int, seconds: float, trace: int, deadline: float,
            setup: dict | None) -> dict:
    """Run one workload; ``setup`` is measure_setup()'s record (None when traced)."""
    env = child_env()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    timeout = deadline - time.monotonic()
    record = run_worker(name, seconds, trace, env, RESULTS / f"{stem}-spans.jsonl", timeout)
    passes = [record["warmup"], *record["passes"]]
    failed = sum(not p["ok"] for p in passes)
    plain = [p for p in record["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    if trace:
        metrics = record["layer_metrics"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["scaled_s"] for p in plain), "unit": "s"},
            "setup_s": {"value": setup["value"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mib"], "unit": "MiB"},
        }
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
    }
    full = {
        "workload": name,
        "environment": {**environment(seed), "versions": record["versions"]},
        "pass_counts": {"warmup": 1, "measured": len(walls),
                        "traced": sum(p["traced"] for p in record["passes"])},
        "setup": setup,
        "wall_fastest_s": min(walls),
        "wall_median_s": statistics.median(walls),
        "wall_high_percentile": high_percentile(walls),
        "fail_ratio": failed / len(passes),
        "result": result,
        **{k: v for k, v in record.items() if k not in ("layer_metrics", "workload")},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    report(full)
    return result


def report(full: dict) -> None:
    result = full["result"]
    counts = full["pass_counts"]
    print(f"{full['workload']}: seed {full['environment']['seed']}, closed loop with one "
          f"client, {counts['measured']} untraced and {counts['traced']} traced passes "
          f"after 1 warm-up")
    for metric, m in result["metrics"].items():
        note = ""
        if metric == "wall_s":
            tail = full["wall_high_percentile"]
            kind = "calibrated passes; unscaled:" if full["calibrated"] else "passes:"
            note = (f"median of {counts['measured']} {kind} median "
                    f"{full['wall_median_s']:.6g} s, fastest {full['wall_fastest_s']:.6g} s, "
                    + (f"p{tail[0]:.0f} {tail[1]:.6g} s" if tail
                       else "no percentile has ten passes beyond it"))
        elif metric == "setup_s":
            raw = full["setup"]["samples_s"]
            note = (f"median of {len(raw)} calibrated fresh interpreters; "
                    f"unscaled median {statistics.median(raw):.6g} s")
        print(f"  {metric:36s} {m['value']:>14.6g} {m['unit']:6s} {note}")
    for metric, why in full.get("absent", {}).items():
        print(f"  {metric:36s} {'absent':>14s}        {why}")
    print(f"  {'fail_ratio':36s} {full['fail_ratio']:>14.6g} {'ratio':6s} "
          f"{result['failed']} of {result['attempted']} passes failed")
    failures = [p for p in [full["warmup"], *full["passes"]] if not p["ok"]]
    for p in failures[:3]:
        print(f"  failed pass: {p['worst']} (deviation {p['max_dev']:.3g} x tolerance)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "lsepkit" / "cli.py").is_file():
        print(f"error: no lsepkit sources at {SRC}", file=sys.stderr)
        return 2
    try:
        # set-up does not depend on the workload: one measurement per invocation
        setup = None if args.trace else measure_setup(child_env())
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds, args.trace, deadline,
                             setup)
        else:
            # the seed only decides the order in which the workloads run
            order = random.Random(args.seed).sample(list(WORKLOADS), len(WORKLOADS))
            results = {}
            for name in order:
                start = time.monotonic()
                results[name] = measure(name, args.seed, args.seconds, args.trace,
                                        start + DEADLINE_S, setup)
            metrics = {f"{name}.{metric}": m for name, r in results.items()
                       for metric, m in r["metrics"].items() if metric != "setup_s"}
            if setup is not None:
                metrics["setup_s"] = {"value": setup["value"], "unit": "s"}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
