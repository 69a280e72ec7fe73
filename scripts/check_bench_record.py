"""Check the record a perfbench run prints as its last line of output.

    python3 perfbench/run.py --workload all --trace 0 --seconds 1 > bench.txt
    python3 scripts/check_bench_record.py bench.txt
    python3 perfbench/run.py --workload all --trace 1 --seconds 1 > bench.txt
    python3 scripts/check_bench_record.py bench.txt

The line must be strict JSON (no NaN or Infinity) and report a correct
run.  An untraced record (one that carries ``setup_s``) must hold
``<workload>.wall_s`` and ``<workload>.peak_rss_mb`` for each workload of
BENCHMARK.json, a traced one every per-layer metric that BENCHMARK.json
declares as ``<workload>.<metric>``.  Exits 1 and names each problem
otherwise.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reject(constant):
    raise ValueError(f"not strict JSON: {constant}")


def main(argv) -> int:
    lines = Path(argv[1]).read_text().splitlines()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        record = json.loads(lines[-1] if lines else "", parse_constant=_reject)
    except ValueError as exc:
        print(f"last line: {exc}", file=sys.stderr)
        return 1
    problems = [] if record.get("correct") is True else [f"correct is {record.get('correct')!r}"]
    metrics = record.get("metrics", {})
    names = ["wall_s", "peak_rss_mb"] if "setup_s" in metrics else [
        m["name"] for m in benchmark["per_layer"]
    ]
    problems += [
        f"missing {name}"
        for name in (f"{w['name']}.{m}" for w in benchmark["workloads"] for m in names)
        if name not in metrics
    ]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
