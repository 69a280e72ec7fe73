"""Capture the reference outputs that every benchmark pass is checked against.

Run once, at the commit that defines the benchmark, from the repo root:

    python3 perfbench/capture.py

It overwrites ``perfbench/reference/``.  Running it again at a later
commit would make the check compare that commit with itself.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, BLAS_THREADS, SRC

os.environ.update(BLAS_THREADS)  # before numpy loads, as in a benchmark worker
sys.path.insert(0, str(SRC))

from workloads import REFERENCE, WORKLOADS, full_wave_summary  # noqa: E402

KEEP = {
    "nk-fixture": ["extract-nk/nk.csv", "extract-nk/branches.csv"],
    "switch-on": ["transient/qabs_t.csv"],
    "sphere-steady": [
        "fit-permittivity/fitted_params.json",
        "qabs-spectrum/qabs.csv",
        "nearfield/field_map.csv",
        "lorentz/epsilon_lorentz.csv",
    ],
}


def main() -> None:
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="capture-", dir=BENCH / ".work"))
    try:
        for name, (run, _check, _calibrated) in WORKLOADS.items():
            target = REFERENCE / name
            target.mkdir(parents=True, exist_ok=True)
            out = work / name
            out.mkdir()
            result = run(out)
            for rel in KEEP.get(name, []):
                shutil.copyfile(out / rel, target / Path(rel).name)
            if name == "sphere-steady":
                lines = json.loads((out / "nearfield" / "streamlines.json").read_text())
                body = {"captured_count": lines["captured_count"]}
                (target / "streamlines.json").write_text(json.dumps(body) + "\n")
            if name == "full-wave":
                body = json.dumps(full_wave_summary(result), indent=1)
                (target / "criterion8.json").write_text(body + "\n")
            print(f"captured {name} -> {target}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
