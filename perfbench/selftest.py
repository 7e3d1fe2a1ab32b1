"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` lists exactly the workloads of ``workloads.py`` and
   the metrics (names and units) of ``metrics.py``.
2. Generator self-test: the same seed gives identical specs; another
   seed gives different specs of the same shape.
3. Smoke mode: every workload runs one short job with ``--trace 0`` and
   ``--trace 1``; the printed metric names and units must match
   ``BENCHMARK.json``, the gate must pass, and the traced run must yield
   every per-layer metric that is live on that workload (``LIVE``) as a
   positive number.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from metrics import END_TO_END, LIVE, PER_LAYER  # noqa: E402
from workloads import (WORKLOADS, canonical, job_shape,  # noqa: E402
                       mesoscale_check_job)

JOBS_COMPARED = 30


def check_manifest(errors: list[str]) -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in doc["workloads"]]
    if names != list(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in doc[key]}
        if listed != table:
            errors.append(f"BENCHMARK.json {key} differs from metrics.py: "
                          f"{sorted(set(listed.items()) ^ set(table.items()))}")


def check_generators(errors: list[str]) -> None:
    for name, wl in WORKLOADS.items():
        a = list(itertools.islice(wl.jobs(1), JOBS_COMPARED))
        again = list(itertools.islice(wl.jobs(1), JOBS_COMPARED))
        b = list(itertools.islice(wl.jobs(2), JOBS_COMPARED))
        if canonical(a) != canonical(again):
            errors.append(f"{name}: seed 1 gave different specs twice")
        if canonical(a) == canonical(b):
            errors.append(f"{name}: seeds 1 and 2 gave identical specs")
        if [job_shape(j) for j in a] != [job_shape(j) for j in b]:
            errors.append(f"{name}: seeds 1 and 2 gave different job shapes")
    if canonical(mesoscale_check_job(1)) != canonical(mesoscale_check_job(1)):
        errors.append("mesoscale check job is not deterministic")


def check_smoke(errors: list[str]) -> None:
    for name in WORKLOADS:
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--smoke"], cwd=ROOT, capture_output=True, text=True,
                timeout=300)
            where = f"{name} --trace {trace}"
            if out.returncode != 0:
                errors.append(f"{where}: exit {out.returncode}: "
                              f"{out.stderr[-500:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                errors.append(f"{where}: gate failed: {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != table:
                errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got.items()) ^ set(table.items()))}")
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    errors.append(f"{where}: {metric} = {value!r}")
                elif trace and metric in LIVE[name] and value <= 0:
                    errors.append(f"{where}: live metric {metric} = {value}")
            print(f"ok  {where}")


def main() -> int:
    errors: list[str] = []
    check_manifest(errors)
    check_generators(errors)
    check_smoke(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
