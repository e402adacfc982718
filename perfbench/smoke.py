#!/usr/bin/env python3
"""Smoke test of the benchmark on tiny inputs, including its output checks.

    python3 perfbench/smoke.py

For every workload of BENCHMARK.json, in both modes, run.py must end with a
well-formed result line that names every declared metric with its unit and
reports no failed check.  Then outputs are damaged on purpose (a corrupted
container, a perturbed decompressed value) and each damage must be counted in
``failed``.  Exits non-zero if anything is wrong.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(*args: str) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--size", "tiny", "--seconds", "0.2",
           "--seed", "0", *args]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run("--workload", workload, "--trace", str(trace))
            where = f"{workload} --trace {trace}"
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics/units differ: {sorted(set(got.items()) ^ set(want.items()))}")
            for name, m in result["metrics"].items():
                value = m.get("value")
                if isinstance(value, bool) or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{where}: {name} value {value!r} is not a finite number")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: checks failed: {result['failed']} of {result['attempted']}")
    for inject in ("corrupt-container", "perturb-output"):
        for workload in ("codec-f32-narrow", "reference-verify"):
            result = run("--workload", workload, "--trace", "0", "--inject", inject)
            if result["correct"] or result["failed"] < 1:
                problems.append(f"{workload} --inject {inject}: damage not counted in failed")
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
