#!/usr/bin/env python3
"""Write perfbench/digests.json: SHA-256 of every container the benchmark makes.

    python3 perfbench/record_digests.py

Run it only on a commit whose wire format is meant to be pinned; run.py then
requires byte-identical containers.  The tiny seed-0 inputs are checked on
every run whatever its seed; the full-size entries are checked when a run's
seed is one of PINNED_SEEDS.
"""

from __future__ import annotations

import json

from run import DIGESTS, WORKLOADS, import_program

PINNED_SEEDS = tuple(range(1, 21)) + (9001,)


def main() -> None:
    wl = import_program()
    table = {}
    for workload in WORKLOADS:
        for size, seeds in (("tiny", (0,)), ("full", PINNED_SEEDS)):
            for seed in seeds:
                table[f"{workload}/{size}/{seed}"] = {
                    op.name: wl.digest(wl.compress(op.grid, op.params))
                    for op in wl.unique(wl.build(workload, seed, size)).values()
                    if op.kind == "codec"}
                print(workload, size, seed, flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
