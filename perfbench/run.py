#!/usr/bin/env python3
"""zfpkit benchmark: one workload per run, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; zfpkit is imported from ``src/`` of the same
checkout.  The run repeats passes over the workload's operations for
``--seconds`` seconds (at least one whole pass), checks every output outside
the timed intervals, prints a readable report and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs whole
traced passes (see tracing.py), each operation right after an untraced call
of it, and reports per-layer self times and exact counts per pass, plus the
tracing overhead: the median over operations of traced top-level call time
over untraced call time, minus one.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
TRACE_DIR = ROOT / ".perfbench"
WORKLOADS = ("codec-f64-wide", "codec-f32-narrow", "bound-sweep", "reference-verify")
SETUP_PROBES = 5  # fresh-interpreter set-ups per run
# Median calibrate() seconds on the machine the baseline was taken on (2 vCPU,
# Python 3.11).  Every timing is scaled by CAL_REF_S / (calibration time around
# it), so the reported figures are seconds at that machine's reference speed.
CAL_REF_S = 0.0036

# name -> (unit, better); what --trace 0 prints in its JSON line.  Two more
# figures are printed but not gated, because no run-to-run bound can hold
# them: failed_ops is 0 on a correct program, and bound_slack_max is a maximum
# over random blocks that moves by 10-70% from seed to seed (it is reported
# per layer by --trace 1, and a block over the bound fails the run).
END_TO_END = {
    "compress_MBps": ("MB/s", "higher"),
    "decompress_MBps": ("MB/s", "higher"),
    "compression_ratio": ("ratio", "higher"),
    "sweep_trials_per_s": ("trials/s", "higher"),
    "grid_analysis_MBps": ("MB/s", "higher"),
    "ref_blocks_per_s": ("blocks/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_MB": ("MB", "lower"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs are for the smoke test")
    ap.add_argument("--inject", choices=("none", "corrupt-container", "perturb-output"),
                    default="none", help="damage every timed output, to test the checks")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up seconds and exit")
    return ap.parse_args(argv)


def import_program():
    """Import zfpkit from this checkout's src/ and the benchmark's own modules."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import zfpkit
    if Path(zfpkit.__file__).resolve().parent != ROOT / "src" / "zfpkit":
        raise ImportError(f"zfpkit imported from {zfpkit.__file__}, not from this checkout")
    import workloads
    return workloads


def setup(args):
    """Import, generate the seeded inputs and fill the codec's caches."""
    t0 = perf_counter()
    wl = import_program()
    ops = wl.build(args.workload, args.seed, args.size)
    wl.warm_up(ops)
    return wl, ops, perf_counter() - t0


def setup_probes(args) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh interpreters: (normalized, raw)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    norm, raw = [], []
    last = calibrate()
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        cal = calibrate()
        raw.append(float(res.stdout.split()[-1]))
        norm.append(raw[-1] * 2 * CAL_REF_S / (last + cal))
        last = cal
    return norm, raw


class _Cell:
    __slots__ = ("v", "e")

    def __init__(self, v, e):
        self.v = v
        self.e = e


def calibrate() -> float:
    """Seconds taken by a fixed piece of interpreter work that never calls zfpkit.

    The work mixes what the codec and the reference path spend their time
    on: multi-word integer arithmetic, small-object creation, tuple building,
    dict updates and a sort.  Timed next to every operation, it tracks how
    fast the machine runs at that moment; on a shared machine that drifts by
    tens of percent over minutes.
    """
    t0 = perf_counter()
    x = 0x5DEECE66D
    mask = (1 << 64) - 1
    cells = []
    for i in range(3000):
        x = (x * 6364136223846793005 + 1442695040888963407) & mask
        cells.append(_Cell(((x << 40) - (x >> 3)) >> 1, i & 7))
    words = tuple(c.v ^ (c.v >> c.e) for c in cells)
    counts: dict = {}
    for w in words:
        counts[w & 255] = counts.get(w & 255, 0) + 1
    sorted(words)
    return perf_counter() - t0


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# untraced run


def run_passes(ops, seconds: float, inject: str):
    """Repeat passes until the deadline.

    Returns (samples, raw samples, first outputs, checks, failures).  Samples
    and outputs are keyed by operation name: a companion that runs several
    times in a pass is one operation with more samples.  Each sample is
    scaled by the mean of the calibrations run just before and just after it
    (an operation with two timed phases calibrates between them too).
    """
    samples: dict = {}
    raw: dict = {}
    first: dict = {}
    checks = failures = 0
    deadline = perf_counter() + seconds
    last_cal = calibrate()
    i = 0
    while i < len(ops) or perf_counter() < deadline:
        op = ops[i % len(ops)]
        i += 1
        checks += 1
        cals = [last_cal]
        try:
            times, out = op.run(inject, pause=lambda: cals.append(calibrate()))
        except Exception:  # a failing call counts as a failed operation; the run goes on
            failures += 1
            print(f"error in {op.name}:\n{traceback.format_exc()}", file=sys.stderr)
            last_cal = calibrate()
            continue
        last_cal = calibrate()
        cals.append(last_cal)
        for j, (phase, dt) in enumerate(times.items()):
            raw.setdefault((op.name, phase), []).append(dt)
            samples.setdefault((op.name, phase), []).append(
                dt * 2 * CAL_REF_S / (cals[j] + cals[j + 1]))
        if op.name not in first:
            first[op.name] = out
        elif not op.same(out, first[op.name]):
            failures += 1
    return samples, raw, first, checks, failures


def throughput(ops, samples, kind: str, phase: str, work) -> dict | None:
    """Work over the sum of per-operation median times (quartiles likewise)."""
    done = [op for op in ops.values() if op.kind == kind and (op.name, phase) in samples]
    if not done:
        return None
    total = sum(work(op) for op in done)
    qs = [quartiles(samples[(op.name, phase)]) for op in done]
    return {
        "value": total / sum(q[1] for q in qs),
        "q1": total / sum(q[2] for q in qs),
        "q3": total / sum(q[0] for q in qs),
        "n": sum(len(samples[(op.name, phase)]) for op in done),
    }


def check_digests(wl, ops, first, args) -> tuple[int, int]:
    """Compare containers with the committed digests.

    The tiny seed-0 containers are checked on every run; the run's own
    containers (``first``: first outputs by operation name) when its seed is
    pinned.
    """
    table = json.loads(DIGESTS.read_text())
    checks = failures = 0
    expected = table.get(f"{args.workload}/tiny/0", {})
    for op in wl.unique(wl.build(args.workload, 0, "tiny")).values():
        if op.kind == "codec":
            checks += 1
            failures += wl.digest(op.run()[1][0]) != expected.get(op.name)
    expected = table.get(f"{args.workload}/{args.size}/{args.seed}")
    if expected is not None:
        for op in ops.values():
            if op.kind == "codec":
                checks += 1
                failures += op.name not in first or wl.digest(first[op.name][0]) != expected[op.name]
    return checks, failures


def check_outputs(wl, ops, first, args):
    """Exact checks of every operation's first output, then the digests.

    Returns (checks, failures, slack).  ``slack`` is the exact maximum of
    block error / K_beta over the main operations' outputs, or over the
    companions' where the main operations carry no bound.
    """
    checks = failures = 0
    slack = {}
    for name, out in first.items():
        n, bad, s = ops[name].check(out)
        checks += n
        failures += bad
        if s is not None:
            slack[name] = s
    c, f = check_digests(wl, ops, first, args)
    main = [s for name, s in slack.items() if ops[name].main] or list(slack.values())
    return checks + c, failures + f, max(main) if main else None


def end_to_end(wl, ops, args):
    samples, raw, first, checks, failures = run_passes(ops, args.seconds, args.inject)
    ops = wl.unique(ops)
    c, f, slack = check_outputs(wl, ops, first, args)
    checks += c
    failures += f
    setups, raw_setups = setup_probes(args)

    rates = {
        "compress_MBps": ("codec", "compress", lambda o: o.bytes / wl.MB),
        "decompress_MBps": ("codec", "decompress", lambda o: o.bytes / wl.MB),
        "sweep_trials_per_s": ("sweep", "sweep", lambda o: o.trials),
        "grid_analysis_MBps": ("grid", "analyze", lambda o: o.bytes / wl.MB),
        "ref_blocks_per_s": ("ref", "verify", lambda o: len(o.blocks)),
    }
    stats = {}
    for name, (kind, phase, work) in rates.items():
        stats[name] = throughput(ops, samples, kind, phase, work)
        if stats[name]:
            stats[name]["raw"] = throughput(ops, raw, kind, phase, work)["value"]
    codec = [op for op in ops.values() if op.kind == "codec" and op.name in first]
    raw_bytes = sum(op.bytes for op in codec)
    packed = sum(len(first[op.name][0]) for op in codec)
    stats["compression_ratio"] = {"value": raw_bytes / packed if packed else None,
                                  "note": f"{raw_bytes} raw bytes / {packed} container bytes"}
    q1, med, q3 = quartiles(setups)
    stats["setup_s"] = {"value": med, "q1": q1, "q3": q3, "n": len(setups),
                        "raw": quartiles(raw_setups)[1]}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    stats["peak_rss_MB"] = {"value": rss, "note": "ru_maxrss of the benchmark process"}
    metrics = {}
    for name, (unit, _) in END_TO_END.items():
        st = stats[name] or {"value": None}
        metrics[name] = {"value": st["value"], "unit": unit}
        extra = ""
        if "n" in st:
            extra = (f"  [q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n={st['n']}  "
                     f"unscaled {st['raw']:.6g}]")
        elif "note" in st:
            extra = f"  [{st['note']}]"
        value = "n/a" if st["value"] is None else f"{st['value']:.6g}"
        print(f"  {name:<20} {value:>12} {unit}{extra}")
    value = "n/a" if slack is None else f"{float(slack):.6g}"
    print(f"  {'bound_slack_max':<20} {value:>12} ratio  [exact max of block error / K_beta; "
          "not gated]")
    print(f"  {'failed_ops':<20} {failures / checks:>12.6g} share  "
          f"[{failures} of {checks} checks failed; not gated]")
    return checks, failures, metrics


# ---------------------------------------------------------------------------
# traced run


def traced(wl, ops, args):
    import tracing

    tracer = tracing.Tracer()
    counts = tracing.Counts()
    first = {}
    ratios = []
    passes = 0
    deadline = perf_counter() + args.seconds
    while passes == 0 or perf_counter() < deadline:
        for idx, op in enumerate(ops):
            # the untraced call right before the traced one gives the tracing overhead
            times, out = op.run()
            first.setdefault(op.name, out)
            start = len(tracer.spans)
            tracer.op = idx
            try:
                tracing.TRACED[op.kind](op, tracer, counts)
            except Exception:  # a failing call counts as a failed operation; the run goes on
                counts.check(False)
                print(f"error in {op.name}:\n{traceback.format_exc()}", file=sys.stderr)
            top = sum(end - begin for name, begin, end, _, _ in tracer.spans[start:]
                      if name in tracing.TOP_LEVEL)
            ratios.append(top / sum(times.values()))
        passes += 1
    c, f, slack = check_outputs(wl, wl.unique(ops), first, args)
    overhead_pct = 100.0 * (statistics.median(ratios) - 1.0)
    metrics = tracing.layer_metrics(tracer, counts, passes, overhead_pct, slack)
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-{args.size}-{args.seed}.csv.gz"
    tracer.write_csv(path)
    for name, m in metrics.items():
        derived = "  (derived)" if name in tracing.DERIVED else ""
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}{derived}")
    print(f"  {passes} traced passes, {len(tracer.spans)} spans written to "
          f"{path.relative_to(ROOT)}")
    return counts.checks + c, counts.failures + f, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl, ops, setup_s = setup(args)
    except ImportError as e:
        print(f"cannot import the program: {e}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(f"{setup_s:.9f}")
        return 0
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {wl.WHY[args.workload]}")
    for op in wl.unique(ops).values():
        print(f"  input {'main' if op.main else 'companion'} {wl.describe(op)}")
    if args.trace:
        attempted, failed, metrics = traced(wl, ops, args)
    else:
        attempted, failed, metrics = end_to_end(wl, ops, args)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
