"""Traced run: spans around calls into each zfpkit layer, self times per layer.

Spans are recorded from the benchmark's own code around public calls; the
program is not instrumented.  Each operation first makes the same top-level
call the untraced run times (``compress``, ``decompress``, ``sweep``,
``analyze_grid``, ``pipeline_trace`` + ``roundtrip_ref``), then replays the
same input through the public stage functions that call composes, so that
every stage gets its own span.  Each replay is checked against the
top-level result, so the stage spans time the same work.
"""

from __future__ import annotations

import gzip
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import numpy as np

from zfpkit.bitvec import Dyadic, SignedBinary, fb_decode, shift
from zfpkit.bounds import rate_lower_bound
from zfpkit.codec import (
    DEFAULT_EXPONENT_BITS,
    CodecParams,
    NegaBlock,
    bitplane_truncate,
    block_fp_forward,
    block_fp_inverse,
    compress,
    compress_block,
    decode_planes,
    decompress,
    decompress_block,
    encode_planes,
    from_negabinary,
    partition,
    pipeline_trace,
    sequency_permute,
    sequency_unpermute,
    to_negabinary,
    transform_forward,
    transform_inverse,
    unpartition,
)
from zfpkit.codec import reference as ref
from zfpkit.experiments import (
    analyze_grid,
    applicable_bound_exact,
    gen_worst_case_block,
    measure,
    sweep,
    trial_rng,
)

from workloads import ref_mismatch


class Tracer:
    """In-memory spans: (name, start, end, parent index, op id)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = 0

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def write_csv(self, path) -> None:
        """Write the spans as gzip-compressed CSV."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


class Counts:
    """Exact per-pass counters gathered beside the spans."""

    def __init__(self):
        self.c: dict[str, int] = defaultdict(int)
        self.failures = 0
        self.checks = 0
        self.values = 0
        self.container_bits = 0
        self.floor_bits = Fraction(0)

    def check(self, ok: bool) -> None:
        self.checks += 1
        self.failures += not ok


def traced_codec(op, t: Tracer, n: Counts) -> None:
    p = op.params
    blob = t.call("stream.compress", compress, op.grid, p)
    out = t.call("stream.decompress", decompress, blob)
    # forward replay: partition -> block stages -> plane coder
    coded = []
    for values in t.call("blocks.partition", partition, op.grid):
        fp = t.call("pipeline.block_fp_forward", block_fp_forward, values, p)
        if fp.is_zero:
            nb = NegaBlock(fp.ints, None)
            n.c["blocks.zero_count"] += 1
        else:
            fp = t.call("pipeline.transform_forward", transform_forward, fp, p)
            fp = t.call("pipeline.sequency_permute", sequency_permute, fp, p)
            nb = t.call("pipeline.to_negabinary", to_negabinary, fp, p)
            nb = t.call("pipeline.bitplane_truncate", bitplane_truncate, nb, p)
        coded.append((nb, t.call("stream.encode_planes", encode_planes, nb, p)))
    n.c["blocks.count"] += len(coded)
    # inverse replay: plane decoder -> inverse stages -> unpartition
    blocks = []
    for nb, cb in coded:
        got = t.call("stream.decode_planes", decode_planes, cb, p)
        n.check(got == nb)
        if got.is_zero:
            blocks.append((0.0,) * p.n)
            continue
        fp = t.call("pipeline.from_negabinary", from_negabinary, got, p)
        fp = t.call("pipeline.sequency_unpermute", sequency_unpermute, fp, p)
        fp = t.call("pipeline.transform_inverse", transform_inverse, fp, p)
        blocks.append(t.call("pipeline.block_fp_inverse", block_fp_inverse, fp, p))
    replay = t.call("blocks.unpartition", unpartition, blocks, op.grid.shape)
    n.check(np.array_equal(replay, out))
    # exact container counts, from the digit masks rather than the coder's types
    record_bits = 0
    for nb, _ in coded:
        if nb.is_zero:
            record_bits += 1
            continue
        coded_planes = sum(
            1 for pos in range(p.q + 1, p.q + 1 - p.beta, -1)
            if any((u >> pos) & 1 for u in nb.digits))
        n.c["stream.coded_planes"] += coded_planes
        n.c["stream.empty_planes"] += p.beta - coded_planes
        record_bits += 1 + DEFAULT_EXPONENT_BITS + p.beta + coded_planes * p.n
    n.c["stream.payload_bits"] += record_bits
    n.values += op.grid.size
    n.container_bits += 8 * len(blob)
    n.floor_bits += op.grid.size * rate_lower_bound(p.beta, p.d, DEFAULT_EXPONENT_BITS)


def traced_sweep(op, t: Tracer, n: Counts) -> None:
    spec = op.spec
    cells, violators = t.call("experiments.sweep", sweep, spec, threads=1)
    for cell_index, rho, beta in spec.cells():
        p = CodecParams(spec.d, spec.k, spec.q, beta, allow_wide_beta=spec.allow_wide_beta)
        e_max = spec.e_min + rho
        bound = t.call("bounds.applicable_bound", applicable_bound_exact, p)
        worst = 0.0
        violations = 0
        for trial in range(spec.trials):
            rng = t.call("experiments.trial_rng", trial_rng, spec.seed, cell_index, trial)
            block = t.call("experiments.gen_worst_case_block", gen_worst_case_block,
                           spec.d, spec.e_min, e_max, rng, spec.float32)
            rec = t.call("experiments.measure", measure, block, p, e_min=spec.e_min,
                         e_max=e_max, seed=spec.seed, trial=trial, bound=bound)
            nb = t.call("pipeline.compress_block", compress_block, block, p)
            t.call("pipeline.decompress_block", decompress_block, nb, p)
            worst = max(worst, rec.err_block)
            violations += rec.violation
        cell = cells[cell_index]
        n.check(worst == cell.err_block_max and violations == cell.violations == 0)
        n.c["experiments.trials"] += spec.trials
        n.c["experiments.violations"] += cell.violations
    n.check(not violators)


def traced_grid(op, t: Tracer, n: Counts) -> None:
    rows = t.call("experiments.analyze_grid", analyze_grid, op.grid, op.k, op.q, op.betas)
    bad = sum(r.violations for r in rows)
    n.c["experiments.violations"] += bad
    n.check(bad == 0 and len(rows) == len(op.betas))


def _replay_ref(values, p: CodecParams, t: Tracer):
    """The stage sequence of ``roundtrip_ref``, one span per ``*_ref`` stage."""
    fp, e_max, ell = t.call("reference.block_fp_forward_ref", ref.block_fp_forward_ref, values, p)
    if e_max is None:
        return None
    transformed = t.call("reference.transform_forward_ref", ref.transform_forward_ref, fp, p)
    permuted = t.call("reference.sequency_permute_ref", ref.sequency_permute_ref, transformed, p)
    nega = t.call("reference.to_negabinary_ref", ref.to_negabinary_ref, permuted)
    truncated = t.call("reference.bitplane_truncate_ref", ref.bitplane_truncate_ref, nega, p)
    back = t.call("reference.from_negabinary_ref", ref.from_negabinary_ref, truncated)
    unpermuted = t.call("reference.sequency_unpermute_ref", ref.sequency_unpermute_ref, back, p)
    recovered = t.call("reference.transform_inverse_ref", ref.transform_inverse_ref, unpermuted, p)
    kept = t.call("reference.significand_truncate_ref",
                  lambda: [ref.significand_truncate_ref(sb, p.k) for sb in recovered])
    out = t.call("bitvec.fb_decode", lambda: tuple(
        Dyadic(0) if fl.is_zero else fb_decode(SignedBinary(fl.sign, shift(fl.magnitude, -ell)))
        for fl in kept))
    return ref.RefTrace(e_max, ell, fp, transformed, permuted, nega, truncated,
                        unpermuted, recovered, out)


def traced_ref(op, t: Tracer, n: Counts) -> None:
    for values, p in op.blocks:
        fast = t.call("pipeline.pipeline_trace", pipeline_trace, values, p)
        slow = t.call("reference.roundtrip_ref", ref.roundtrip_ref, values, p)
        replay = _replay_ref(values, p, t)
        bad = ref_mismatch(fast, slow)
        n.check(not bad and (slow.is_zero if replay is None else replay == slow))
        n.c["reference.blocks"] += 1
        n.c["reference.mismatches"] += bad


TRACED = {"codec": traced_codec, "sweep": traced_sweep, "grid": traced_grid, "ref": traced_ref}

# Per-layer metrics: name -> (unit, better).  Times are self seconds per pass
# over the workload's operations; counts are exact per pass.  Names ending in
# _s map to the span of the same name without the suffix, except the derived
# ones listed in DERIVED.
LAYER_METRICS = {
    "blocks.partition_s": ("s", "lower"),
    "blocks.unpartition_s": ("s", "lower"),
    "blocks.count": ("count", "higher"),
    "blocks.zero_count": ("count", "higher"),
    "pipeline.block_fp_forward_s": ("s", "lower"),
    "pipeline.transform_forward_s": ("s", "lower"),
    "pipeline.sequency_permute_s": ("s", "lower"),
    "pipeline.to_negabinary_s": ("s", "lower"),
    "pipeline.bitplane_truncate_s": ("s", "lower"),
    "pipeline.from_negabinary_s": ("s", "lower"),
    "pipeline.sequency_unpermute_s": ("s", "lower"),
    "pipeline.transform_inverse_s": ("s", "lower"),
    "pipeline.block_fp_inverse_s": ("s", "lower"),
    "pipeline.compress_block_s": ("s", "lower"),
    "pipeline.decompress_block_s": ("s", "lower"),
    "pipeline.pipeline_trace_s": ("s", "lower"),
    "stream.compress_s": ("s", "lower"),
    "stream.decompress_s": ("s", "lower"),
    "stream.encode_planes_s": ("s", "lower"),
    "stream.decode_planes_s": ("s", "lower"),
    "stream.record_write_s": ("s", "lower"),
    "stream.record_read_s": ("s", "lower"),
    "stream.payload_bits": ("bits", "lower"),
    "stream.coded_planes": ("count", "lower"),
    "stream.empty_planes": ("count", "higher"),
    "stream.bits_per_value": ("bits/value", "lower"),
    "stream.rate_over_floor": ("ratio", "lower"),
    "bounds.applicable_bound_s": ("s", "lower"),
    "experiments.sweep_s": ("s", "lower"),
    "experiments.trial_rng_s": ("s", "lower"),
    "experiments.gen_worst_case_block_s": ("s", "lower"),
    "experiments.measure_self_s": ("s", "lower"),
    "experiments.analyze_grid_s": ("s", "lower"),
    "experiments.trials": ("count", "higher"),
    "experiments.violations": ("count", "lower"),
    "reference.roundtrip_ref_s": ("s", "lower"),
    "reference.block_fp_forward_ref_s": ("s", "lower"),
    "reference.transform_forward_ref_s": ("s", "lower"),
    "reference.sequency_permute_ref_s": ("s", "lower"),
    "reference.to_negabinary_ref_s": ("s", "lower"),
    "reference.bitplane_truncate_ref_s": ("s", "lower"),
    "reference.from_negabinary_ref_s": ("s", "lower"),
    "reference.sequency_unpermute_ref_s": ("s", "lower"),
    "reference.transform_inverse_ref_s": ("s", "lower"),
    "reference.significand_truncate_ref_s": ("s", "lower"),
    "bitvec.fb_decode_s": ("s", "lower"),
    "reference.blocks": ("count", "higher"),
    "reference.mismatches": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "bound_slack_max": ("ratio", "lower"),
}

FORWARD = ("blocks.partition", "pipeline.block_fp_forward", "pipeline.transform_forward",
           "pipeline.sequency_permute", "pipeline.to_negabinary", "pipeline.bitplane_truncate",
           "stream.encode_planes")
INVERSE = ("stream.decode_planes", "pipeline.from_negabinary", "pipeline.sequency_unpermute",
           "pipeline.transform_inverse", "pipeline.block_fp_inverse", "blocks.unpartition")

# Derived self times: parent span minus the replayed spans of the work it contains.
DERIVED = {
    "stream.record_write_s": ("stream.compress", FORWARD),
    "stream.record_read_s": ("stream.decompress", INVERSE),
    "experiments.measure_self_s": ("experiments.measure",
                                   ("pipeline.compress_block", "pipeline.decompress_block")),
}

# Spans that make the same call the untraced run times; their sum against the
# untraced call gives the tracing overhead.
TOP_LEVEL = ("stream.compress", "stream.decompress", "experiments.sweep",
             "experiments.analyze_grid", "pipeline.pipeline_trace", "reference.roundtrip_ref")


def layer_metrics(tracer: Tracer, counts: Counts, passes: int, overhead_pct: float,
                  slack) -> dict:
    """Per-pass per-layer metrics from the spans and counters of ``passes`` passes.

    ``slack`` is the exact maximum block error / K_beta of the run's outputs
    (see run.check_outputs).
    """
    self_s = tracer.self_times()
    out = {}
    for name, (unit, _) in LAYER_METRICS.items():
        if name in DERIVED:
            parent, parts = DERIVED[name]
            value = (self_s.get(parent, 0.0) - sum(self_s.get(x, 0.0) for x in parts)) / passes
        elif name == "stream.bits_per_value":
            value = counts.container_bits / counts.values if counts.values else 0.0
        elif name == "stream.rate_over_floor":
            value = float(counts.container_bits / counts.floor_bits) if counts.values else 0.0
        elif name == "bound_slack_max":
            value = float(slack) if slack is not None else 0.0
        elif name == "trace.overhead_pct":
            value = overhead_pct
        elif unit == "s":
            value = self_s.get(name[:-2], 0.0) / passes
        else:
            value = counts.c.get(name, 0) / passes
        out[name] = {"value": value, "unit": unit}
    return out
