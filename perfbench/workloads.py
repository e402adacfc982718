"""Seeded inputs and timed operations for the zfpkit benchmark.

A workload is a list of operations run in a fixed order (one *pass*).  Each
workload has *main* operations, the reason it exists, and one small
*companion* operation for every kind its main operations lack, so that every
run reports every end-to-end metric.  The companions run after every main
operation, so that they sample the same machine conditions as it does.

All inputs derive from the benchmark seed; the program receives only the
generated arrays, blocks and sweep specifications.  Every operation is a
closed loop of one client in one process: the sweep runs with one worker.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import numpy as np

from zfpkit.bitvec import sb_value
from zfpkit.codec import (
    CodecParams,
    compress,
    compress_block,
    decompress,
    decompress_block,
    partition,
    pipeline_trace,
    roundtrip_ref,
    unpartition,
)
from zfpkit.experiments import WorstCaseSpec, analyze_grid, applicable_bound_exact, sweep

F64 = (53, 62)
F32 = (24, 30)
REF_PAIRINGS = ((13, 9), (24, 30), (53, 62))
RHOS = (0, 7, 14)
MB = 1e6


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is what the benchmark measures, ``TINY`` smoke-tests it."""

    shapes: dict
    masked_shape: tuple
    sweep_trials: int          # multiplier on the per-row trial counts
    analyze_shape: tuple
    ref_blocks: dict           # d -> blocks per main reference operation
    companion_shape: tuple
    companion_trials: int
    companion_analyze_shape: tuple
    companion_ref_blocks: int


FULL = Scale(
    shapes={1: (16384,), 2: (128, 128), 3: (24, 24, 24)},
    masked_shape=(128, 128),
    sweep_trials=10,
    analyze_shape=(64, 64),
    ref_blocks={1: 96, 2: 48, 3: 24},
    companion_shape=(64, 64),
    companion_trials=150,
    companion_analyze_shape=(32, 32),
    companion_ref_blocks=24,
)

TINY = Scale(
    shapes={1: (70,), 2: (10, 13), 3: (5, 6, 7)},
    masked_shape=(12, 16),
    sweep_trials=0,
    analyze_shape=(8, 8),
    ref_blocks={1: 3, 2: 2, 3: 1},
    companion_shape=(8, 8),
    companion_trials=2,
    companion_analyze_shape=(8, 8),
    companion_ref_blocks=2,
)

SCALES = {"full": FULL, "tiny": TINY}


# ---------------------------------------------------------------------------
# input generators


def random_walk(rng: np.random.Generator, shape) -> np.ndarray:
    """Cumulative sum of unit normals along every axis (a Brownian sheet)."""
    grid = rng.standard_normal(shape)
    for axis in range(grid.ndim):
        grid = np.cumsum(grid, axis=axis)
    return grid


def smooth(rng: np.random.Generator, shape) -> np.ndarray:
    """Sum of four low-frequency plane waves with random amplitudes."""
    axes = np.meshgrid(*(np.linspace(0.0, 1.0, n) for n in shape), indexing="ij")
    grid = np.zeros(shape)
    for _ in range(4):
        waves = rng.integers(1, 4, size=len(shape))
        phase = sum(int(w) * x for w, x in zip(waves, axes))
        grid += rng.uniform(0.5, 2.0) * np.cos(2 * np.pi * phase + rng.uniform(0, 2 * np.pi))
    return grid


def zero_blocks(rng: np.random.Generator, grid: np.ndarray, share: float) -> np.ndarray:
    """Set ``share`` of the whole 4**d blocks of ``grid`` to exactly zero."""
    grid = grid.copy()
    nblk = [n // 4 for n in grid.shape]
    total = math.prod(nblk)
    for flat in rng.choice(total, size=max(1, int(total * share)), replace=False):
        idx = np.unravel_index(int(flat), nblk)
        grid[tuple(slice(4 * b, 4 * b + 4) for b in idx)] = 0.0
    return grid


def as_f32(grid: np.ndarray) -> np.ndarray:
    """Round to float32 values (stored as float64) for the k=24 pairing."""
    return grid.astype(np.float32).astype(np.float64)


def worst_case_block(rng: np.random.Generator, d: int, rho: int, float32: bool) -> list[float]:
    """Adversarial block: one magnitude per band of [1, 2**rho], random signs, shuffled.

    This mirrors the harness generator's structure with the benchmark's own
    random stream, so the reference workload's inputs do not change when the
    harness generator does.
    """
    n = 4 ** d
    edges = 2.0 ** (rho * np.arange(n + 1) / n)
    vals = rng.uniform(edges[:-1], edges[1:])
    if float32:
        vals = vals.astype(np.float32).astype(np.float64)
    vals = np.where(rng.integers(0, 2, size=n) == 1, -vals, vals)
    return [float(v) for v in rng.permutation(vals)]


def ref_blocks(rng: np.random.Generator, d: int, count: int):
    """(values, params) pairs shaped like the fast/reference identity check.

    Pairings cycle over (13,9), (24,30), (53,62); beta is uniform over
    [0, q+2] (wide betas included); every 17th block is uniform noise with a
    zero element.
    """
    out = []
    for t in range(count):
        k, q = REF_PAIRINGS[t % 3]
        rho = RHOS[(t // 3) % 3]
        beta = int(rng.integers(0, q + 3))
        p = CodecParams(d, k, q, beta, allow_wide_beta=True)
        if t % 17 == 0:
            blk = [float(v) for v in rng.uniform(-100.0, 100.0, size=4 ** d)]
            blk[0] = 0.0
        else:
            blk = worst_case_block(rng, d, rho, float32=(k == 24))
        out.append((blk, p))
    return out


# ---------------------------------------------------------------------------
# exact output checks


def _padded_blocks(grid: np.ndarray) -> np.ndarray:
    """(nblocks, 4**d) view of an edge-padded grid, as the codec pads it."""
    pad = [(0, (-n) % 4) for n in grid.shape]
    g = np.pad(grid, pad, mode="edge")
    d = g.ndim
    nb = [n // 4 for n in g.shape]
    split = g.reshape(tuple(x for n in nb for x in (n, 4)))
    order = tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))
    return split.transpose(order).reshape(-1, 4 ** d)


def grid_slack(grid: np.ndarray, out: np.ndarray, bound: Fraction) -> Fraction | None:
    """Largest block error / (bound * block max), exactly; None if a block violates.

    Every float is turned into an integer on the block's shared power-of-two
    scale, as ``experiments.measure`` does, so no float tolerance enters.
    """
    num, den = bound.numerator, bound.denominator
    worst = Fraction(0)
    for xs, ws in zip(_padded_blocks(grid).tolist(), _padded_blocks(out).tolist()):
        ratios = [v.as_integer_ratio() for v in xs + ws]
        scale = max(r[1].bit_length() for r in ratios) - 1
        ints = [n << (scale - (dd.bit_length() - 1)) for n, dd in ratios]
        half = len(xs)
        max_x = max(abs(x) for x in ints[:half])
        max_err = max(abs(w - x) for x, w in zip(ints[:half], ints[half:]))
        if max_err * den > num * max_x:
            return None
        if max_x and max_err * den * worst.denominator > worst.numerator * num * max_x:
            worst = Fraction(max_err * den, num * max_x)
    return worst


def ref_mismatch(fast, ref) -> bool:
    """True when the integer path and the bit-vector path disagree anywhere."""
    if fast.fp.is_zero or ref.is_zero:
        return not (fast.fp.is_zero and ref.is_zero)
    if (ref.e_max, ref.ell) != (fast.fp.e_max, fast.fp.ell):
        return True
    pairs = (
        (tuple(sb_value(e) for e in ref.fp), fast.fp.ints),
        (tuple(sb_value(e) for e in ref.transformed), fast.transformed.ints),
        (tuple(sb_value(e) for e in ref.permuted), fast.permuted.ints),
        (tuple(e.digits.uint_at(0) for e in ref.nega), fast.nega.digits),
        (tuple(e.digits.uint_at(0) for e in ref.truncated), fast.truncated.digits),
        (tuple(sb_value(e) for e in ref.unpermuted), fast.unpermuted.ints),
        (tuple(sb_value(e) for e in ref.recovered), fast.recovered.ints),
        (tuple(float(v) for v in ref.out_values), fast.out_values),
    )
    return any(got != want for got, want in pairs)


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# operations
#
# run() returns ({phase: seconds}, output) with only the program call inside
# each timed interval, and calls pause() between two timed phases;
# check(output) returns (checks attempted, failures, slack) and is never timed.


@dataclass
class CodecOp:
    """Compress one grid into a container, then decompress it."""

    name: str
    grid: np.ndarray
    params: CodecParams
    main: bool = True
    kind = "codec"

    @property
    def bytes(self) -> int:
        return self.grid.size * 8

    def run(self, inject: str = "none", pause=lambda: None):
        t0 = perf_counter()
        blob = compress(self.grid, self.params)
        t1 = perf_counter()
        if inject == "corrupt-container":
            blob = blob[:-1] + bytes([blob[-1] ^ 0x5A])
        pause()
        t2 = perf_counter()
        out = decompress(blob)
        t3 = perf_counter()
        if inject == "perturb-output":
            out = out.copy()
            out.flat[out.size // 2] = np.nextafter(out.flat[out.size // 2], np.inf) * 1.001
        return {"compress": t1 - t0, "decompress": t3 - t2}, (blob, out)

    def check(self, output):
        """Container coding is lossless against the block pipeline; error within K_beta."""
        blob, out = output
        p = self.params
        blocks = [decompress_block(compress_block(b, p), p)[1] for b in partition(self.grid)]
        if not np.array_equal(out, unpartition(blocks, self.grid.shape)):
            return 2, 1, None
        slack = grid_slack(self.grid, out, applicable_bound_exact(p))
        return 2, int(slack is None), slack

    def same(self, a, b) -> bool:
        return a[0] == b[0] and np.array_equal(a[1], b[1])


@dataclass
class SweepOp:
    """One worst-case sweep (several (rho, beta) cells) on a single worker."""

    name: str
    spec: WorstCaseSpec
    main: bool = True
    kind = "sweep"

    @property
    def trials(self) -> int:
        return self.spec.trials * len(self.spec.cells())

    def run(self, inject: str = "none", pause=None):
        t0 = perf_counter()
        result = sweep(self.spec, threads=1)
        return {"sweep": perf_counter() - t0}, result

    def check(self, output):
        cells, violators = output
        bad = int(bool(violators) or any(c.violations for c in cells))
        slack = max(Fraction(c.err_block_max) / Fraction(c.k_beta) for c in cells)
        return 1, bad, slack

    def same(self, a, b) -> bool:
        return a == b


@dataclass
class GridOp:
    """Per-beta worst block error and ratio of one grid (``analyze_grid``)."""

    name: str
    grid: np.ndarray
    k: int
    q: int
    betas: tuple
    main: bool = True
    kind = "grid"

    @property
    def bytes(self) -> int:
        return self.grid.size * 8

    def run(self, inject: str = "none", pause=None):
        t0 = perf_counter()
        rows = analyze_grid(self.grid, self.k, self.q, self.betas)
        return {"analyze": perf_counter() - t0}, rows

    def check(self, output):
        bad = int(any(r.violations for r in output) or len(output) != len(self.betas))
        slack = max(Fraction(r.max_block_err) / Fraction(r.k_beta) for r in output)
        return 1, bad, slack

    def same(self, a, b) -> bool:
        return a == b


@dataclass
class RefOp:
    """Fast trace and bit-vector reference round trip for a list of blocks."""

    name: str
    blocks: list
    main: bool = True
    kind = "ref"

    def run(self, inject: str = "none", pause=None):
        t0 = perf_counter()
        out = [(pipeline_trace(v, p), roundtrip_ref(v, p)) for v, p in self.blocks]
        return {"verify": perf_counter() - t0}, out

    def check(self, output):
        bad = sum(ref_mismatch(fast, ref) for fast, ref in output)
        return len(output), bad, None

    def same(self, a, b) -> bool:
        return a == b


# ---------------------------------------------------------------------------
# workloads

WHY = {
    "codec-f64-wide":
        "f64 pairing at the default maximum beta on 16k-value grids: container plane coding "
        "and bit I/O dominate, and inverse lifting runs the q>=61 scalar path",
    "codec-f32-narrow":
        "f32 pairing at beta=8 plus a field with a quarter zero blocks: partition and pipeline "
        "arithmetic are ~40% of compress, plane coding is small",
    "bound-sweep":
        "a02-shaped worst-case sweep cells on one worker plus analyze_grid: trial generation, "
        "measure and the bound rationals; the sweep never touches the container",
    "reference-verify":
        "a06 check: fast pipeline_trace against the bit-vector roundtrip_ref over d=1,2,3 and "
        "three pairings; the only load on codec.reference and bitvec",
}


def _codec_main(rng, scale: Scale, pairing, beta_of, masked: bool):
    k, q = pairing
    f32 = pairing == F32
    ops = []
    for d, shape in scale.shapes.items():
        p = CodecParams(d, k, q, beta_of(q, d))
        for label, gen in (("walk", random_walk), ("smooth", smooth)):
            grid = gen(rng, shape)
            ops.append(CodecOp(f"{label}{d}d", as_f32(grid) if f32 else grid, p))
    if masked:
        grid = zero_blocks(rng, random_walk(rng, scale.masked_shape), 0.25)
        ops.append(CodecOp("masked2d", as_f32(grid), CodecParams(2, k, q, beta_of(q, 2))))
    return ops


SWEEP_ROWS = (
    # (d, k, q, float32, betas, trials per cell at sweep_trials=1), a02-shaped
    (1, 53, 62, False, (8, 32, 62), 15),
    (2, 24, 30, True, (6, 18, 28), 8),
    (2, 53, 62, False, (12, 36, 60), 6),
    (3, 53, 62, False, (14, 38, 58), 3),
)


def _sweep_main(rng, scale: Scale, seed: int):
    ops = []
    for d, k, q, f32, betas, trials in SWEEP_ROWS:
        if scale is TINY:
            betas = betas[:1]
        spec = WorstCaseSpec(d=d, k=k, q=q, betas=betas, rhos=RHOS,
                             trials=max(1, trials * scale.sweep_trials), seed=seed, float32=f32)
        ops.append(SweepOp(f"sweep{d}d-k{k}", spec))
    grid = as_f32(random_walk(rng, scale.analyze_shape))
    ops.append(GridOp("analyze2d", grid, *F32, (8, 16, 28)))
    return ops


def _ref_main(rng, scale: Scale):
    return [RefOp(f"ref{d}d", ref_blocks(rng, d, n)) for d, n in scale.ref_blocks.items()]


def _companions(rng, scale: Scale, seed: int):
    """One small operation per kind, all on the f32 pairing at beta=16."""
    k, q = F32
    return {
        "codec": CodecOp("companion-codec", as_f32(random_walk(rng, scale.companion_shape)),
                         CodecParams(2, k, q, 16), main=False),
        "sweep": SweepOp("companion-sweep", WorstCaseSpec(
            d=2, k=k, q=q, betas=(16,), rhos=(7,), trials=scale.companion_trials,
            seed=seed, float32=True), main=False),
        "grid": GridOp("companion-grid", as_f32(random_walk(rng, scale.companion_analyze_shape)),
                       k, q, (16,), main=False),
        "ref": RefOp("companion-ref", ref_blocks(rng, 2, scale.companion_ref_blocks), main=False),
    }


def build(workload: str, seed: int, size: str = "full"):
    """Operations of one pass, in run order: main operations with companions between."""
    if workload not in WHY:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
    scale = SCALES[size]
    rng = np.random.default_rng(np.random.SeedSequence([seed, sorted(WHY).index(workload)]))
    if workload == "codec-f64-wide":
        main = _codec_main(rng, scale, F64, lambda q, d: q - 2 * d + 2, masked=False)
    elif workload == "codec-f32-narrow":
        main = _codec_main(rng, scale, F32, lambda q, d: 8, masked=True)
    elif workload == "bound-sweep":
        main = _sweep_main(rng, scale, seed)
    else:
        main = _ref_main(rng, scale)
    kinds = {op.kind for op in main}
    companions = [op for kind, op in _companions(rng, scale, seed).items() if kind not in kinds]
    return [x for op in main for x in (op, *companions)]


def unique(ops) -> dict:
    """Distinct operations of a pass by name, in first-run order."""
    return {op.name: op for op in ops}


def warm_up(ops) -> None:
    """Fill the codec's lru_cache tables for every (d, pairing) the pass uses."""
    seen = set()
    for op in ops:
        if op.kind == "codec":
            configs = [op.params]
        elif op.kind == "sweep":
            configs = [CodecParams(op.spec.d, op.spec.k, op.spec.q, b) for b in op.spec.betas]
        elif op.kind == "grid":
            configs = [CodecParams(op.grid.ndim, op.k, op.q, b) for b in op.betas]
        else:
            configs = [p for _, p in op.blocks]
        for p in configs:
            key = (op.kind == "ref", p.d, p.k, p.q)
            if key in seen:
                continue
            seen.add(key)
            blk = [float(2 ** (i % 7)) * (-1) ** i for i in range(p.n)]
            decompress_block(compress_block(blk, p), p)
            if op.kind == "ref":
                roundtrip_ref(blk, p)


def describe(op) -> str:
    """One line on an operation's input: shape, bytes, zero-block share, exponents."""
    if op.kind in ("codec", "grid"):
        blocks = _padded_blocks(op.grid)
        peak = np.max(np.abs(blocks), axis=1)
        nonzero = peak[peak > 0]
        exps = np.frexp(nonzero)[1] - 1
        spread = f"{int(exps.min())}..{int(exps.max())}" if exps.size else "none"
        params = (f"d={op.params.d} k={op.params.k} q={op.params.q} beta={op.params.beta}"
                  if op.kind == "codec" else f"k={op.k} q={op.q} betas={op.betas}")
        return (f"{op.name}: shape={op.grid.shape} bytes={op.bytes} {params} "
                f"zero_blocks={1 - nonzero.size / len(peak):.3f} block_exponents={spread}")
    if op.kind == "sweep":
        s = op.spec
        return (f"{op.name}: d={s.d} k={s.k} q={s.q} betas={s.betas} rhos={s.rhos} "
                f"trials/cell={s.trials} trials={op.trials} float32={s.float32}")
    ds = sorted({p.d for _, p in op.blocks})
    return (f"{op.name}: blocks={len(op.blocks)} d={ds} pairings={REF_PAIRINGS} "
            f"beta=uniform[0,q+2] rhos={RHOS}")
