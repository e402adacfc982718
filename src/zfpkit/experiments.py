"""Empirical bound verification: worst-case block sweeps and grid analyses.

The harness round-trips generated or real blocks through the codec and
checks the measured errors against the closed-form constants with exact
integer arithmetic; a single violation anywhere is a failure.  All
randomness flows through numpy's PCG64, and every trial derives its own
stream from (seed, cell index, trial index), so sweeps are reproducible
and parallel runs emit byte-identical tables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .bounds import BoundInputs, b_beta_exact, k_beta_exact
from .codec import CodecParams, GridShapeError, compress, compress_block, decompress_block, partition


@dataclass(frozen=True)
class WorstCaseSpec:
    """One sweep request: a (rho, beta) grid of cells, `trials` blocks each.

    Worst-case blocks draw one magnitude per band across
    [2**e_min, 2**(e_min + rho)], so every cell stresses the full exponent
    spread it claims.  float32 narrows draws to 24-bit significands for the
    single-precision parameter pairing.
    """

    d: int
    k: int
    q: int
    betas: tuple[int, ...]
    rhos: tuple[int, ...] = (0,)
    e_min: int = 0
    trials: int = 1000
    seed: int = 0
    float32: bool = False
    allow_wide_beta: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.betas:
            raise ValueError("betas must be non-empty")
        if any(r < 0 for r in self.rhos):
            raise ValueError("rhos must be >= 0")

    def cells(self) -> list[tuple[int, int, int]]:
        """(cell_index, rho, beta) in deterministic enumeration order."""
        out = []
        idx = 0
        for rho in self.rhos:
            for beta in self.betas:
                out.append((idx, rho, beta))
                idx += 1
        return out


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured trial with its bounds and the exact violation verdict."""

    d: int
    k: int
    q: int
    beta: int
    e_min: int
    e_max: int
    seed: int
    trial: int
    err_block: float
    err_comp: float
    k_beta: float
    comp_bound: float
    violation: bool


@dataclass(frozen=True)
class SweepCell:
    """Aggregate of one (rho, beta) cell."""

    d: int
    k: int
    q: int
    beta: int
    e_min: int
    e_max: int
    err_block_min: float
    err_block_max: float
    err_block_mean: float
    err_comp_min: float
    err_comp_max: float
    err_comp_mean: float
    k_beta: float
    comp_bound: float
    violations: int


def trial_rng(seed: int, cell_index: int, trial: int) -> np.random.Generator:
    """Independent, portable stream for one trial."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=(seed, cell_index, trial))))


def gen_worst_case_block(d: int, e_min: int, e_max: int, rng: np.random.Generator,
                         float32: bool = False) -> list[float]:
    """Draw one adversarial block of 4**d signed magnitudes.

    The exponent range splits into one band per element; element h is
    uniform in [2**(e_min + h*delta), 2**(e_min + (h+1)*delta)], signs are
    fair coins, and a Fisher-Yates pass scatters the magnitude ordering.
    Every |value| lands in [2**e_min, 2**e_max] by construction.
    """
    if e_max < e_min:
        raise ValueError("e_max must be >= e_min")
    n = 4 ** d
    delta = (e_max - e_min) / n
    edges = [2.0 ** (e_min + h * delta) for h in range(n + 1)]
    # array arguments draw element by element in order, exactly as n scalar calls would
    vals = rng.uniform(edges[:-1], edges[1:])
    if float32:
        vals = vals.astype(np.float32)
    signs = rng.integers(0, 2, size=n)
    out = [-v if s else v for v, s in zip(vals.tolist(), signs.tolist())]
    for i, j in zip(range(n - 1, 0, -1), rng.integers(0, np.arange(n, 1, -1)).tolist()):
        out[i], out[j] = out[j], out[i]
    return out


# ---------------------------------------------------------------------------
# exact measurement


def _exact_ints(xs: Sequence[float], ws: Sequence[float]) -> tuple[list[int], list[int]]:
    """(X, W) with X[i] = 2**S * xs[i] and W[i] = 2**S * ws[i] for one shared S, all exact.

    Error comparisons then reduce to integer comparisons, and ``_ratio``
    gives the same float for any shared power-of-two scale.
    """
    xs = [v.as_integer_ratio() for v in xs]
    ws = [v.as_integer_ratio() for v in ws]
    top = max([den for _, den in xs + ws]).bit_length()  # every den is a power of two
    return ([num << (top - den.bit_length()) for num, den in xs],
            [num << (top - den.bit_length()) for num, den in ws])


def _ratio(a: int, b: int) -> float:
    """Float of a/b for possibly huge ints (report-only rounding)."""
    if a == 0:
        return 0.0
    sh = max(a.bit_length(), b.bit_length()) - 400
    if sh > 0:
        a >>= sh
        b >>= sh
        if b == 0:
            return float("inf")
    return a / b


def k_beta_applies(p: CodecParams) -> bool:
    """True when the tight constant K_beta bounds the round trip, else B_beta.

    K_beta applies in the default regime and again at beta = q + 2, where
    the inverse transform exactly undoes the forward junction and so adds
    nothing; strictly between, the inverse transform may round and the
    looser B_beta is charged.
    """
    return p.beta <= p.beta_default_max or p.beta == p.q + 2


def applicable_bound_exact(p: CodecParams) -> Fraction:
    """The proved round-trip constant for this configuration (see :func:`k_beta_applies`)."""
    inp = BoundInputs(d=p.d, k=p.k, q=p.q, beta=p.beta)
    if k_beta_applies(p):
        return k_beta_exact(inp, allow_out_of_regime=True)
    return b_beta_exact(inp)


def derive_exponents(values: Sequence[float]) -> tuple[int, int]:
    """(lowest, highest) active bit position over the nonzero values."""
    e_min = None
    e_max = None
    for v in values:
        if v == 0.0:
            continue
        num, den = v.as_integer_ratio()
        s = den.bit_length() - 1
        hi = abs(num).bit_length() - 1 - s
        lo = (abs(num) & -abs(num)).bit_length() - 1 - s
        e_max = hi if e_max is None else max(e_max, hi)
        e_min = lo if e_min is None else min(e_min, lo)
    if e_max is None:
        raise ValueError("all-zero block has no exponents")
    return e_min, e_max


def measure(values: Sequence[float], p: CodecParams,
            e_min: int | None = None, e_max: int | None = None,
            seed: int = 0, trial: int = 0,
            bound: Fraction | None = None) -> ExperimentRecord:
    """Round-trip one nonzero block and compare both error metrics.

    e_min/e_max scope the componentwise bound; when omitted they are
    derived from the block's own bit positions.  Violation flags come from
    exact integer comparisons, never from the reported floats.
    """
    values = [float(v) for v in values]
    if not any(values):
        raise ValueError("measure requires a nonzero block")
    if e_min is None or e_max is None:
        e_min, e_max = derive_exponents(values)
    rho = e_max - e_min
    if bound is None:
        bound = applicable_bound_exact(p)
    x_ints, w_ints = _exact_ints(values, decompress_block(compress_block(values, p), p)[1])
    errs = [abs(w - x) for w, x in zip(w_ints, x_ints)]
    max_x = max(map(abs, x_ints))
    max_err = max(errs)
    num, den = bound.numerator, bound.denominator
    block_violation = max_err * den > num * max_x
    comp_scale = num << rho
    err_comp = 0.0
    comp_violation = False
    for e, x in zip(errs, x_ints):
        if x == 0:
            continue
        ax = abs(x)
        if e * den > comp_scale * ax:
            comp_violation = True
        r = _ratio(e, ax)
        if r > err_comp:
            err_comp = r
    return ExperimentRecord(
        d=p.d, k=p.k, q=p.q, beta=p.beta, e_min=e_min, e_max=e_max,
        seed=seed, trial=trial,
        err_block=_ratio(max_err, max_x),
        err_comp=err_comp,
        k_beta=float(bound),
        comp_bound=float(bound) * float(2 ** rho),
        violation=block_violation or comp_violation,
    )


# ---------------------------------------------------------------------------
# sweeps


def _run_cell(spec: WorstCaseSpec, cell_index: int, rho: int, beta: int):
    p = CodecParams(spec.d, spec.k, spec.q, beta, allow_wide_beta=spec.allow_wide_beta)
    e_max = spec.e_min + rho
    bound = applicable_bound_exact(p)
    blk_min = cmp_min = float("inf")
    blk_max = cmp_max = 0.0
    blk_sum = cmp_sum = 0.0
    violations = 0
    violators: list[ExperimentRecord] = []
    for t in range(spec.trials):
        rng = trial_rng(spec.seed, cell_index, t)
        block = gen_worst_case_block(spec.d, spec.e_min, e_max, rng, spec.float32)
        rec = measure(block, p, e_min=spec.e_min, e_max=e_max,
                      seed=spec.seed, trial=t, bound=bound)
        blk_min = min(blk_min, rec.err_block)
        blk_max = max(blk_max, rec.err_block)
        blk_sum += rec.err_block
        cmp_min = min(cmp_min, rec.err_comp)
        cmp_max = max(cmp_max, rec.err_comp)
        cmp_sum += rec.err_comp
        if rec.violation:
            violations += 1
            violators.append(rec)
    cell = SweepCell(
        d=spec.d, k=spec.k, q=spec.q, beta=beta, e_min=spec.e_min, e_max=e_max,
        err_block_min=blk_min, err_block_max=blk_max, err_block_mean=blk_sum / spec.trials,
        err_comp_min=cmp_min, err_comp_max=cmp_max, err_comp_mean=cmp_sum / spec.trials,
        k_beta=float(bound), comp_bound=float(bound) * float(2 ** rho),
        violations=violations,
    )
    return cell, violators


def _run_cell_packed(args):
    return _run_cell(*args)


def thread_budget(requested: int | None = None) -> int:
    """Worker count: requested (or cpu count), capped by ZFPKIT_THREADS."""
    n = requested if requested else (os.cpu_count() or 1)
    cap = os.environ.get("ZFPKIT_THREADS")
    if cap:
        try:
            n = min(n, max(int(cap), 1))
        except ValueError:
            pass
    return max(n, 1)


def sweep(spec: WorstCaseSpec, threads: int | None = None):
    """Run every (rho, beta) cell; returns (cells, violating records).

    Results are identical whatever the worker count, because each trial's
    RNG stream depends only on (seed, cell index, trial index) and cells
    are gathered in enumeration order.
    """
    jobs = [(spec, idx, rho, beta) for idx, rho, beta in spec.cells()]
    n_workers = thread_budget(threads)
    if n_workers > 1 and len(jobs) > 1:
        # imported here: the pool machinery costs every `import zfpkit` ~17 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
            results = list(pool.map(_run_cell_packed, jobs))
    else:
        results = [_run_cell(*job) for job in jobs]
    cells = [cell for cell, _ in results]
    violators = [rec for _, recs in results for rec in recs]
    return cells, violators


SWEEP_CSV_HEADER = ("d,k,q,beta,emin,emax,err_block_min,err_block_max,"
                    "err_comp_min,err_comp_max,K_beta,comp_bound,violations")


def write_sweep_csv(cells: Iterable[SweepCell], fh) -> None:
    fh.write(SWEEP_CSV_HEADER + "\n")
    for c in cells:
        fh.write(f"{c.d},{c.k},{c.q},{c.beta},{c.e_min},{c.e_max},"
                 f"{c.err_block_min:.10g},{c.err_block_max:.10g},"
                 f"{c.err_comp_min:.10g},{c.err_comp_max:.10g},"
                 f"{c.k_beta:.10g},{c.comp_bound:.10g},{c.violations}\n")


# ---------------------------------------------------------------------------
# real-grid analysis


@dataclass(frozen=True)
class GridAnalysisRow:
    beta: int
    max_block_err: float
    k_beta: float
    ratio: float
    violations: int


def load_raw_grid(path, dims: Sequence[int], scalar: str = "f64") -> np.ndarray:
    """Read a headerless row-major IEEE binary grid."""
    dtype = {"f32": np.float32, "f64": np.float64}.get(scalar)
    if dtype is None:
        raise ValueError(f"scalar must be f32 or f64, got {scalar!r}")
    try:
        data = np.fromfile(path, dtype=dtype)
    except OSError as e:
        raise OSError(f"cannot read grid file {path}: {e}") from e
    expected = int(np.prod(dims))
    if data.size != expected:
        raise GridShapeError(
            f"file holds {data.size} {scalar} values but dims {tuple(dims)} need {expected}")
    return data.reshape(tuple(dims)).astype(np.float64)


def analyze_grid(grid: np.ndarray, k: int, q: int, betas: Sequence[int],
                 scalar_bytes: int = 8, allow_wide_beta: bool = False,
                 b_e: int = 11) -> list[GridAnalysisRow]:
    """Per-beta worst block error and compression ratio for one grid.

    Each nonzero block of ``partition(grid)`` is compared with the block
    that beta's container decodes to (DecodeError if one leaves the float64
    range).  The bound column carries the constant that applies to each
    beta (the loose one in the wide regime).  Violations are counted with
    exact arithmetic and should always be zero.
    """
    from .codec.stream import _decode

    grid = np.asarray(grid, dtype=np.float64)
    blocks = partition(grid)
    raw_bytes = grid.size * scalar_bytes
    rows = []
    for beta in betas:
        p = CodecParams(grid.ndim, k, q, beta, allow_wide_beta=allow_wide_beta)
        payload = compress(grid, p, b_e=b_e)
        _, decoded = _decode(payload)
        bound = applicable_bound_exact(p)
        num, den = bound.numerator, bound.denominator
        worst = 0.0
        violations = 0
        for blk, out in zip(blocks, decoded.tolist()):
            if not any(blk):
                continue
            x_ints, w_ints = _exact_ints(blk, out)
            max_err = max(abs(w - x) for w, x in zip(w_ints, x_ints))
            max_x = max(map(abs, x_ints))
            if max_err * den > num * max_x:
                violations += 1
            r = _ratio(max_err, max_x)
            if r > worst:
                worst = r
        rows.append(GridAnalysisRow(beta=beta, max_block_err=worst,
                                    k_beta=float(bound),
                                    ratio=raw_bytes / len(payload),
                                    violations=violations))
    return rows


GRID_CSV_HEADER = "beta,max_block_err,K_beta,ratio"


def write_grid_csv(rows: Iterable[GridAnalysisRow], fh) -> None:
    fh.write(GRID_CSV_HEADER + "\n")
    for r in rows:
        fh.write(f"{r.beta},{r.max_block_err:.10g},{r.k_beta:.10g},{r.ratio:.10g}\n")
