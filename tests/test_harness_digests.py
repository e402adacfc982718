"""The numbers the bound harness reports are pinned.

``analyze_grid`` rows and ``sweep`` cells and violators are hashed (floats
as ``float.hex``) over a small case matrix: d = 1, 2, 3; ragged and
zero-block grids; grids near 1e150 and 1e-200, whose scaled integers are
hundreds of bits wide; the f64, f32, toy (13, 9) and q = 80 pairings; wide
beta; and a02-shaped sweep cells at e_min = 0, -1000 and 500.  A change to
how the harness measures must leave every digest as it is.
"""

import hashlib
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfpkit.experiments import WorstCaseSpec, analyze_grid, sweep

GRID_DIGEST = "8b2c6db1fc3dd3a7f4fcc7fa16ca588d62465e9606b9c2a890df243bd040bfe0"
SWEEP_DIGEST = "15268a2620ec4701d3bc0f9877cb4074ade1d5a97a0b0b3df4d4dc3de842890f"

PAIRINGS = {"f64": (53, 62), "f32": (24, 30), "toy": (13, 9), "q80": (53, 80)}
SHAPES = {1: (13,), 2: (6, 7), 3: (5, 4, 6)}


def _text(fields) -> str:
    return ",".join(v.hex() if isinstance(v, float) else repr(v) for v in fields)


def _grid(rng, d, kind, f32):
    shape = SHAPES[d]
    if kind == "walk":
        grid = np.cumsum(rng.standard_normal(shape), axis=-1)
    elif kind == "zero-blocks":
        grid = rng.standard_normal(shape) * np.exp2(rng.integers(-12, 13, size=shape))
        grid[:4] = 0.0
    elif kind == "huge":
        grid = rng.uniform(-1.0, 1.0, shape) * (1e37 if f32 else 1e150)
    else:  # tiny
        grid = rng.uniform(-1.0, 1.0, shape) * (1e-37 if f32 else 1e-200)
    return grid.astype(np.float32).astype(np.float64) if f32 else grid


def grid_cases():
    """(grid, k, q, betas, allow_wide_beta) over the case matrix."""
    rng = np.random.default_rng(7007)
    for name, (k, q) in PAIRINGS.items():
        for d in (1, 2, 3):
            top = q - 2 * d + 2
            for kind in ("walk", "zero-blocks", "huge", "tiny"):
                grid = _grid(rng, d, kind, name == "f32")
                yield grid, k, q, (0, 2, top // 2, top), False
            yield _grid(rng, d, "walk", name == "f32"), k, q, (top + 1, q + 2), True


def grid_digest() -> str:
    h = hashlib.sha256()
    for grid, k, q, betas, wide in grid_cases():
        for row in analyze_grid(grid, k, q, betas, allow_wide_beta=wide):
            h.update((_text(astuple(row)) + "\n").encode())
    return h.hexdigest()


SWEEP_CASES = [
    # (d, k, q, float32, betas, e_min), a02-shaped
    (1, 53, 62, False, (2, 32, 62), 0),
    (2, 24, 30, True, (6, 18, 28), 0),
    (2, 53, 62, False, (12, 60), -1000),
    (3, 53, 62, False, (14, 58), 500),
    (1, 53, 62, False, (8, 40), -1000),
    (2, 24, 30, True, (10, 26), -120),
]


def sweep_digest() -> str:
    h = hashlib.sha256()
    for d, k, q, f32, betas, e_min in SWEEP_CASES:
        spec = WorstCaseSpec(d=d, k=k, q=q, betas=betas, rhos=(0, 7, 14), e_min=e_min,
                             trials=40, seed=20260808, float32=f32)
        cells, violators = sweep(spec, threads=1)
        for item in cells + violators:
            h.update((_text(astuple(item)) + "\n").encode())
    return h.hexdigest()


def test_analyze_grid_rows_are_pinned():
    assert grid_digest() == GRID_DIGEST


def test_sweep_cells_and_violators_are_pinned():
    assert sweep_digest() == SWEEP_DIGEST


def test_exact_path_alone_gives_the_pinned_numbers(monkeypatch):
    # the float filter clears nothing, so every block is compared in exact ints
    from zfpkit import experiments

    def clear_nothing(xs, ws, bound, rho):
        return np.zeros(len(xs), dtype=bool), np.zeros(len(xs)), np.zeros(len(xs))

    monkeypatch.setattr(experiments, "_clear_rows", clear_nothing)
    assert grid_digest() == GRID_DIGEST
    assert sweep_digest() == SWEEP_DIGEST



# ---------------------------------------------------------------------------
# sweep equals a per-trial loop over measure


def reference_sweep(spec: WorstCaseSpec):
    """(cells, violators) from one ``measure`` call per trial, aggregated in trial order."""
    from zfpkit.codec import CodecParams
    from zfpkit.experiments import SweepCell, applicable_bound_exact, gen_worst_case_block, \
        measure, trial_rng

    cells, violators = [], []
    for idx, rho, beta in spec.cells():
        p = CodecParams(spec.d, spec.k, spec.q, beta, allow_wide_beta=spec.allow_wide_beta)
        e_max = spec.e_min + rho
        bound = applicable_bound_exact(p)
        recs = []
        for t in range(spec.trials):
            block = gen_worst_case_block(spec.d, spec.e_min, e_max,
                                         trial_rng(spec.seed, idx, t), spec.float32)
            recs.append(measure(block, p, e_min=spec.e_min, e_max=e_max,
                                seed=spec.seed, trial=t, bound=bound))
        blk = [r.err_block for r in recs]
        cmp = [r.err_comp for r in recs]
        blk_sum = cmp_sum = 0.0
        for b, c in zip(blk, cmp):
            blk_sum += b
            cmp_sum += c
        cells.append(SweepCell(
            d=spec.d, k=spec.k, q=spec.q, beta=beta, e_min=spec.e_min, e_max=e_max,
            err_block_min=min(blk), err_block_max=max(blk), err_block_mean=blk_sum / spec.trials,
            err_comp_min=min(cmp), err_comp_max=max(cmp), err_comp_mean=cmp_sum / spec.trials,
            k_beta=float(bound), comp_bound=float(bound) * float(2 ** rho),
            violations=sum(r.violation for r in recs)))
        violators += [r for r in recs if r.violation]
    return cells, violators


def _outcome(fn, spec):
    """Hex text of every cell and violator, or the type and message of the error raised."""
    try:
        cells, violators = fn(spec)
    except Exception as e:  # noqa: BLE001 - the error itself is the outcome compared
        return ("raised", type(e), str(e))
    return [_text(astuple(item)) for item in cells + violators]


@st.composite
def sweep_specs(draw):
    d = draw(st.sampled_from((1, 2, 3)))
    name = draw(st.sampled_from(sorted(PAIRINGS)))
    k, q = PAIRINGS[name]
    # float32 draws need e_min >= -149 and e_min + rho <= 127; specs beyond are
    # refused at construction (tests/test_experiments.py)
    e_min = draw(st.sampled_from((-120, 0) if name == "f32" else (-1000, -120, 0, 500)))
    float32 = name == "f32" or (e_min == -120 and draw(st.booleans()))
    top = q - 2 * d + 2
    betas = tuple(draw(st.lists(st.sampled_from((0, 2, top, q + 2)), min_size=1, max_size=2,
                                unique=True)))
    rhos = tuple(draw(st.lists(st.sampled_from((0, 7, 14)), min_size=1, max_size=2,
                               unique=True)))
    trials = draw(st.integers(1, 12 if d < 3 else 4))
    return WorstCaseSpec(d=d, k=k, q=q, betas=betas, rhos=rhos, e_min=e_min, trials=trials,
                         seed=draw(st.integers(0, 2 ** 32 - 1)), float32=float32,
                         allow_wide_beta=q + 2 in betas)


@settings(max_examples=100, deadline=None)
@given(spec=sweep_specs())
def test_sweep_equals_per_trial_measure(spec):
    assert _outcome(lambda s: sweep(s, threads=1), spec) == _outcome(reference_sweep, spec)


@pytest.mark.parametrize("threads", [1, 2])
def test_repeated_beta_equals_per_trial_measure(threads):
    # the CLI accepts --beta-range 8,8: both betas' cells join one stream
    spec = WorstCaseSpec(d=2, k=24, q=30, betas=(8, 8), rhos=(0, 7), e_min=-20, trials=30,
                         seed=4, float32=True)
    assert _outcome(lambda s: sweep(s, threads=threads), spec) == _outcome(reference_sweep, spec)
