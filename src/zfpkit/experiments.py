"""Empirical bound verification: worst-case block sweeps and grid analyses.

The harness round-trips generated or real blocks through the codec and
checks the measured errors against the closed-form constants with exact
integer arithmetic; a single violation anywhere is a failure.  Every
trial draws from its own numpy PCG64 stream, derived from (seed, cell
index, trial index), so sweeps are reproducible and parallel runs emit
byte-identical tables.  :func:`trial_rng` and :func:`gen_worst_case_block`
specify a trial's block; sweeps compute the same streams for a run of
trials at once (:func:`_draw_trials`) and draw a trial through the
specification wherever that computation does not model numpy's.  A
property test compares the two bit for bit, so it fails if a numpy release
changes a stream.

:func:`measure` is the specification of one trial.  A sweep runs the
cells of one beta as one stream of trials (:func:`_run_beta`), a run of
them at a time through the batch stages of :mod:`.codec.batch`; a run may
cross cells, so its rows carry their own cell index and band top, and the
results are split back into cells.  Grid analysis reads its own
container.  Both then judge every block
with one exact check, :func:`_check_run`.  Its float filter,
:func:`_clear_rows`, clears a block only where float bounds rounded
outward prove it within the bound, and reports the same floats as
:func:`measure`; every block it cannot clear is compared in exact ints on
the values the batch decoded.  A sweep calls :func:`measure` only to
record a trial that violates the bound.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .bounds import BoundInputs, b_beta_exact, k_beta_applies, k_beta_exact
from .codec import (
    CodecParams,
    GridShapeError,
    compress,
    compress_block,
    decompress_block,
)
from .codec.blocks import _block_array


@dataclass(frozen=True)
class WorstCaseSpec:
    """One sweep request: a (rho, beta) grid of cells, `trials` blocks each.

    Worst-case blocks draw one magnitude per band across
    [2**e_min, 2**(e_min + rho)], so every cell stresses the full exponent
    spread it claims.  float32 narrows draws to 24-bit significands for the
    single-precision parameter pairing.  Specs whose draws could leave the
    scalar's finite nonzero range, [2**-149, 2**127] for float32 and
    [2**-1074, 2**1023] for float64, are rejected.
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
        if not self.rhos:
            raise ValueError("rhos must be non-empty")
        if any(r < 0 for r in self.rhos):
            raise ValueError("rhos must be >= 0")
        lowest, highest = (-149, 127) if self.float32 else (-1074, 1023)
        if self.e_min < lowest or self.e_min + max(self.rhos) > highest:
            raise ValueError(f"{'float32' if self.float32 else 'float64'} draws need "
                             f"e_min >= {lowest} and e_min + max(rhos) <= {highest}, "
                             f"got e_min={self.e_min}, rhos={self.rhos}")

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
    edges = _band_edges(e_min, e_max, n)
    # array arguments draw element by element in order, exactly as n scalar calls would
    vals = rng.uniform(edges[:-1], edges[1:])
    if float32:
        vals = vals.astype(np.float32)
    signs = rng.integers(0, 2, size=n)
    out = [-v if s else v for v, s in zip(vals.tolist(), signs.tolist())]
    for i, j in zip(range(n - 1, 0, -1), rng.integers(0, np.arange(n, 1, -1)).tolist()):
        out[i], out[j] = out[j], out[i]
    return out


def _band_edges(e_min: int, e_max: int, n: int) -> list[float]:
    """The n + 1 band edges 2**(e_min + h*delta) of :func:`gen_worst_case_block`."""
    delta = (e_max - e_min) / n
    return [2.0 ** (e_min + h * delta) for h in range(n + 1)]


# ---------------------------------------------------------------------------
# many trials at once
#
# _draw_trials computes the draws of trial_rng + gen_worst_case_block for a
# run of trials with array operations, one lane per trial: numpy's
# SeedSequence on uint32 lanes, then every PCG64 output a trial uses, each by
# one jump ahead from the seeded state, in 128-bit arithmetic on four 32-bit
# limbs held in uint64.

_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence hashmix of the entropy
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # SeedSequence.generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _uint32_words(v: int) -> list[int]:
    """uint32 words of v >= 0, least significant first; 0 is one word."""
    words = [v & _M32]
    while v >> 32:
        v >>= 32
        words.append(v & _M32)
    return words


def _seed_state(entropy: list) -> list[np.ndarray]:
    """The 8 uint32 words of ``SeedSequence(entropy).generate_state(4, np.uint64)`` per lane.

    ``entropy`` holds one entry per entropy word: a uint32 array of one
    value per lane, or an int that every lane shares.  A shared word is
    hashed as an int, reduced mod 2**32 where the uint32 lanes would wrap,
    until it meets a lane word; at least one word must vary by lane.  The
    hash constant advances by call, not by value, so it is the same Python
    int in every lane.
    """
    h = _INIT_A

    def wrap(v):
        return v & _M32 if isinstance(v, int) else v

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * _MULT_A & _M32
        v = wrap(v * h)
        return v ^ (v >> 16)

    def mix(x, y):
        r = wrap(wrap(x * _MIX_L) - wrap(y * _MIX_R))
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    out = []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * _MULT_B & _M32
        v = v * h
        out.append(v ^ (v >> 16))
    return out


@lru_cache(maxsize=None)
def _jump_tables(outputs: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Limbs of (M**(k+1), 1 + M + ... + M**(k+1)) mod 2**128 for k = 1 .. outputs.

    PCG64 seeded with (S, inc) holds M*S + (M + 1)*inc before its first
    output, so output k reads the state A_k*S + G_k*inc of these tables.
    """
    a, g, power, total = [], [], _PCG_MULT, 1 + _PCG_MULT
    for _ in range(outputs):
        power = power * _PCG_MULT % 2 ** 128
        total = (total + power) % 2 ** 128
        a.append(power)
        g.append(total)

    def limbs(values):  # four 32-bit limbs, least significant first
        return [np.array([v >> (32 * i) & _M32 for v in values], dtype=np.uint64)
                for i in range(4)]

    return limbs(a), limbs(g)


def _pcg_outputs(s: list[np.ndarray], inc: list[np.ndarray], outputs: int) -> np.ndarray:
    """The first ``outputs`` PCG64 outputs of each lane, (lanes, outputs) uint64.

    ``s`` and ``inc`` are limbs of (lanes, 1) of the seeding state and the
    odd increment.  The product limbs are summed by column: a column below
    the top keeps the low halves of its products and passes the high halves
    on, and the top column wraps mod 2**64, of which only mod 2**32 is kept.
    """
    a, g = _jump_tables(outputs)
    cols = [0, 0, 0, 0]
    for x, c in ((s, a), (inc, g)):
        for i in range(4):
            for j in range(4 - i):
                prod = x[i] * c[j]
                if i + j == 3:
                    cols[3] = cols[3] + prod
                else:
                    cols[i + j] = cols[i + j] + (prod & _M32)
                    cols[i + j + 1] = cols[i + j + 1] + (prod >> 32)
    limbs = []
    for i in range(4):
        limbs.append(cols[i] & _M32)
        if i < 3:
            cols[i + 1] = cols[i + 1] + (cols[i] >> 32)
    # XSL-RR: rotr64(hi ^ lo, hi >> 58)
    v = ((limbs[3] ^ limbs[1]) << 32) | (limbs[2] ^ limbs[0])
    rot = limbs[3] >> 26
    return (v >> rot) | (v << ((64 - rot) & 63))


def _per_row(v, fn):
    """fn(v) for a scalar v; for an int ndarray, fn of each element, once per distinct value."""
    if not isinstance(v, np.ndarray):
        return fn(v)
    keys, at = np.unique(v, return_inverse=True)
    return np.array([fn(int(key)) for key in keys])[at]


def _draw_trials(d: int, e_min: int, e_max, float32: bool, seed: int, cell_index,
                 first, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of ``m`` trials and which rows to redraw.

    Row r equals ``gen_worst_case_block(d, e_min, e_max, trial_rng(seed,
    cell_index, first + r), float32)`` wherever its redraw flag is off.
    ``e_max``, ``cell_index`` and ``first`` may instead be int arrays of one
    value per row, ``first`` then holding each row's trial index, so that a
    run of trials may cross cells.  A flag is on where a Fisher-Yates draw
    would take numpy's Lemire redraw path; on every row when the entropy is
    not modelled here (a seed that is not a non-negative int, a trial index
    from 2**32); and on the rows whose cell index takes another number of
    uint32 entropy words than row 0's.  A trial uses 2n outputs: n doubles,
    n sign coins as uint32 halves of n/2 outputs, and n - 1 Fisher-Yates
    draws (r = n .. 2) from the last n/2; n is even, so no uint32 half
    carries over between the phases.
    """
    n = 4 ** d
    trials = first if isinstance(first, np.ndarray) else np.arange(first, first + m)
    if not (isinstance(seed, (int, np.integer)) and seed >= 0 and int(trials.max()) < 2 ** 32):
        return np.zeros((m, n)), np.ones(m, dtype=bool)
    other = None
    if not isinstance(cell_index, np.ndarray):
        cell_words = _uint32_words(int(cell_index))
    else:
        cells = cell_index.astype(np.uint64)
        count = len(_uint32_words(int(cells[0])))
        other = np.where(cells >> 32 == 0, 1, 2) != count  # an index below 2**64 takes 1 or 2
        cell_words = [(cells >> (32 * i) & _M32).astype(np.uint32) for i in range(count)]
    entropy = _uint32_words(int(seed)) + cell_words + [trials.astype(np.uint32)]
    w = [v.astype(np.uint64)[:, None] for v in _seed_state(entropy)]
    # generate_state words pair into uint64 s0..s3; S = s0:s1, inc = (s2:s3 << 1) | 1
    s = [w[2], w[3], w[0], w[1]]
    inc = [((w[6] << 1) | 1) & _M32, ((w[7] << 1) | (w[6] >> 31)) & _M32,
           ((w[4] << 1) | (w[7] >> 31)) & _M32, ((w[5] << 1) | (w[4] >> 31)) & _M32]
    out = _pcg_outputs(s, inc, 2 * n)
    edges = np.array(_per_row(e_max, lambda top: _band_edges(e_min, top, n)))
    lo, hi = edges[..., :-1], edges[..., 1:]
    vals = lo + (hi - lo) * ((out[:, :n] >> 11) * 2.0 ** -53)
    if float32:
        vals = vals.astype(np.float32).astype(np.float64)
    halves = np.stack((out[:, n:] & _M32, out[:, n:] >> 32), axis=2).reshape(m, 2 * n)
    vals = np.where(halves[:, :n] >> 31 == 1, -vals, vals)
    r = np.arange(n, 1, -1, dtype=np.uint64)
    scaled = halves[:, n:2 * n - 1] * r  # Lemire: the draw is (u32 * r) >> 32
    redraw = ((scaled & _M32) < (2 ** 32 - r) % r).any(axis=1)
    if other is not None:
        redraw |= other
    picks = (scaled >> 32).astype(np.intp)
    lanes = np.arange(m)
    for col, i in enumerate(range(n - 1, 0, -1)):
        j = picks[:, col]
        held = vals[:, i].copy()
        vals[:, i] = vals[lanes, j]
        vals[lanes, j] = held
    return vals, redraw


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


def applicable_bound_exact(p: CodecParams) -> Fraction:
    """The proved round-trip constant: K_beta where :func:`.bounds.k_beta_applies`, else B_beta."""
    inp = BoundInputs(d=p.d, k=p.k, q=p.q, beta=p.beta)
    if k_beta_applies(p.d, p.q, p.beta):
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


def _exact_errors(xs: Sequence[float], ws: Sequence[float], bound: Fraction,
                  rho: int | None) -> tuple[float, float, bool]:
    """(err_block, err_comp, violation) of a nonzero block ``xs`` decoded to ``ws``.

    Exact comparisons against ``bound``, and against bound * 2**rho per
    component unless ``rho`` is None (then err_comp is 0).
    """
    x_ints, w_ints = _exact_ints(xs, ws)
    errs = [abs(w - x) for w, x in zip(w_ints, x_ints)]
    max_x = max(map(abs, x_ints))
    max_err = max(errs)
    num, den = bound.numerator, bound.denominator
    violation = max_err * den > num * max_x
    err_comp = 0.0
    if rho is not None:
        comp_scale = num << rho
        for e, x in zip(errs, x_ints):
            if x == 0:
                continue
            ax = abs(x)
            if e * den > comp_scale * ax:
                violation = True
            r = _ratio(e, ax)
            if r > err_comp:
                err_comp = r
    return _ratio(max_err, max_x), err_comp, violation


def measure(values: Sequence[float], p: CodecParams,
            e_min: int | None = None, e_max: int | None = None,
            seed: int = 0, trial: int = 0,
            bound: Fraction | None = None) -> ExperimentRecord:
    """Round-trip one nonzero block and compare both error metrics.

    e_min/e_max scope the componentwise bound; when omitted they are
    derived from the block's own bit positions.  Violation flags come from
    exact integer comparisons, never from the reported floats.  A block that
    decodes beyond the float64 range raises ValueError.
    """
    values = [float(v) for v in values]
    if not any(values):
        raise ValueError("measure requires a nonzero block")
    if e_min is None or e_max is None:
        e_min, e_max = derive_exponents(values)
    rho = e_max - e_min
    if bound is None:
        bound = applicable_bound_exact(p)
    nb = compress_block(values, p)
    try:
        decoded = decompress_block(nb, p)[1]
    except OverflowError:
        raise ValueError("block decodes beyond the float64 range") from None
    err_block, err_comp, violation = _exact_errors(values, decoded, bound, rho)
    return ExperimentRecord(
        d=p.d, k=p.k, q=p.q, beta=p.beta, e_min=e_min, e_max=e_max,
        seed=seed, trial=trial,
        err_block=err_block,
        err_comp=err_comp,
        k_beta=float(bound),
        comp_bound=float(bound) * float(2 ** rho),
        violation=violation,
    )


# ---------------------------------------------------------------------------
# batched exact measurement

_SPAN = 330  # widest spread of operand exponents in a row the filter takes
_NORMAL = (2.0 ** -1022, 2.0 ** 1022)  # nonzero operands outside go to the exact path
_UP = 1.0 + 2.0 ** -50
_DOWN = 1.0 - 2.0 ** -50
_TINY = 2.0 ** -1000  # a product this small may have lost bits to underflow
_CAP = 2.0 ** 900  # lowering a lower bound keeps it one


def _float_below(r: Fraction) -> float:
    """A float <= r: the largest one, or _CAP when r is larger."""
    if r >= _CAP:
        return _CAP
    f = float(r)
    return math.nextafter(f, 0.0) if Fraction(f) > r else f


def _clear_rows(xs: np.ndarray, ws: np.ndarray, bound: Fraction, rho):
    """Which rows of (xs, ws) a float filter proves within ``bound``, and their errors.

    Returns (clear, err_block, err_comp) per row.  Row r is clear only when
    outward-rounded float bounds prove the comparisons of :func:`measure`:
    max|w - x| <= bound * max|x| and, unless ``rho`` is None,
    |w_i - x_i| <= bound * 2**rho * |x_i| for every x_i != 0, where ``rho``
    is one int or an int array of one value per row.  Each row is
    scaled by a power of two so that its operands lie in [2**-(_SPAN+1), 1),
    and ``w - x = s + t`` exactly by TwoSum, so |w - x| <= |s| + ulp(s)/2
    <= fl(|s| * _UP), while fl(fl(K * |x|) * _DOWN) <= K * |x| for a float
    K below the bound.  For clear rows err_block and err_comp are the floats
    :func:`measure` reports, from exact ints taken only at each row's
    arg-max candidates; for the others they are 0.  A row that is all zero
    in ``xs`` or not finite, has a nonzero operand outside the normal range
    or spans more than _SPAN binades is never clear.
    """
    m = len(xs)
    clear = np.zeros(m, dtype=bool)
    err_block = np.zeros(m)
    err_comp = np.zeros(m)
    both = np.abs(np.concatenate([xs, ws], axis=1))
    nonzero = both != 0.0
    fits = (~nonzero | ((both >= _NORMAL[0]) & (both < _NORMAL[1]))).all(axis=1)
    fits &= nonzero[:, :xs.shape[1]].any(axis=1)
    exps = np.frexp(both)[1]
    top = np.where(nonzero, exps, -2000).max(axis=1)
    fits &= top - np.where(nonzero, exps, 2000).min(axis=1) <= _SPAN
    rows = np.flatnonzero(fits)
    if not rows.size:
        return clear, err_block, err_comp
    x = np.ldexp(xs[rows], -top[rows, None])  # exact: no operand leaves the normal range
    w = np.ldexp(ws[rows], -top[rows, None])
    s = w - x  # TwoSum(w, -x)
    x_virtual = s - w
    w_virtual = s - x_virtual
    t = (w - w_virtual) - (x + x_virtual)
    abs_s = np.abs(s)
    abs_x = np.abs(x)
    max_s = abs_s.max(axis=1)
    max_x = abs_x.max(axis=1)
    lim = _float_below(bound) * max_x * _DOWN
    ok = (max_s * _UP <= lim) & (lim >= _TINY)
    if rho is not None:
        k = _per_row(rho, lambda r: _float_below(bound * 2 ** r))
        lim = (k[rows, None] if isinstance(k, np.ndarray) else k) * abs_x * _DOWN
        ok &= ((abs_x == 0.0) | ((abs_s * _UP <= lim) & (lim >= _TINY))).all(axis=1)
    rows, x, w, s, t, abs_s, abs_x, max_s, max_x = (
        v[ok] for v in (rows, x, w, s, t, abs_s, abs_x, max_s, max_x))
    clear[rows] = True
    # The reported floats.  |w_i - x_i| = |s_i| + sign(s_i) * t_i, so the
    # exact arg-max has the largest signed t among the ties of |s|.  Every
    # operand is a multiple of 2**-(_SPAN+54) below 1, so the exact ints of
    # :func:`measure` stay below 400 bits and its _ratio is the correctly
    # rounded quotient: where t = 0 that is the float quotient of |s| by |x|.
    j_err = np.where(abs_s == max_s[:, None], np.sign(s) * t, -np.inf).argmax(axis=1)
    blk = max_s / max_x
    inexact = t[np.arange(len(t)), j_err] != 0.0
    cmp = np.zeros(len(rows))
    if rho is not None:
        # fl(|s_i| / |x_i|) is within a factor 1 +- 2**-51 of the exact ratio,
        # so the largest correctly rounded ratio is at a near-largest estimate
        with np.errstate(divide="ignore", invalid="ignore"):
            est = np.where(abs_x != 0.0, abs_s / abs_x, 0.0)
        cmp = est.max(axis=1)
        near = est >= (cmp * (1.0 - 2.0 ** -48))[:, None]
        inexact |= (near & (t != 0.0)).any(axis=1)
    for r in np.flatnonzero(inexact).tolist():
        pick = [int(j_err[r]), int(abs_x[r].argmax())]
        if rho is not None:
            pick += np.flatnonzero(near[r]).tolist()
        x_ints, w_ints = _exact_ints(x[r, pick].tolist(), w[r, pick].tolist())
        blk[r] = _ratio(abs(w_ints[0] - x_ints[0]), abs(x_ints[1]))
        cmp[r] = max([0.0] + [_ratio(abs(b - a), abs(a))
                              for a, b in zip(x_ints[2:], w_ints[2:]) if a])
    err_block[rows] = blk
    err_comp[rows] = cmp
    return clear, err_block, err_comp


def _check_run(xs: np.ndarray, ws: np.ndarray, bound: Fraction, rho):
    """(err_block, err_comp, violation) per row of blocks ``xs`` decoded to ``ws``.

    The floats and verdicts of :func:`_exact_errors`: :func:`_clear_rows`
    clears what it can, and every other row is compared in exact ints.
    ``rho`` is None, one int, or an int array of one value per row.
    """
    clear, err_block, err_comp = _clear_rows(xs, ws, bound, rho)
    violation = np.zeros(len(xs), dtype=bool)
    for r in np.flatnonzero(~clear).tolist():
        rho_r = int(rho[r]) if isinstance(rho, np.ndarray) else rho
        err_block[r], err_comp[r], violation[r] = _exact_errors(
            xs[r].tolist(), ws[r].tolist(), bound, rho_r)
    return err_block, err_comp, violation


# ---------------------------------------------------------------------------
# sweeps


def _round_trip(blocks: np.ndarray, p: CodecParams) -> np.ndarray:
    """Decoded values of the rows of ``blocks`` through the batch stages, for every q.

    Values beyond the float64 range come back as inf; the batch forward
    stage raises as the scalar stages do.
    """
    from .codec import batch

    live, e_max = batch.block_exponents(blocks)
    out = np.zeros_like(blocks)
    out[live] = batch.decode_blocks(e_max, batch.forward(blocks, live, e_max, p), p)
    return out


def _run_beta(spec: WorstCaseSpec, p: CodecParams, cells: list[tuple[int, int]]):
    """The cells ``(cell_index, rho)`` of one beta, run as one stream of trials.

    The stream holds every trial of the first cell, then of the next, and
    takes :func:`.codec.batch.chunk_rows` of them at a time through
    :func:`_draw_trials`, :func:`_round_trip` and :func:`_check_run`, so a
    run may cross cells.  Only a violating trial goes to :func:`measure` for
    its ExperimentRecord.  Each cell's errors are summed in trial order, so
    a cell equals a per-trial loop over :func:`measure` bit for bit.

    Returns ``(results, None)``, one ``(SweepCell, violators)`` per cell,
    or ``(None, (cell_index, error))`` for the lowest cell whose trials
    raise: a ValueError for a trial that decodes beyond the float64 range,
    or what the stages raise.  In a stream of several cells, the cells of a
    failing run are run again one at a time; a single cell's runs are those
    of a loop over single cells, so the error is the one that loop raises.
    """
    from .codec import batch

    trials = spec.trials
    total = len(cells) * trials
    err_block, err_comp = np.empty(total), np.empty(total)
    violators: list[list[ExperimentRecord]] = [[] for _ in cells]
    bound = applicable_bound_exact(p)
    rows = batch.chunk_rows(p)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        at, first = divmod(start, trials)
        if at == (stop - 1) // trials:  # a run inside one cell passes scalars, which broadcast
            cell, rho = cells[at]
        else:
            lanes, first = np.divmod(np.arange(start, stop), trials)
            cell, rho = np.array(cells)[lanes].T
        try:
            blocks, redraw = _draw_trials(spec.d, spec.e_min, spec.e_min + rho, spec.float32,
                                          spec.seed, cell, first, stop - start)
            for r in np.flatnonzero(redraw).tolist():
                k, t = divmod(start + r, trials)
                blocks[r] = gen_worst_case_block(spec.d, spec.e_min, spec.e_min + cells[k][1],
                                                 trial_rng(spec.seed, cells[k][0], t),
                                                 spec.float32)
            out = _round_trip(blocks, p)
            finite = np.isfinite(out).all(axis=1)
            if not finite.all():
                k, t = divmod(start + int(finite.argmin()), trials)
                raise ValueError(f"trial {t} of the cell rho={cells[k][1]}, beta={p.beta} "
                                 f"decodes beyond the float64 range")
            err_block[start:stop], err_comp[start:stop], violation = _check_run(
                blocks, out, bound, rho)
            for r in np.flatnonzero(violation).tolist():
                k, t = divmod(start + r, trials)
                violators[k].append(measure(blocks[r].tolist(), p, e_min=spec.e_min,
                                            e_max=spec.e_min + cells[k][1], seed=spec.seed,
                                            trial=t, bound=bound))
        except (ArithmeticError, RuntimeError, ValueError) as error:
            if len(cells) == 1:
                return None, (cells[0][0], error)
            for k in range(start // trials, (stop - 1) // trials + 1):
                _, failure = _run_beta(spec, p, [cells[k]])
                if failure:
                    return None, failure
            raise
    results = []
    for k, (cell, rho) in enumerate(cells):
        blk = err_block[k * trials:(k + 1) * trials].tolist()
        cmp = err_comp[k * trials:(k + 1) * trials].tolist()
        blk_sum = cmp_sum = 0.0
        for b, c in zip(blk, cmp):
            blk_sum += b
            cmp_sum += c
        results.append((SweepCell(
            d=spec.d, k=spec.k, q=spec.q, beta=p.beta, e_min=spec.e_min, e_max=spec.e_min + rho,
            err_block_min=min(blk), err_block_max=max(blk), err_block_mean=blk_sum / trials,
            err_comp_min=min(cmp), err_comp_max=max(cmp), err_comp_mean=cmp_sum / trials,
            k_beta=float(bound), comp_bound=float(bound) * float(2 ** rho),
            violations=len(violators[k])), violators[k]))
    return results, None


def thread_budget(requested: int | None = None) -> int:
    """Worker count: requested (or cpu count), capped by ZFPKIT_THREADS."""
    if requested is not None and requested < 1:
        raise ValueError(f"threads must be at least 1, got {requested}")
    n = requested or os.cpu_count() or 1
    cap = os.environ.get("ZFPKIT_THREADS")
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            raise ValueError(f"ZFPKIT_THREADS must be an integer, got {cap!r}") from None
        if limit < 1:
            raise ValueError(f"ZFPKIT_THREADS must be at least 1, got {limit}")
        n = min(n, limit)
    return n


def sweep(spec: WorstCaseSpec, threads: int | None = None):
    """Run every (rho, beta) cell; returns (cells, violating records).

    The cells of one beta run as one stream of trials (:func:`_run_beta`),
    and a worker pool takes a beta at a time, so a sweep of one beta runs in
    one process.  Every beta's CodecParams is built before any trial runs.
    Results are identical whatever the worker count, because each trial's
    RNG stream depends only on (seed, cell index, trial index) and cells
    are gathered in enumeration order.  When trials fail, the error raised
    is the one of the lowest failing cell, as a loop over the cells in
    enumeration order would raise it.
    """
    n_workers = thread_budget(threads)
    params = {beta: CodecParams(spec.d, spec.k, spec.q, beta,
                                allow_wide_beta=spec.allow_wide_beta)
              for beta in spec.betas}
    groups: dict[int, list[tuple[int, int]]] = {}
    for cell, rho, beta in spec.cells():
        groups.setdefault(beta, []).append((cell, rho))
    if n_workers > 1 and len(groups) > 1:
        # imported here: the pool machinery costs every `import zfpkit` ~17 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(n_workers, len(groups))) as pool:
            outcomes = list(pool.map(_run_beta, repeat(spec), map(params.get, groups),
                                     groups.values()))
    else:
        outcomes, lowest = [], math.inf
        for beta, cells in groups.items():
            # cells above a failure already found cannot change the error raised
            outcomes.append(_run_beta(spec, params[beta], [c for c in cells if c[0] < lowest]))
            if outcomes[-1][1]:
                lowest = min(lowest, outcomes[-1][1][0])
    failures = [failure for _, failure in outcomes if failure]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    done = {}
    for cells, (results, _) in zip(groups.values(), outcomes):
        done.update(zip((cell for cell, _ in cells), results))
    results = [done[cell] for cell in sorted(done)]
    return [cell for cell, _ in results], [rec for _, recs in results for rec in recs]


SWEEP_CSV_HEADER = ("d,k,q,beta,emin,emax,err_block_min,err_block_max,"
                    "err_comp_min,err_comp_max,K_beta,comp_bound,violations,slack")


def write_sweep_csv(cells: Iterable[SweepCell], fh) -> None:
    """One row per cell; ``slack`` is err_block_max / K_beta, how close the cell came to the bound."""
    fh.write(SWEEP_CSV_HEADER + "\n")
    for c in cells:
        fh.write(f"{c.d},{c.k},{c.q},{c.beta},{c.e_min},{c.e_max},"
                 f"{c.err_block_min:.10g},{c.err_block_max:.10g},"
                 f"{c.err_comp_min:.10g},{c.err_comp_max:.10g},"
                 f"{c.k_beta:.10g},{c.comp_bound:.10g},{c.violations},"
                 f"{c.err_block_max / c.k_beta:.10g}\n")


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
                 b_e: int | None = None) -> list[GridAnalysisRow]:
    """Per-beta worst block error and compression ratio for one grid.

    Each nonzero block of ``partition(grid)`` is compared with the block
    that beta's container decodes to (DecodeError if one leaves the float64
    range), a run of the container reader at a time.  The bound column
    carries the constant that applies to each beta (the loose one in the
    wide regime).  Violations are counted with exact arithmetic and should
    always be zero (:func:`_check_run`).  ``b_e`` goes to
    :func:`.codec.compress`, where None picks the exponent field width.
    """
    from .codec.stream import _decode

    grid = np.asarray(grid, dtype=np.float64)
    blocks = _block_array(grid)
    live = blocks.any(axis=1)
    raw_bytes = grid.size * scalar_bytes
    rows = []
    for beta in betas:
        p = CodecParams(grid.ndim, k, q, beta, allow_wide_beta=allow_wide_beta)
        payload = compress(grid, p, b_e=b_e)
        bound = applicable_bound_exact(p)
        worst = 0.0
        violations = 0
        for first, ws in _decode(payload)[1]:
            run = slice(first, first + len(ws))
            err_block, _, violation = _check_run(blocks[run][live[run]], ws[live[run]],
                                                 bound, None)
            worst = max(worst, float(err_block.max(initial=0.0)))
            violations += int(np.count_nonzero(violation))
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
