"""Fast lossy block pipeline on plain Python integers.

Stage layout for one 4**d block (compression left to right):

    block-floating-point -> decorrelating transform -> sequency ordering
        -> negabinary conversion -> bit-plane truncation

Decompression applies the inverses right to left, finishing with a
significand truncation to k bits and the exponent unshift.  All integer
arithmetic matches two's-complement semantics: halving is an arithmetic
right shift (floor), while the block-floating-point rounding truncates
magnitudes toward zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .params import CodecParams, NegabinaryRangeError, TransformOverflowError


@dataclass(frozen=True)
class BlockFP:
    """Block in shared-exponent integer form.

    ``e_max`` is the largest active bit position over the source values and
    ``ell = e_max - q + 1`` the shift that scaled them to q-bit integers.
    Both are None for an all-zero block, which carries no exponent.
    """

    ints: tuple[int, ...]
    e_max: int | None
    ell: int | None

    @property
    def is_zero(self) -> bool:
        return self.e_max is None


@dataclass(frozen=True)
class NegaBlock:
    """Coefficients as base -2 digit masks (bit i = digit at position i)."""

    digits: tuple[int, ...]
    e_max: int | None

    @property
    def is_zero(self) -> bool:
        return self.e_max is None


def value_exponent(x: float) -> int:
    """Position of the leading one bit of |x| (x must be finite, nonzero)."""
    if x == 0.0 or not math.isfinite(x):
        raise ValueError(f"no exponent for {x!r}")
    return math.frexp(x)[1] - 1


# ---------------------------------------------------------------------------
# block-floating-point stage


def block_fp_forward(values, p: CodecParams) -> BlockFP:
    """Scale a block onto a shared exponent and truncate to integers.

    Each value is multiplied by 2**-ell (exact; ldexp only moves the
    exponent) and the fractional part dropped toward zero, matching the
    sign-magnitude truncation of an integer cast.
    """
    e_max = None
    for v in values:
        if v != 0.0:
            e = value_exponent(v)
            if e_max is None or e > e_max:
                e_max = e
    if e_max is None:
        return BlockFP((0,) * len(values), None, None)
    ell = e_max - p.q + 1
    ints = tuple(int(math.ldexp(v, -ell)) for v in values)
    return BlockFP(ints, e_max, ell)


def significand_truncate(v: int, k: int) -> int:
    """Keep the top k bits of |v| relative to its own leading bit."""
    if v == 0:
        return 0
    m = -v if v < 0 else v
    drop = m.bit_length() - k
    if drop <= 0:
        return v
    m = (m >> drop) << drop
    return -m if v < 0 else m


def block_fp_inverse(fp: BlockFP, p: CodecParams) -> tuple[float, ...]:
    """Round each integer to k significand bits and undo the block shift.

    With k <= 53 (enforced by CodecParams for float emission) the result is
    exactly representable, so the returned floats carry no extra rounding.
    """
    if fp.is_zero:
        return (0.0,) * len(fp.ints)
    return tuple(math.ldexp(significand_truncate(v, p.k), fp.ell) for v in fp.ints)


# ---------------------------------------------------------------------------
# decorrelating transform (14-step lifting per 4-element line)


@lru_cache(maxsize=None)
def _axis_lines(d: int, axis: int) -> tuple[tuple[int, int, int, int], ...]:
    """Flat index quadruples of every line along ``axis`` in a (4,)*d block."""
    stride = 4 ** (d - 1 - axis)
    lines = []
    for base in range(4 ** d):
        if (base // stride) % 4 == 0:
            lines.append((base, base + stride, base + 2 * stride, base + 3 * stride))
    return tuple(lines)


_ENVELOPE_MSG = "intermediate escaped the q+1-bit guard envelope"


def _lift_forward_line(a: list, i0: int, i1: int, i2: int, i3: int, lim: int):
    # x >>= 1 floors like a two's-complement arithmetic shift.  Every step is
    # pinned to the envelope by a raise, never an assert, so ``python -O``
    # keeps the checks; the line sums are checked before they are halved.
    x0 = a[i0]
    x1 = a[i1]
    x2 = a[i2]
    x3 = a[i3]
    x0 += x3
    if x0 > lim or x0 < -lim:
        raise TransformOverflowError(_ENVELOPE_MSG)
    x0 >>= 1
    x3 -= x0
    if x3 > lim or x3 < -lim:
        raise TransformOverflowError(_ENVELOPE_MSG)
    x2 += x1
    if x2 > lim or x2 < -lim:
        raise TransformOverflowError(_ENVELOPE_MSG)
    x2 >>= 1
    x1 -= x2
    if x1 > lim or x1 < -lim:
        raise TransformOverflowError(_ENVELOPE_MSG)
    x0 += x2
    if x0 > lim or x0 < -lim:
        raise TransformOverflowError(_ENVELOPE_MSG)
    x0 >>= 1
    x2 -= x0
    if x2 > lim or x2 < -lim:
        raise TransformOverflowError(_ENVELOPE_MSG)
    x3 += x1
    if x3 > lim or x3 < -lim:
        raise TransformOverflowError(_ENVELOPE_MSG)
    x3 >>= 1
    x1 -= x3
    if x1 > lim or x1 < -lim:
        raise TransformOverflowError(_ENVELOPE_MSG)
    x3 += x1 >> 1
    x1 -= x3 >> 1
    if x1 > lim or x1 < -lim or x3 > lim or x3 < -lim:
        raise TransformOverflowError(_ENVELOPE_MSG)
    a[i0] = x0
    a[i1] = x1
    a[i2] = x2
    a[i3] = x3


def _lift_inverse_line(a: list, i0: int, i1: int, i2: int, i3: int):
    # No envelope here: at small beta the plane-truncation noise, amplified
    # by the inverse transform, legitimately pushes intermediates past the
    # forward guard bit (observed up to ~4 * 2**q); arbitrary-precision ints
    # make that harmless.  The guard-bit invariant belongs to the forward pass.
    x0 = a[i0]
    x1 = a[i1]
    x2 = a[i2]
    x3 = a[i3]
    x1 += x3 >> 1
    x3 -= x1 >> 1
    x1 += x3
    x3 <<= 1
    x3 -= x1
    x2 += x0
    x0 <<= 1
    x0 -= x2
    x1 += x2
    x2 <<= 1
    x2 -= x1
    x3 += x0
    x0 <<= 1
    x0 -= x3
    a[i0] = x0
    a[i1] = x1
    a[i2] = x2
    a[i3] = x3


def transform_forward(fp: BlockFP, p: CodecParams) -> BlockFP:
    """Apply the lossy decorrelating transform along every axis.

    Lines along the contiguous (last) axis are lifted first, then each
    earlier axis in turn; the inverse walks axes in the opposite order.
    Intermediates are checked against the q+1-bit guard envelope.
    """
    if fp.is_zero:
        return fp
    vals = list(fp.ints)
    lim = 1 << (p.q + 1)
    for axis in reversed(range(p.d)):
        for i0, i1, i2, i3 in _axis_lines(p.d, axis):
            _lift_forward_line(vals, i0, i1, i2, i3, lim)
    return BlockFP(tuple(vals), fp.e_max, fp.ell)


def transform_inverse(fp: BlockFP, p: CodecParams) -> BlockFP:
    """Backward lifting along every axis, in reverse of the forward order."""
    if fp.is_zero:
        return fp
    vals = list(fp.ints)
    for axis in range(p.d):
        for i0, i1, i2, i3 in _axis_lines(p.d, axis):
            _lift_inverse_line(vals, i0, i1, i2, i3)
    return BlockFP(tuple(vals), fp.e_max, fp.ell)


# ---------------------------------------------------------------------------
# total sequency ordering

# Pinned permutations: position j of the output takes input index TABLE[j].
# Generated by sequency_order() below; tests assert the two stay in sync so
# the serialized coefficient order never drifts.
SEQUENCY_TABLES: dict[int, tuple[int, ...]] = {
    1: (0, 1, 2, 3),
    2: (0, 4, 1, 8, 5, 2, 12, 9, 6, 3, 13, 10, 7, 14, 11, 15),
    3: (0, 16, 4, 1, 32, 20, 17, 8, 5, 2, 48, 36, 33, 24, 21, 18,
        12, 9, 6, 3, 52, 49, 40, 37, 34, 28, 25, 22, 19, 13, 10, 7,
        56, 53, 50, 44, 41, 38, 35, 29, 26, 23, 14, 11, 60, 57, 54, 51,
        45, 42, 39, 30, 27, 15, 61, 58, 55, 46, 43, 31, 62, 59, 47, 63),
}


def sequency_order(d: int) -> tuple[int, ...]:
    """Derive the sequency permutation for dimension d.

    Row-major indices are sorted by coordinate sum (the "frequency" proxy),
    ties broken by descending lexicographic order of the coordinate vector.
    """
    n = 4 ** d

    def coords(flat: int) -> tuple[int, ...]:
        cs = []
        for axis in range(d):
            cs.append((flat >> (2 * (d - 1 - axis))) & 3)
        return tuple(cs)

    return tuple(sorted(range(n), key=lambda f: (sum(coords(f)), tuple(-c for c in coords(f)))))


@lru_cache(maxsize=None)
def _inverse_table(d: int) -> tuple[int, ...]:
    table = SEQUENCY_TABLES[d]
    inv = [0] * len(table)
    for j, src in enumerate(table):
        inv[src] = j
    return tuple(inv)


def sequency_permute(fp: BlockFP, p: CodecParams) -> BlockFP:
    table = SEQUENCY_TABLES[p.d]
    return BlockFP(tuple(fp.ints[src] for src in table), fp.e_max, fp.ell)


def sequency_unpermute(fp: BlockFP, p: CodecParams) -> BlockFP:
    table = _inverse_table(p.d)
    return BlockFP(tuple(fp.ints[src] for src in table), fp.e_max, fp.ell)


# ---------------------------------------------------------------------------
# negabinary conversion

_ALT_WORD = 0xAAAA  # bits at odd positions, 16 wide


@lru_cache(maxsize=None)
def _alt_mask(nbits: int) -> int:
    """0b...1010 mask covering at least nbits positions (top set bit odd)."""
    words = max(1, (nbits + 15) // 16)
    return int("aaaa" * words, 16)


def nega_encode(v: int, q: int) -> int:
    """Digit mask of v in base -2, restricted to q+2 digit positions.

    Adding the alternating mask m carries every odd-position weight into the
    positive range and xoring m back flips those digits, which is exactly
    the base -2 encoding; the trick never needs a loop.
    """
    m = _alt_mask(q + 6 if v.bit_length() < q + 4 else v.bit_length() + 3)
    u = (v + m) ^ m
    if u >> (q + 2):
        raise NegabinaryRangeError(f"{v} needs more than q+2 = {q + 2} negabinary digits")
    return u


def nega_decode(u: int) -> int:
    """Integer value of a base -2 digit mask."""
    m = _alt_mask(u.bit_length() + 2)
    return (u ^ m) - m


def to_negabinary(fp: BlockFP, p: CodecParams) -> NegaBlock:
    """Lossless conversion of block integers to digit masks (q+2 digits)."""
    if fp.is_zero:
        return NegaBlock((0,) * len(fp.ints), None)
    q = p.q
    return NegaBlock(tuple(nega_encode(v, q) for v in fp.ints), fp.e_max)


def from_negabinary(nb: NegaBlock, p: CodecParams) -> BlockFP:
    if nb.is_zero:
        return BlockFP((0,) * len(nb.digits), None, None)
    ints = tuple(nega_decode(u) for u in nb.digits)
    return BlockFP(ints, nb.e_max, nb.e_max - p.q + 1)


# ---------------------------------------------------------------------------
# bit-plane truncation


def bitplane_truncate(nb: NegaBlock, p: CodecParams) -> NegaBlock:
    """Zero all digit positions <= q + 1 - beta, keeping the top beta planes."""
    cut = p.q + 2 - p.beta
    if cut <= 0 or nb.is_zero:
        return nb
    keep = ~((1 << cut) - 1)
    return NegaBlock(tuple(u & keep for u in nb.digits), nb.e_max)


# ---------------------------------------------------------------------------
# whole-block helpers


@dataclass(frozen=True)
class PipelineTrace:
    """Every intermediate stage of one block round trip (for verification)."""

    fp: BlockFP
    transformed: BlockFP
    permuted: BlockFP
    nega: NegaBlock
    truncated: NegaBlock
    unpermuted: BlockFP
    recovered: BlockFP
    out_ints: tuple[int, ...]
    out_values: tuple[float, ...]


def _forward_stages(values, p: CodecParams):
    """(fp, transformed, permuted, nega, truncated) of one block.

    An all-zero block skips every stage: its three BlockFP stages are the
    zero BlockFP and both negabinary stages the zero NegaBlock.
    """
    fp = block_fp_forward(values, p)
    if fp.is_zero:
        zero = NegaBlock(fp.ints, None)
        return fp, fp, fp, zero, zero
    transformed = transform_forward(fp, p)
    permuted = sequency_permute(transformed, p)
    nega = to_negabinary(permuted, p)
    return fp, transformed, permuted, nega, bitplane_truncate(nega, p)


def _inverse_stages(nb: NegaBlock, p: CodecParams):
    """(unpermuted, recovered, out_ints, out_values) of one block."""
    if nb.is_zero:
        n = len(nb.digits)
        zero = BlockFP((0,) * n, None, None)
        return zero, zero, (0,) * n, (0.0,) * n
    unpermuted = sequency_unpermute(from_negabinary(nb, p), p)
    recovered = transform_inverse(unpermuted, p)
    out_ints = tuple(significand_truncate(v, p.k) for v in recovered.ints)
    out_values = tuple(math.ldexp(v, recovered.ell) for v in out_ints)
    return unpermuted, recovered, out_ints, out_values


def compress_block(values, p: CodecParams) -> NegaBlock:
    """Forward pipeline: values -> truncated negabinary coefficients."""
    return _forward_stages(values, p)[4]


def decompress_block(nb: NegaBlock, p: CodecParams) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Backward pipeline; returns (significand-truncated ints, values)."""
    return _inverse_stages(nb, p)[2:]


def pipeline_trace(values, p: CodecParams) -> PipelineTrace:
    """Run one block through every stage, keeping all intermediates."""
    forward = _forward_stages(values, p)
    return PipelineTrace(*forward, *_inverse_stages(forward[4], p))
