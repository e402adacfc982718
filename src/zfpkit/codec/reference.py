"""Bit-vector reference pipeline: the oracle twin of the integer path.

The integer-valued stages run on plain Python ints, each written the way the
digit-string model of :mod:`zfpkit.bitvec` defines it rather than with the
fast path's two's-complement shortcuts: block floating point drops fractional
digits of each exact magnitude, floor halving of a negative value shifts
|v| + 1 (as :func:`zfpkit.bitvec.round_half` does), add and subtract are the
exact integer sums of :func:`zfpkit.bitvec.sb_add`/:func:`zfpkit.bitvec.sb_sub`,
negabinary digits come eight at a time from :func:`zfpkit.bitvec.fn_encode`,
and significand truncation keeps the top k bits of the magnitude.  No
negative int is ever right-shifted here.  ``SignedBinary``/``Negabinary``
values are built once per :class:`RefTrace` field, from those ints.

The public ``*_ref`` stage functions keep their bit-vector signatures; the
block-floating-point and transform stages convert to ints, run the private
core and convert back.  Tests drive both paths in lockstep and require
bit-identical intermediates, so the fast path's shortcuts are verified, not
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..bitvec import (
    BitString,
    Dyadic,
    Negabinary,
    SignedBinary,
    fb_decode,
    fb_encode,
    fn_decode,
    fn_encode,
    sb_value,
    _sb_from_int,
    truncate,
)
from .params import CodecParams
from .pipeline import SEQUENCY_TABLES, _axis_lines, _inverse_table


@dataclass(frozen=True)
class RefTrace:
    """Reference-path intermediates for one block round trip."""

    e_max: int | None
    ell: int | None
    fp: tuple[SignedBinary, ...]
    transformed: tuple[SignedBinary, ...]
    permuted: tuple[SignedBinary, ...]
    nega: tuple[Negabinary, ...]
    truncated: tuple[Negabinary, ...]
    unpermuted: tuple[SignedBinary, ...]
    recovered: tuple[SignedBinary, ...]
    out_values: tuple[Dyadic, ...]

    @property
    def is_zero(self) -> bool:
        return self.e_max is None


_ZERO = SignedBinary(0, BitString.EMPTY)


def _sbs(ints) -> tuple[SignedBinary, ...]:
    return tuple(map(_sb_from_int, ints))


# ---------------------------------------------------------------------------
# private core on ints


def _exact_parts(x) -> tuple[int, int]:
    """(num, exp) with x == num * 2**exp exactly; floats via as_integer_ratio."""
    if isinstance(x, float):
        num, den = x.as_integer_ratio()
        return num, 1 - den.bit_length()
    dy = fb_decode(fb_encode(x))
    return dy.num, dy.exp


def _fp_forward(values, q: int):
    """Block floating point on ints: (ints, e_max, ell), or (zeros, None, None).

    Every value is exact as num * 2**exp; its leading digit sits at
    |num|.bit_length() - 1 + exp.  Scaling by 2**-ell moves the digits and
    the digits below position 0 are dropped from the magnitude, so the
    result rounds toward zero.
    """
    parts = []
    e_max = None
    for x in values:
        num, exp = _exact_parts(x)
        mag = -num if num < 0 else num
        parts.append((num < 0, mag, exp))
        if mag:
            hi = mag.bit_length() - 1 + exp
            if e_max is None or hi > e_max:
                e_max = hi
    if e_max is None:
        return [0] * len(parts), None, None
    ell = e_max - q + 1
    ints = []
    for neg, mag, exp in parts:
        s = exp - ell
        mag = mag << s if s >= 0 else mag >> -s
        ints.append(-mag if neg else mag)
    return ints, e_max, ell


def _floor_half(v: int) -> int:
    """floor(v / 2) without shifting a negative int: a negative v halves |v| + 1."""
    if v >= 0:
        return v >> 1
    return -((1 - v) >> 1)


def _forward_lifting(a: list, d: int) -> None:
    half = _floor_half
    for axis in reversed(range(d)):
        for i0, i1, i2, i3 in _axis_lines(d, axis):
            x0 = a[i0]
            x1 = a[i1]
            x2 = a[i2]
            x3 = a[i3]
            x0 = half(x0 + x3)
            x3 = x3 - x0
            x2 = half(x2 + x1)
            x1 = x1 - x2
            x0 = half(x0 + x2)
            x2 = x2 - x0
            x3 = half(x3 + x1)
            x1 = x1 - x3
            x3 = x3 + half(x1)
            x1 = x1 - half(x3)
            a[i0] = x0
            a[i1] = x1
            a[i2] = x2
            a[i3] = x3


def _double(v: int) -> int:
    """2v, by moving the magnitude's digits up one position."""
    return -((-v) << 1) if v < 0 else v << 1


def _inverse_lifting(a: list, d: int) -> None:
    half = _floor_half
    dbl = _double
    for axis in range(d):
        for i0, i1, i2, i3 in _axis_lines(d, axis):
            x0 = a[i0]
            x1 = a[i1]
            x2 = a[i2]
            x3 = a[i3]
            x1 = x1 + half(x3)
            x3 = x3 - half(x1)
            x1 = x1 + x3
            x3 = dbl(x3) - x1
            x2 = x2 + x0
            x0 = dbl(x0) - x2
            x1 = x1 + x2
            x2 = dbl(x2) - x1
            x3 = x3 + x0
            x0 = dbl(x0) - x3
            a[i0] = x0
            a[i1] = x1
            a[i2] = x2
            a[i3] = x3


def _significand_truncate(v: int, k: int) -> int:
    """Keep the top k bits of the magnitude of v."""
    mag = -v if v < 0 else v
    drop = mag.bit_length() - k
    if drop > 0:
        mag = (mag >> drop) << drop
    return -mag if v < 0 else mag


# ---------------------------------------------------------------------------
# public stage functions on bit vectors


def block_fp_forward_ref(values: Sequence, p: CodecParams):
    """Shared-exponent stage on bit vectors; returns (elements, e_max, ell)."""
    ints, e_max, ell = _fp_forward(values, p.q)
    if e_max is None:
        return tuple(_ZERO for _ in ints), None, None
    return _sbs(ints), e_max, ell


def transform_forward_ref(elems: Sequence[SignedBinary], p: CodecParams) -> tuple[SignedBinary, ...]:
    vals = [sb_value(e) for e in elems]
    _forward_lifting(vals, p.d)
    return _sbs(vals)


def transform_inverse_ref(elems: Sequence[SignedBinary], p: CodecParams) -> tuple[SignedBinary, ...]:
    vals = [sb_value(e) for e in elems]
    _inverse_lifting(vals, p.d)
    return _sbs(vals)


def sequency_permute_ref(elems, p: CodecParams):
    table = SEQUENCY_TABLES[p.d]
    return tuple(elems[src] for src in table)


def sequency_unpermute_ref(elems, p: CodecParams):
    table = _inverse_table(p.d)
    return tuple(elems[src] for src in table)


def to_negabinary_ref(elems: Sequence[SignedBinary]) -> tuple[Negabinary, ...]:
    return tuple(fn_encode(sb_value(sb)) for sb in elems)


def from_negabinary_ref(elems: Sequence[Negabinary]) -> tuple[SignedBinary, ...]:
    return _sbs(fn_decode(nb) for nb in elems)


def bitplane_truncate_ref(elems: Sequence[Negabinary], p: CodecParams) -> tuple[Negabinary, ...]:
    cutoff = p.q + 1 - p.beta
    out = []
    for nb in elems:
        kept = truncate(nb.digits, cutoff)
        out.append(nb if kept is nb.digits else Negabinary(kept))
    return tuple(out)


def significand_truncate_ref(v: SignedBinary, k: int) -> SignedBinary:
    if v.is_zero:
        return v
    kept = truncate(v.magnitude, v.magnitude.highest() - k)
    return SignedBinary(v.sign, kept)


def roundtrip_ref(values: Sequence, p: CodecParams) -> RefTrace:
    """Full reference round trip, keeping all intermediates."""
    ints, e_max, ell = _fp_forward(values, p.q)
    if e_max is None:
        fp = tuple(_ZERO for _ in ints)
        zeros_n = tuple(fn_encode(0) for _ in fp)
        return RefTrace(None, None, fp, fp, fp, zeros_n, zeros_n, fp, fp,
                        tuple(Dyadic(0) for _ in fp))
    d = p.d
    fp = _sbs(ints)
    _forward_lifting(ints, d)
    transformed = _sbs(ints)
    table = SEQUENCY_TABLES[d]
    permuted = tuple(transformed[src] for src in table)
    nega = tuple(fn_encode(ints[src]) for src in table)
    truncated = bitplane_truncate_ref(nega, p)
    decoded = [fn_decode(nb) for nb in truncated]
    inv = [decoded[src] for src in _inverse_table(d)]
    unpermuted = _sbs(inv)
    _inverse_lifting(inv, d)
    recovered = _sbs(inv)
    k = p.k
    out = tuple(Dyadic(_significand_truncate(v, k), ell) for v in inv)
    return RefTrace(e_max, ell, fp, transformed, permuted, nega, truncated,
                    unpermuted, recovered, out)
