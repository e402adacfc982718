"""Batched block pipeline: blocks of a grid at once, on int64/uint64 arrays.

The scalar stage functions in :mod:`.pipeline` remain the specification.
This module computes the same digit masks and decoded values for every q
and alone picks the path: up to MAX_Q each stage runs as array operations
over an ``(nblocks, 4**d)`` array of uint64 masks, above it each block runs
the scalar stages on Python-int masks.  It does arithmetic only:
:mod:`.stream` writes and reads the container records, and the two modules
exchange only block exponents and digit masks, a run of :func:`chunk_rows`
blocks at a time, so memory stays bounded whatever the grid size.  The
bound harness in :mod:`zfpkit.experiments` is the second client: a sweep
round-trips each run of generated trials through :func:`block_exponents`,
:func:`forward` and :func:`decode_blocks` without a container.

* Forward: block floating point keeps |ints| <= 2**q - 1, so every lifting
  intermediate stays within 2**(q+1) - 2 and every line output within
  2**q - 1 (checked exhaustively at q = 4), and int64 never wraps for
  q <= 62.  The guard envelope and the negabinary range are still checked,
  and raise the scalar path's errors.  Negabinary digits and truncation run
  on uint64.
* Inverse: intermediates can reach about 4 * 2**q, which wraps int64 at
  q >= 61.  Every add, subtract and doubling step records whether it
  wrapped; each block that wrapped anywhere (negabinary decoding included)
  is decoded again by the scalar :func:`.pipeline.decompress_block`, so
  wrapped results are never used.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .params import CodecParams, NegabinaryRangeError, TransformOverflowError
from .pipeline import (_ENVELOPE_MSG, SEQUENCY_TABLES, NegaBlock, _inverse_table, compress_block,
                       decompress_block)

MAX_Q = 62  # forward lifting intermediates stay below 2**(q+1) - 1 <= 2**63 - 1

_CHUNK_VALUES = 1 << 12  # values per run of blocks
_EVEN = 0x5555555555555555  # digit positions of weight +2**i
_ODD = 0xAAAAAAAAAAAAAAAA  # digit positions of weight -2**i


@lru_cache(maxsize=None)
def _perm(d: int, inverse: bool) -> np.ndarray:
    table = np.array(_inverse_table(d) if inverse else SEQUENCY_TABLES[d], dtype=np.intp)
    table.flags.writeable = False
    return table


def _digit_type(p: CodecParams) -> type:
    """Digit masks are uint64 while the q + 2 digit positions fit 64 bits, Python ints above."""
    return np.uint64 if p.q <= MAX_Q else object


def chunk_rows(p: CodecParams) -> int:
    """Blocks coded or decoded together; this bounds each run's temporaries
    (at most a few MB for q <= 62: the stream bits of a run and the bits of
    its kept planes, one byte per bit, with their int64 stream positions)."""
    return _CHUNK_VALUES // p.n


def _lines(blk: np.ndarray, axis: int) -> list[np.ndarray]:
    """Views of coordinates 0..3 along one block axis of an (m, 4, ..., 4) array."""
    head = (slice(None),) * (axis + 1)
    return [blk[head + (i,)] for i in range(4)]


def _guard(lim: int | None, *xs: np.ndarray) -> None:
    """Raise TransformOverflowError if an entry of ``xs`` leaves [-lim, lim] (None: no check)."""
    if lim is not None and any(x.max() > lim or x.min() < -lim for x in xs):
        raise TransformOverflowError(_ENVELOPE_MSG)


def _lift_forward(ints: np.ndarray, p: CodecParams) -> None:
    """Forward lifting in place; raises if a line sum leaves the guard envelope."""
    if not ints.size:
        return
    # at q = 62 the envelope is not an int64; the input bound covers it
    _guard((1 << p.q) - 1, ints)
    lim = 1 << (p.q + 1)
    lim = lim if lim <= np.iinfo(np.int64).max else None
    blk = ints.reshape((-1,) + (4,) * p.d)
    for axis in reversed(range(p.d)):
        x0, x1, x2, x3 = _lines(blk, axis)
        x0 += x3
        _guard(lim, x0)
        x0 >>= 1
        x3 -= x0
        x2 += x1
        _guard(lim, x2)
        x2 >>= 1
        x1 -= x2
        x0 += x2
        _guard(lim, x0)
        x0 >>= 1
        x2 -= x0
        x3 += x1
        _guard(lim, x3)
        x3 >>= 1
        x1 -= x3
        x3 += x1 >> 1
        x1 -= x3 >> 1
        _guard(lim, x1, x3)


def _add(x: np.ndarray, y: np.ndarray, wrap: np.ndarray) -> None:
    r = x + y
    wrap |= (x ^ r) & (y ^ r)  # sign bit set where the sum wrapped
    x[...] = r


def _sub(x: np.ndarray, y: np.ndarray, wrap: np.ndarray) -> None:
    r = x - y
    wrap |= (x ^ y) & (x ^ r)
    x[...] = r


def _dbl(x: np.ndarray, wrap: np.ndarray) -> None:
    r = x << 1
    wrap |= x ^ r
    x[...] = r


def _lift_inverse(v: np.ndarray, p: CodecParams) -> np.ndarray:
    """Inverse lifting in place; returns per block whether any step wrapped int64.

    A wrapped block holds garbage from that step on; the flag is exact, so
    only blocks whose Python-int intermediates leave int64 are flagged.
    """
    blk = v.reshape((-1,) + (4,) * p.d)
    wrapped = np.zeros(len(v), dtype=bool)
    for axis in range(p.d):
        x0, x1, x2, x3 = _lines(blk, axis)
        wrap = np.zeros_like(x0)
        _add(x1, x3 >> 1, wrap)
        _sub(x3, x1 >> 1, wrap)
        _add(x1, x3, wrap)
        _dbl(x3, wrap)
        _sub(x3, x1, wrap)
        _add(x2, x0, wrap)
        _dbl(x0, wrap)
        _sub(x0, x2, wrap)
        _add(x1, x2, wrap)
        _dbl(x2, wrap)
        _sub(x2, x1, wrap)
        _add(x3, x0, wrap)
        _dbl(x0, wrap)
        _sub(x0, x3, wrap)
        wrapped |= wrap.reshape(len(v), -1).min(axis=1) < 0
    return wrapped


def _nega_range(q: int) -> tuple[int, int]:
    """Smallest and largest integer with q+2 negabinary digits, clipped to int64."""
    digits = (1 << (q + 2)) - 1
    return max(-(digits & _ODD), -(1 << 63)), digits & _EVEN


def block_exponents(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(live, e_max): which rows hold a nonzero value, and e_max of each such row."""
    nonzero = blocks != 0.0
    live = nonzero.any(axis=1)
    exps = np.frexp(blocks)[1]
    # e_max stays int32: np.ldexp has a fast loop for int32 exponents only
    return live, np.where(nonzero, exps, np.iinfo(exps.dtype).min)[live].max(axis=1) - 1


def forward(blocks: np.ndarray, live: np.ndarray, e_max: np.ndarray,
            p: CodecParams) -> np.ndarray:
    """Truncated digit masks of the live rows of ``blocks`` (see :func:`_digit_type`).

    ``live`` and ``e_max`` are from :func:`block_exponents`.  Raises
    TransformOverflowError or NegabinaryRangeError like the scalar stages.
    """
    if p.q > MAX_Q:
        masks = [compress_block(values, p).digits for values in blocks[live].tolist()]
        return np.array(masks, dtype=object).reshape(-1, p.n)
    # |value| * 2**-ell < 2**q; the int64 cast truncates toward zero like int()
    ints = np.ldexp(blocks[live], (p.q - 1 - e_max)[:, None]).astype(np.int64)
    _lift_forward(ints, p)
    coeffs = ints[:, _perm(p.d, False)]
    lo, hi = _nega_range(p.q)
    if coeffs.size and (coeffs.max() > hi or coeffs.min() < lo):
        raise NegabinaryRangeError(f"a coefficient needs more than q+2 = {p.q + 2} digits")
    digits = coeffs.view(np.uint64)
    alt = np.uint64(_ODD)
    digits += alt
    digits ^= alt
    cut = p.q + 2 - p.beta
    if cut > 0:
        digits &= np.uint64(((1 << 64) - 1) ^ ((1 << min(cut, 64)) - 1))
    return digits


def _bit_length(m: np.ndarray) -> np.ndarray:
    """Bit length of each entry of a uint64 array, by integer shifts."""
    length = np.zeros(m.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        high = m >> np.uint64(s)
        has = high > 0
        length += s * has
        m = np.where(has, high, m)
    return length + (m > 0)


def scalar_values(digits, e_max: int, p: CodecParams) -> tuple[float, ...]:
    """One block through :func:`.pipeline.decompress_block`; inf where it overflows."""
    try:
        return decompress_block(NegaBlock(tuple(digits), e_max), p)[1]
    except OverflowError:
        return (math.inf,) * p.n


def decode_blocks(e_max: np.ndarray, digits: np.ndarray, p: CodecParams) -> np.ndarray:
    """Decoded values of every block as an (nblocks, 4**d) array.

    ``digits`` holds each block's truncated digit masks (see
    :func:`_digit_type`).  A block without a digit decodes to zeros.
    Values beyond the float64 range come back as inf.
    """
    n, q = p.n, p.q
    values = np.zeros((len(digits), n))
    live = np.flatnonzero(digits.any(axis=1))
    if q > MAX_Q:
        for r in live.tolist():
            values[r] = scalar_values(digits[r].tolist(), int(e_max[r]), p)
        return values
    if not live.size:
        return values
    digits = digits[live]
    even = digits & np.uint64(_EVEN)
    odd = digits & np.uint64(_ODD)
    v = (even - odd).view(np.int64)
    # the value even - odd is below -2**63 exactly when the int64 result is not negative
    wrapped = ((odd > even) & (v >= 0)).any(axis=1)
    v = v[:, _perm(p.d, True)]
    wrapped |= _lift_inverse(v, p)
    # |v| as uint64 is exact even for -2**63
    mag = np.abs(v).view(np.uint64)
    drop = np.maximum(_bit_length(mag) - p.k, 0).astype(np.uint64)
    mag = ((mag >> drop) << drop).astype(np.float64)
    ell = np.clip(e_max[live] - q + 1, -4096, 4096)
    with np.errstate(over="ignore"):
        out = np.ldexp(np.where(v < 0, -mag, mag), ell[:, None])
    for r in np.flatnonzero(wrapped):
        out[r] = scalar_values(digits[r].tolist(), int(e_max[live[r]]), p)
    values[live] = out
    return values
