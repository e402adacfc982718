"""Container serialization: header, per-block records, plane coder.

Wire format (all multi-byte fields little-endian):

    magic   "ZFPK"
    u8      version (currently 1)
    u8      d
    u16     k
    u16     q
    u16     beta
    u8      b_e            exponent field width in bits, 2..32
    u8      flags          bit 0: wide-beta opt-in was active
    u32*d   dims           grid extents, slowest axis first

then one bit-packed record per block, MSB-first within each byte and
byte-aligned per block:

    1 bit   all-zero flag (1 -> nothing else follows for this block)
    b_e bits  biased block exponent e_max + (2**(b_e-1) - 1), e_max <= 1023
    beta planes, most significant digit position (q+1) first; each plane is
    a single 0 test bit when all 4**d bits are zero, otherwise a 1 followed
    by the raw plane bits in coefficient order.

A record therefore spans at most ceil((1 + b_e + beta*(1 + 4**d)) / 8)
bytes.  The payload ends with the last record: trailing bytes make the
container invalid.

``compress`` checks every block exponent against the b_e-bit field before
any coding.  For q <= 62, :mod:`.batch` codes a run of blocks at once and
:func:`_write_records` writes all their records with one ``np.packbits``;
for larger q each record is built as one Python int by
:func:`_pack_planes`.  The reader walks the test bits of each record in one
pass, then gathers the coded planes of all blocks as n-bit words with array
operations.  A block whose reconstruction is not a finite float64 makes
``decompress`` raise :class:`DecodeError` naming the first such block.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .blocks import GridShapeError, _block_array, block_count, unpartition
from .params import CodecParams, ParamError
from .pipeline import NegaBlock, compress_block

MAGIC = b"ZFPK"
VERSION = 1
DEFAULT_EXPONENT_BITS = 11  # covers IEEE-double block exponents with headroom

_EXPONENT_BITS_RANGE = range(2, 33)
_MAX_BLOCK_EXPONENT = 1023  # largest exponent of a finite float64

_FLAG_WIDE_BETA = 0x01
_ZERO_RECORD = 0x80  # the whole record of an all-zero block: flag bit, padding
_WORD_TYPES = {4: np.uint8, 16: np.uint16, 64: np.uint64}  # one plane of 4**d bits


class ContainerError(ValueError):
    """Malformed or unsupported container data."""


class DecodeError(ContainerError):
    """Container payload damaged; carries the failing block index."""

    def __init__(self, message: str, block: int | None = None, plane: int | None = None):
        where = []
        if block is not None:
            where.append(f"block {block}")
        if plane is not None:
            where.append(f"plane {plane}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.block = block
        self.plane = plane


@dataclass(frozen=True)
class ArrayHeader:
    """Decoded container header."""

    dims: tuple[int, ...]
    k: int
    q: int
    beta: int
    b_e: int = DEFAULT_EXPONENT_BITS
    wide_beta: bool = False
    version: int = VERSION
    magic: bytes = MAGIC

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def block_count(self) -> int:
        return block_count(self.dims)

    def params(self) -> CodecParams:
        return CodecParams(self.d, self.k, self.q, self.beta,
                           allow_wide_beta=self.wide_beta)


def _pack_header(h: ArrayHeader) -> bytes:
    out = bytearray(MAGIC)
    flags = _FLAG_WIDE_BETA if h.wide_beta else 0
    out += struct.pack("<BBHHHBB", h.version, h.d, h.k, h.q, h.beta, h.b_e, flags)
    out += struct.pack(f"<{h.d}I", *h.dims)
    return bytes(out)


def read_header(data: bytes) -> tuple[ArrayHeader, int]:
    """Parse the header; returns (header, payload byte offset)."""
    if len(data) < 14:
        raise ContainerError("container shorter than fixed header")
    if data[:4] != MAGIC:
        raise ContainerError(f"bad magic {data[:4]!r}")
    version, d, k, q, beta, b_e, flags = struct.unpack_from("<BBHHHBB", data, 4)
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    if not 1 <= d <= 3:
        raise ContainerError(f"unsupported dimensionality {d}")
    if b_e not in _EXPONENT_BITS_RANGE:
        raise ContainerError(f"exponent field width b_e={b_e} outside [2, 32]")
    end = 14 + 4 * d
    if len(data) < end:
        raise ContainerError("container truncated inside dims")
    dims = struct.unpack_from(f"<{d}I", data, 14)
    if any(n < 1 for n in dims):
        raise ContainerError(f"non-positive dims {dims}")
    header = ArrayHeader(dims=tuple(dims), k=k, q=q, beta=beta, b_e=b_e,
                         wide_beta=bool(flags & _FLAG_WIDE_BETA), version=version)
    try:
        header.params()
    except ParamError as e:
        raise ContainerError(f"inconsistent header parameters: {e}") from e
    return header, end


@dataclass(frozen=True)
class CompressedBlock:
    """One block after plane coding.

    ``payload`` holds only the coded plane bits (MSB-first, zero-padded to a
    byte); the zero flag and the exponent live beside it so an all-zero
    block really has an empty payload.
    """

    zero_flag: bool
    e_max: int | None
    beta: int
    payload: bytes
    payload_bits: int

    def __post_init__(self):
        if self.zero_flag and self.payload:
            raise ValueError("all-zero block must carry no payload")


def _pack_planes(nb: NegaBlock, p: CodecParams) -> tuple[int, int]:
    """Coded planes of a nonzero block as one MSB-first int; returns (value, nbits)."""
    # one test bit per plane; nonzero planes follow raw in coefficient order
    n = p.n
    value = nbits = 0
    for pos in range(p.q + 1, p.q + 1 - p.beta, -1):
        plane = 0
        for u in nb.digits:
            plane = (plane << 1) | ((u >> pos) & 1)
        if plane:
            value = (((value << 1) | 1) << n) | plane
            nbits += 1 + n
        else:
            value <<= 1
            nbits += 1
    return value, nbits


def _stream_bits(payload: bytes, p: CodecParams) -> memoryview:
    """One byte per bit of ``payload``, MSB first, then zeros for :func:`_walk_planes`."""
    pad = bytes((p.n + 1 + p.beta) // 8 + 1)
    return memoryview(np.unpackbits(np.frombuffer(payload + pad, dtype=np.uint8)))


def _walk_planes(bits, at: int, limit: int, p: CodecParams,
                 block_index: int | None = None) -> int:
    """Position after the last plane of a record whose first test bit is at ``at``.

    ``bits`` is from :func:`_stream_bits` and holds ``limit`` stream bits;
    a plane is one test bit, followed by n bits when the test bit is 1.
    """
    step = p.n + 1
    start = at
    for _ in range(p.beta):
        if bits[at]:
            at += step
        else:
            at += 1
    if at > limit:  # the walk ran into the zero padding: name the first plane cut off
        at = start
        for plane_idx in range(p.beta):
            at += step if bits[at] else 1
            if at > limit:
                raise DecodeError("stream ends inside plane payload",
                                  block=block_index, plane=plane_idx)
    return at


def _digits_from_words(words, p: CodecParams) -> tuple[int, ...]:
    """Digit masks of one block from its plane words (plane 0 is position q+1)."""
    n = p.n
    digits = [0] * n
    for plane_idx, plane in enumerate(words):
        if plane:
            bit = 1 << (p.q + 1 - plane_idx)
            for c in range(n):
                if (plane >> (n - 1 - c)) & 1:
                    digits[c] |= bit
    return tuple(digits)


def encode_planes(nb: NegaBlock, p: CodecParams) -> CompressedBlock:
    """Code the kept planes of one block losslessly."""
    if nb.is_zero:
        return CompressedBlock(True, None, p.beta, b"", 0)
    value, nbits = _pack_planes(nb, p)
    nbytes = (nbits + 7) // 8
    payload = (value << (8 * nbytes - nbits)).to_bytes(nbytes, "big")
    return CompressedBlock(False, nb.e_max, p.beta, payload, nbits)


def decode_planes(cb: CompressedBlock, p: CodecParams) -> NegaBlock:
    """Exact inverse of :func:`encode_planes` on the truncated digit masks."""
    if cb.beta != p.beta:
        raise DecodeError(f"record carries beta={cb.beta}, params say {p.beta}")
    if cb.zero_flag:
        return NegaBlock((0,) * p.n, None)
    bits = _stream_bits(cb.payload, p)
    _walk_planes(bits, 0, 8 * len(cb.payload), p)
    window = int.from_bytes(cb.payload, "big")
    words = [0] * p.beta
    at = 0
    for plane_idx in range(p.beta):
        at += 1
        if bits[at - 1]:
            at += p.n
            words[plane_idx] = (window >> (8 * len(cb.payload) - at)) & ((1 << p.n) - 1)
    return NegaBlock(_digits_from_words(words, p), cb.e_max)


def _write_records(digits: np.ndarray, live: np.ndarray, stored: np.ndarray,
                   p: CodecParams, b_e: int) -> bytes:
    """Records of consecutive blocks; ``digits``, ``stored`` have a row per ``live`` block."""
    n, beta = p.n, p.beta
    one = np.uint64(1)
    pos = [np.uint64(p.q + 1 - j) for j in range(beta)]
    # plane j is coded when any coefficient has a digit at pos[j]
    seen = np.bitwise_or.reduce(digits, axis=1)
    ncoded = np.zeros(len(digits), dtype=np.uint64)
    for at in pos:
        ncoded += (seen >> at) & one
    size = np.ones(live.size, dtype=np.int64)
    size[live] = (1 + b_e + beta + n * ncoded.astype(np.int64) + 7) // 8
    start = 8 * (np.cumsum(size) - size)
    bits = np.zeros(8 * int(size.sum()), dtype=np.uint8)
    bits[start[~live]] = 1  # an all-zero block is its flag bit alone
    at = start[live]
    for shift in range(b_e - 1, -1, -1):  # the exponent field follows the zero flag
        at += 1
        bits[at] = (stored >> shift) & 1
    at += 1
    cols = np.arange(1, n + 1)
    for j in range(beta):
        coded = ((seen >> pos[j]) & one).astype(bool)
        bits[at] = coded  # the plane's test bit, then its n bits if coded
        hit = np.flatnonzero(coded)
        if hit.size:
            bits[at[hit, None] + cols] = (digits[hit] >> pos[j]) & one
        at += 1 + n * coded
    return np.packbits(bits).tobytes()


def compress(grid, params: CodecParams, b_e: int = DEFAULT_EXPONENT_BITS) -> bytes:
    """Compress a d-dimensional array into a self-describing container."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != params.d:
        raise GridShapeError(f"grid has {grid.ndim} axes but params.d = {params.d}")
    if grid.size == 0:
        raise GridShapeError("empty grid")
    if not np.isfinite(grid).all():
        raise ValueError("grid contains NaN or infinity; only finite values compress")
    if b_e not in _EXPONENT_BITS_RANGE:
        raise ParamError(f"b_e must be in [2, 32], got {b_e}")
    header = ArrayHeader(dims=tuple(grid.shape), k=params.k, q=params.q,
                         beta=params.beta, b_e=b_e, wide_beta=params.allow_wide_beta)
    out = bytearray(_pack_header(header))
    from . import batch  # imported on first use: sweeps and the oracle never need it

    blocks = _block_array(grid)
    rows = batch.chunk_rows(params)
    bias = (1 << (b_e - 1)) - 1
    runs = []
    for first in range(0, len(blocks), rows):
        run = blocks[first:first + rows]
        live, e_max = batch.block_exponents(run)
        stored = e_max.astype(np.int64) + bias
        misfit = (stored < 0) | (stored >= 1 << b_e)
        if misfit.any():
            raise ParamError(f"block exponent {e_max[misfit.argmax()]} does not fit a "
                             f"{b_e}-bit biased field; raise b_e")
        runs.append((run, live, e_max, stored))
    if params.q <= batch.MAX_Q:
        for run, live, e_max, stored in runs:
            digits = batch.forward(run, live, e_max, params)
            out += _write_records(digits, live, stored, params, b_e)
        return bytes(out)
    for values in blocks.tolist():
        nb = compress_block(values, params)
        if nb.is_zero:
            out.append(_ZERO_RECORD)
            continue
        stored = nb.e_max + bias
        value, nbits = _pack_planes(nb, params)
        width = 1 + b_e + nbits  # the leading zero flag is the int's top bit
        nbytes = (width + 7) // 8
        out += (((stored << nbits) | value) << (8 * nbytes - width)).to_bytes(nbytes, "big")
    return bytes(out)


def _pack_words(bits: np.ndarray, n: int) -> np.ndarray:
    """Rows of n bits (one byte each, first bit most significant) as n-bit words."""
    packed = np.packbits(bits, axis=1)
    if n == 4:
        return packed[:, 0] >> 4
    return packed.view(f">u{n // 8}")[:, 0]


def _read_run(window: bytes, first: int, count: int, header: ArrayHeader,
              params: CodecParams):
    """Parse ``count`` records from the start of ``window``, the first being block ``first``.

    Returns (e_max, words, bytes read): e_max per block and a (count, beta)
    array with one n-bit word per kept plane, coefficient 0 in the top bit
    (0 for an empty plane).  A zero block reads as e_max 0 with no coded
    plane, which decodes to zeros like any block without one.
    """
    b_e = header.b_e
    bias = (1 << (b_e - 1)) - 1
    n, beta = params.n, params.beta
    prologue = 1 + b_e
    prologue_bytes = (prologue + 7) // 8
    bits = _stream_bits(window, params)
    limit = 8 * len(window)
    e_max = np.zeros(count, dtype=np.int64)
    planes_at = np.zeros(count, dtype=np.int64)  # 0 for a zero block
    at = 0
    for r in range(count):
        if at >= limit or (not bits[at] and at + prologue > limit):
            raise DecodeError("stream ends inside block prologue", block=first + r)
        if bits[at]:
            at += 8
            continue
        start = at // 8
        e = ((int.from_bytes(window[start:start + prologue_bytes], "big")
              >> (8 * prologue_bytes - prologue)) & ((1 << b_e) - 1)) - bias
        if e > _MAX_BLOCK_EXPONENT:
            raise DecodeError(
                f"block exponent {e} exceeds {_MAX_BLOCK_EXPONENT}, "
                "the largest exponent of a finite float64", block=first + r)
        e_max[r] = e
        planes_at[r] = at + prologue
        end = _walk_planes(bits, at + prologue, limit, params, first + r)
        at += (end - at + 7) & -8
    # the same walk over all records of the run at once, now that their starts are known
    stream = np.asarray(bits)
    words = np.zeros((count, beta), dtype=_WORD_TYPES[n])
    live = np.flatnonzero(planes_at)
    pos = planes_at[live]
    cols = np.arange(1, n + 1)
    for j in range(beta):
        coded = stream[pos]
        hit = np.flatnonzero(coded)
        if hit.size:
            words[live[hit], j] = _pack_words(stream[pos[hit, None] + cols], n)
        pos += 1 + n * coded
    return e_max, words, at // 8


def _read_records(data: bytes, offset: int, header: ArrayHeader, params: CodecParams,
                  rows: int):
    """Yield (e_max, words) of :func:`_read_run` for runs of ``rows`` blocks."""
    record_bytes = (1 + header.b_e + params.beta * (1 + params.n) + 7) // 8
    nblocks = header.block_count
    for first in range(0, nblocks, rows):
        count = min(rows, nblocks - first)
        # no record is longer than record_bytes, so the run lies inside this window
        window = data[offset:offset + count * record_bytes]
        e_max, words, used = _read_run(window, first, count, header, params)
        offset += used
        yield e_max, words
    if offset != len(data):
        raise ContainerError(f"{len(data) - offset} trailing bytes after the last block")


def _decode(data: bytes) -> tuple[ArrayHeader, np.ndarray]:
    """The header and every decoded block, padding included, as (nblocks, 4**d)."""
    header, offset = read_header(data)
    params = header.params()
    from . import batch

    runs = []
    for e_max, words in _read_records(data, offset, header, params, batch.chunk_rows(params)):
        if params.q <= batch.MAX_Q:
            values = batch.decode_blocks(e_max, words, params)
        else:
            values = np.array([
                batch.scalar_values(_digits_from_words(w.tolist(), params), int(e), params)
                for e, w in zip(e_max, words)])
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise DecodeError("reconstructed value exceeds the float64 range",
                              block=len(runs) * batch.chunk_rows(params) + int(np.argmin(finite)))
        runs.append(values)
    return header, np.concatenate(runs)


def decompress(data: bytes) -> np.ndarray:
    """Decompress a container back to a float64 array of the stored dims.

    Raises DecodeError naming the first block whose reconstruction is not a
    finite float64 (possible for blocks near the float64 maximum at small beta).
    """
    header, blocks = _decode(data)
    return unpartition(blocks, header.dims)
