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
any coding.  Block exponents and digit masks are the only hand-off between
the records and the block arithmetic, which :mod:`.batch` does for every q:
:func:`_write_records` writes the masks of a run of blocks with one
``np.packbits``, and the reader walks the test bits of each record in one
pass, then turns the coded planes of all blocks into their digit masks with
array operations (:func:`_gather_digits`).  A block whose reconstruction is
not a finite float64 makes ``decompress`` raise :class:`DecodeError`
naming the first such block.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .blocks import GridShapeError, _block_array, block_count, unpartition
from .params import CodecParams, ParamError
from .pipeline import NegaBlock

MAGIC = b"ZFPK"
VERSION = 1
DEFAULT_EXPONENT_BITS = 11  # covers IEEE-double block exponents with headroom

_EXPONENT_BITS_RANGE = range(2, 33)
_MAX_BLOCK_EXPONENT = 1023  # largest exponent of a finite float64

_FLAG_WIDE_BETA = 0x01


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


def bit_planes(nb: NegaBlock, p: CodecParams) -> list[tuple[int, ...]]:
    """Rows of coefficient bits, most significant digit position first.

    Plane 0 holds digit position q+1 of every coefficient; the kept payload
    is the first beta rows.
    """
    return [tuple((u >> pos) & 1 for u in nb.digits) for pos in range(p.q + 1, -1, -1)]


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


def _plane_starts(stream: np.ndarray, pos: np.ndarray, p: CodecParams) -> np.ndarray:
    """Positions (beta, records) of the plane test bits of records starting at ``pos``.

    ``stream`` holds one byte per bit (:func:`_stream_bits`); each plane is
    its test bit, then its n bits if the test bit is 1.
    """
    length = 1 + p.n * stream  # bits in a plane whose test bit is at i, for every i
    at = np.empty((p.beta, len(pos)), dtype=np.int64)
    at[:1] = pos  # nothing to fill when beta = 0
    for j in range(1, p.beta):
        np.add(at[j - 1], length[at[j - 1]], out=at[j])
    return at


def _gather_digits(stream: np.ndarray, pos: np.ndarray, p: CodecParams) -> np.ndarray:
    """Digit masks of the records whose first plane test bit is at ``pos`` in ``stream``.

    Plane j of a record is digit position q + 1 - j.  Returns one row of n
    masks per record (see :func:`.batch._digit_type`).
    """
    from .batch import _digit_type

    at = _plane_starts(stream, pos, p)
    # (beta, records, 1 + n): each plane's test bit and the n bits after it, read
    # through a read-only view whose row i is stream[i:i + 1 + n]
    window = as_strided(stream, (len(stream) - p.n, 1 + p.n), (1, 1), writeable=False)
    plane = window[at]
    plane[..., 1:] *= plane[..., :1]  # an empty plane has no digits
    # one byte per digit position of each mask, most significant first, in whole bytes
    width = -(-(p.q + 2) // 8) * 8
    digit = np.zeros((len(pos), p.n, width), dtype=np.uint8)
    digit[:, :, width - 2 - p.q:width - 2 - p.q + p.beta] = plane[..., 1:].transpose(1, 2, 0)
    byte = np.array([1 << 8 * k for k in reversed(range(width // 8))], dtype=_digit_type(p))
    return np.packbits(digit, axis=2) @ byte  # each mask's big-endian bytes as one int


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
    digits = _gather_digits(np.asarray(bits), np.zeros(1, dtype=np.int64), p)
    return NegaBlock(tuple(digits[0].tolist()), cb.e_max)


def _write_records(digits: np.ndarray, live: np.ndarray, stored: np.ndarray,
                   p: CodecParams, b_e: int) -> bytes:
    """Records of consecutive blocks; ``digits``, ``stored`` have a row per ``live`` block.

    ``digits`` rows are digit masks as uint64 or Python ints (see :func:`.batch._digit_type`).
    """
    n, beta = p.n, p.beta
    if digits.dtype == object:
        one, pos = 1, [p.q + 1 - j for j in range(beta)]
    else:  # uint64 operands: a plain int shift would promote to float64 under NumPy 1.x
        one, pos = np.uint64(1), [np.uint64(p.q + 1 - j) for j in range(beta)]
    # plane j is coded when any coefficient has a digit at pos[j]
    seen = np.bitwise_or.reduce(digits, axis=1)
    ncoded = np.zeros(len(digits), dtype=digits.dtype)
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
    from . import batch  # imported on first use: `import zfpkit` does not load it

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
    for run, live, e_max, stored in runs:
        out += _write_records(batch.forward(run, live, e_max, params), live, stored, params, b_e)
    return bytes(out)


def _read_run(window: bytes, first: int, count: int, header: ArrayHeader,
              params: CodecParams):
    """Parse ``count`` records from the start of ``window``, the first being block ``first``.

    Returns (e_max, digits, bytes read): e_max per block and a (count, n)
    array of digit masks (see :func:`_gather_digits`).  A zero block reads
    as e_max 0 with no digit, which decodes to zeros like any block without
    one.
    """
    b_e = header.b_e
    bias = (1 << (b_e - 1)) - 1
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
    live = np.flatnonzero(planes_at)
    masks = _gather_digits(np.asarray(bits), planes_at[live], params)
    digits = np.zeros((count, params.n), dtype=masks.dtype)
    digits[live] = masks
    return e_max, digits, at // 8


def _read_records(data: bytes, offset: int, header: ArrayHeader, params: CodecParams,
                  rows: int):
    """Yield (e_max, digits) of :func:`_read_run` for runs of ``rows`` blocks."""
    record_bytes = (1 + header.b_e + params.beta * (1 + params.n) + 7) // 8
    nblocks = header.block_count
    for first in range(0, nblocks, rows):
        count = min(rows, nblocks - first)
        # no record is longer than record_bytes, so the run lies inside this window
        window = data[offset:offset + count * record_bytes]
        e_max, digits, used = _read_run(window, first, count, header, params)
        offset += used
        yield e_max, digits
    if offset != len(data):
        raise ContainerError(f"{len(data) - offset} trailing bytes after the last block")


def _decode(data: bytes) -> tuple[ArrayHeader, np.ndarray]:
    """The header and every decoded block, padding included, as (nblocks, 4**d)."""
    header, offset = read_header(data)
    params = header.params()
    from . import batch

    runs = []
    for e_max, digits in _read_records(data, offset, header, params, batch.chunk_rows(params)):
        values = batch.decode_blocks(e_max, digits, params)
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
