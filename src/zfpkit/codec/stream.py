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
the records and the block arithmetic, which :mod:`.batch` does for every q.
Both directions see a run's masks through one layout, the (blocks, beta, n)
array of plane bits: :func:`_mask_bits` unpacks the masks' big-endian bytes
into it and :func:`_masks` packs it back.  :func:`_write_records` lays out
every record of a run as a row of one bit matrix and packs the kept bits
with one ``np.packbits``, without a loop over planes or blocks.  The reader
finds where each record of a run starts with one compiled regular
expression, which states the record grammar (zero flag, exponent field,
beta planes of a test bit and n digits if it is 1, pad to the byte) and
steps over the planes in C (:func:`_record_starts`).  It then reads the
exponent fields of the run in one array step, and :func:`_gather_digits`
turns the coded planes into digit masks.
:func:`_plane_starts` is the one place that places planes, so it also names
a plane that the stream cuts off.  A block whose reconstruction is not a
finite float64 makes ``decompress`` raise :class:`DecodeError` naming the
first such block.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

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
    out += struct.pack("<BBHHHBB", VERSION, h.d, h.k, h.q, h.beta, h.b_e, flags)
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
                         wide_beta=bool(flags & _FLAG_WIDE_BETA))
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


def _stream_bits(payload: bytes, p: CodecParams) -> np.ndarray:
    """One byte per bit of ``payload``, MSB first, then zeros.

    A plane walk that starts inside the payload and runs past its end reads
    at most n + beta - 1 bits of the zeros.
    """
    pad = bytes((p.n + 1 + p.beta) // 8 + 1)
    return np.unpackbits(np.frombuffer(payload + pad, dtype=np.uint8))


_UNROLL = 16  # plane copies in the repeated group of a record pattern


@lru_cache(maxsize=32)
def _record_pattern(n: int, beta: int, b_e: int) -> re.Pattern:
    """One record of a marked stream (see :func:`_record_starts`), or else all the rest.

    A zero record is a byte's first bit set (3) and 7 more bits.  A nonzero
    record is a byte's first bit clear (2), b_e exponent bits inside the
    window, beta planes, and the pad bits up to the next byte's first bit.
    A plane is a test bit, then n bits if the test bit is 1 or 3; a test bit
    past the window (4) reads as 0, as the reader has always read it.  The
    planes are unrolled in groups of ``_UNROLL``, which keeps the compile
    time near a millisecond for every beta up to 1026.  At n = 4 the digits
    are four single dots, which skip the per-match cost of a repeat and step
    over d = 1 planes about 1.5x faster; at n = 64 the repeat is 2x faster.
    """
    digits = b"." * n if n < 16 else b".{%d}" % n
    plane = rb"(?:\x01%s|\x00|\x03%s|\x02|\x04)" % (digits, digits)
    groups, rest = divmod(beta, _UNROLL)
    planes = (b"(?:%s){%d}" % (plane * _UNROLL, groups) if groups else b"") + plane * rest
    return re.compile(rb"\x03.{7}|\x02[\x00-\x03]{%d}%s[\x00\x01]*|.+" % (b_e, planes), re.S)


def _record_starts(stream: np.ndarray, limit: int, count: int, p: CodecParams,
                   b_e: int) -> np.ndarray:
    """Bit positions of the first ``count`` records, then where the last of them ends.

    ``stream`` is from :func:`_stream_bits`; its first ``limit`` bits are the
    window.  Records start at bit 0 and follow each other.  The walk stops
    early at a record that starts past the window or whose prologue the
    window cuts; the last record walked may end past the window.  One
    compiled pattern steps over the records and their planes; Python only
    collects where each match starts.  It reads a marked copy of the stream:
    a bit plus 2 on the first bit of each byte, and 4 past the window.
    """
    words = stream.view("<u8")  # the first bit of 8 is the low byte of a "<u8" word
    marked = np.bitwise_or(words, 2, out=np.empty_like(words)).view(np.uint8)
    marked[limit:] = 4
    # each match starts where the last one ended: the catch-all matches where
    # no record starts, and no record reaches the end of the padded stream
    found = islice(_record_pattern(p.n, p.beta, b_e).finditer(marked), count + 1)
    return np.array([m.start() for m in found], dtype=np.int64)


def _plane_starts(stream: np.ndarray, pos: np.ndarray, p: CodecParams) -> np.ndarray:
    """Positions (beta + 1, records): plane j of the record at ``pos`` spans at[j]:at[j + 1].

    ``stream`` holds one byte per bit (:func:`_stream_bits`); each plane is
    its test bit, then its n bits if the test bit is 1.
    """
    length = 1 + p.n * stream  # bits in a plane whose test bit is at i, for every i
    at = np.empty((p.beta + 1, len(pos)), dtype=np.int64)
    at[0] = pos
    for j in range(p.beta):
        np.add(at[j], length[at[j]], out=at[j + 1])
    return at


def _mask_layout(p: CodecParams) -> tuple[int, int]:
    """(width, lo): bytes of one big-endian digit mask, and the bit of plane 0 in them.

    Masks are 8 bytes as uint64 and ceil((q + 2) / 8) bytes as Python ints.
    Bit lo + j of a mask's bytes, MSB first, is plane j, digit position q + 1 - j.
    """
    from .batch import _digit_type

    width = 8 if _digit_type(p) is np.uint64 else -(-(p.q + 2) // 8)
    return width, 8 * width - 2 - p.q


def _mask_bits(digits: np.ndarray, p: CodecParams) -> np.ndarray:
    """(m, beta, c) plane bits of an (m, c) array of digit masks.

    Entry [i, j, k] is digit q + 1 - j of mask k of row i.  :func:`_masks`
    is the inverse on the kept planes.
    """
    width, lo = _mask_layout(p)
    if digits.dtype == object:
        raw = np.frombuffer(b"".join(u.to_bytes(width, "big") for u in digits.flat), np.uint8)
    else:
        raw = np.ascontiguousarray(digits, dtype=">u8").view(np.uint8)
    # only the bytes that hold kept planes (at least one), copied as one item
    # per mask so that a single flat unpackbits reads them all
    first, last = lo // 8, max(-(-(lo + p.beta) // 8), lo // 8 + 1)
    held = np.ascontiguousarray(raw.reshape(-1, width)[:, first:last].view(f"V{last - first}"))
    bits = np.unpackbits(held.view(np.uint8)).reshape(digits.shape + (8 * (last - first),))
    lo -= 8 * first
    return bits[:, :, lo:lo + p.beta].transpose(0, 2, 1)


def _masks(planes: np.ndarray, p: CodecParams) -> np.ndarray:
    """(m, n) digit masks (see :func:`.batch._digit_type`) of (m, beta, n) plane bits."""
    width, lo = _mask_layout(p)
    m = len(planes)
    digit = np.zeros((m, p.n, 8 * width), dtype=np.uint8)
    digit[:, :, lo:lo + p.beta] = planes.transpose(0, 2, 1)
    raw = np.packbits(digit, axis=2)  # (m, n, width): each mask's big-endian bytes
    if width == 8:  # uint64 masks; Python-int masks are at least 9 bytes
        return raw.view(">u8").reshape(m, p.n).astype(np.uint64)
    blob = raw.tobytes()
    return np.array([int.from_bytes(blob[i:i + width], "big") for i in range(0, len(blob), width)],
                    dtype=object).reshape(m, p.n)


def _gather_digits(stream: np.ndarray, pos: np.ndarray, p: CodecParams, limit: int,
                   blocks: np.ndarray | None = None) -> np.ndarray:
    """Digit masks of the records whose first plane test bit is at ``pos`` in ``stream``.

    ``stream`` is from :func:`_stream_bits`, so it ends in at least n zero
    bits.  Plane j of a record is digit position q + 1 - j.  Returns one row
    of n masks per record (see :func:`_masks`).  Raises DecodeError for the
    first record, named ``blocks[i]``, whose planes run past the ``limit``
    stream bits, and the first of its planes that does.
    """
    at = _plane_starts(stream, pos, p)
    cut = at[-1] > limit
    if cut.any():
        i = int(cut.argmax())
        raise DecodeError("stream ends inside plane payload",
                          block=None if blocks is None else int(blocks[i]),
                          plane=int(np.count_nonzero(at[1:, i] <= limit)))
    if not p.beta:
        from .batch import _digit_type

        return np.zeros((len(pos), p.n), dtype=_digit_type(p))
    # a coded plane's n digits follow its test bit; an empty plane reads the zero tail
    start = np.where(stream[at[:-1]], at[:-1] + 1, len(stream) - p.n)
    # row i of this read-only view is stream[i:i + n]
    window = as_strided(stream, (len(stream) - p.n + 1, p.n), (1, 1), writeable=False)
    return _masks(window[start.T], p)  # (records, beta, n) plane bits


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
    digits = _gather_digits(bits, np.zeros(1, dtype=np.int64), p, 8 * len(cb.payload))
    return NegaBlock(tuple(digits[0].tolist()), cb.e_max)


def _write_records(digits: np.ndarray, live: np.ndarray, stored: np.ndarray,
                   p: CodecParams, b_e: int) -> bytes:
    """Records of consecutive blocks; ``digits``, ``stored`` have a row per ``live`` block.

    ``digits`` rows are digit masks as uint64 or Python ints (see
    :func:`.batch._digit_type`).  Row r of one bit matrix holds every bit
    record r could have: zero flag, exponent field, each plane's test bit
    and n digits, and 7 pad bits.  A keep mask drops the digits of empty
    planes, the pad bits past the record's last byte and everything after
    a zero block's first byte; one ``np.packbits`` of the kept bits is the
    run's bytes.
    """
    n, beta = p.n, p.beta
    head, body = 1 + b_e, beta * (1 + n)
    width = head + body + 7
    rows = slice(None) if live.all() else np.flatnonzero(live)
    bits = np.zeros((live.size, width), dtype=np.uint8)
    keep = np.zeros((live.size, width), dtype=bool)
    bits[~live, 0] = 1  # an all-zero block is its flag bit and 7 pad bits
    keep[~live, :8] = True
    bits[rows, 1:head] = np.unpackbits(stored.astype(">u4").view(np.uint8).reshape(-1, 4),
                                       axis=1)[:, 32 - b_e:]
    keep[rows, :head] = True
    ncoded = 0
    if beta:
        # plane j of a block is coded when any of its masks has digit q + 1 - j
        coded = _mask_bits(np.bitwise_or.reduce(digits, axis=1)[:, None], p)[:, :, 0].view(bool)
        record = bits[:, head:head + body].reshape(live.size, beta, 1 + n)
        record[rows, :, 0] = coded
        record[rows, :, 1:] = _mask_bits(digits, p)
        keep[rows, head:head + body] = np.repeat(coded, 1 + n, axis=1)
        keep[rows, head:head + body:1 + n] = True  # every test bit
        ncoded = np.count_nonzero(coded, axis=1)[:, None]
    keep[rows, width - 7:] = np.arange(7) < -(head + beta + n * ncoded) % 8
    return np.packbits(bits[keep]).tobytes()


def check_exponent_bits(b_e: int) -> None:
    """Raise ParamError unless ``b_e`` is an exponent field width that containers hold."""
    if b_e not in _EXPONENT_BITS_RANGE:
        raise ParamError(f"b_e must be in [2, 32], got {b_e}")


def compress(grid, params: CodecParams, b_e: int | None = None) -> bytes:
    """Compress a d-dimensional array into a self-describing container.

    ``b_e`` is the exponent field width; None takes 11 bits, or 12 when a
    block exponent is below -1023 (a block of subnormal values only).
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != params.d:
        raise GridShapeError(f"grid has {grid.ndim} axes but params.d = {params.d}")
    if grid.size == 0:
        raise GridShapeError("empty grid")
    if not np.isfinite(grid).all():
        raise ValueError("grid contains NaN or infinity; only finite values compress")
    if b_e is not None:
        check_exponent_bits(b_e)
    from . import batch  # imported on first use: `import zfpkit` does not load it

    blocks = _block_array(grid)
    rows = batch.chunk_rows(params)
    runs = [(run, *batch.block_exponents(run))
            for run in np.split(blocks, range(rows, len(blocks), rows))]
    e_all = np.concatenate([e for _, _, e in runs]).astype(np.int64)  # of every live block
    if b_e is None:  # the default field holds block exponents down to -1023
        b_e = DEFAULT_EXPONENT_BITS + bool((e_all < -1023).any())
    bias = (1 << (b_e - 1)) - 1
    misfit = (e_all + bias < 0) | (e_all + bias >= 1 << b_e)
    if misfit.any():
        raise ParamError(f"block exponent {e_all[misfit.argmax()]} does not fit a "
                         f"{b_e}-bit biased field; raise b_e")
    header = ArrayHeader(dims=tuple(grid.shape), k=params.k, q=params.q,
                         beta=params.beta, b_e=b_e, wide_beta=params.allow_wide_beta)
    out = bytearray(_pack_header(header))
    for run, live, e_max in runs:
        out += _write_records(batch.forward(run, live, e_max, params), live,
                              e_max.astype(np.int64) + bias, params, b_e)
    return bytes(out)


def _read_run(window: bytes, first: int, count: int, header: ArrayHeader,
              params: CodecParams):
    """Parse ``count`` records from the start of ``window``, the first being block ``first``.

    Returns (e_max, digits, bytes read): e_max per block and a (count, n)
    array of digit masks (see :func:`_gather_digits`).  A zero block reads
    as e_max 0 with no digit, which decodes to zeros like any block without
    one.  :func:`_record_starts` walks the records with one pattern match
    each; the exponent fields and the planes of the nonzero ones are then
    read in array steps.
    """
    b_e = header.b_e
    stream = _stream_bits(window, params)
    limit = 8 * len(window)
    at = _record_starts(stream, limit, count, params, b_e)
    r = len(at) - 1  # records walked
    live = np.flatnonzero(stream[at[:-1]] == 0)  # a zero block's flag is 1
    planes_at = at[live] + (1 + b_e)
    # faults of blocks before r, in block order: an exponent above the float64
    # range, then a cut plane (only block r - 1 can have one), then block r's cut prologue
    field = stream[planes_at[:, None] - np.arange(b_e, 0, -1)]  # (live, b_e), MSB first
    e_max = np.zeros(count, dtype=np.int64)
    e_max[live] = field @ (1 << np.arange(b_e - 1, -1, -1)) - ((1 << (b_e - 1)) - 1)
    over = e_max > _MAX_BLOCK_EXPONENT
    if over.any():
        i = int(over.argmax())
        raise DecodeError(f"block exponent {e_max[i]} exceeds {_MAX_BLOCK_EXPONENT}, "
                          "the largest exponent of a finite float64", block=first + i)
    masks = _gather_digits(stream, planes_at, params, limit, first + live)
    if r < count:
        raise DecodeError("stream ends inside block prologue", block=first + r)
    digits = np.zeros((count, params.n), dtype=masks.dtype)
    digits[live] = masks
    return e_max, digits, int(at[-1]) // 8


def _read_records(data: bytes, offset: int, header: ArrayHeader, params: CodecParams,
                  rows: int):
    """Yield (first, e_max, digits) of :func:`_read_run` for runs of ``rows`` blocks.

    ``first`` is the index of the run's first block.
    """
    record_bytes = (1 + header.b_e + params.beta * (1 + params.n) + 7) // 8
    nblocks = header.block_count
    for first in range(0, nblocks, rows):
        count = min(rows, nblocks - first)
        # no record is longer than record_bytes, so the run lies inside this window
        window = data[offset:offset + count * record_bytes]
        e_max, digits, used = _read_run(window, first, count, header, params)
        offset += used
        yield first, e_max, digits
    if offset != len(data):
        raise ContainerError(f"{len(data) - offset} trailing bytes after the last block")


def _decode(data: bytes):
    """The header and a generator of (first, values) runs of every block, padding included.

    ``values`` holds the decoded blocks ``first``, ``first + 1``, ... as
    (blocks, 4**d).  The header is read at once; the generator raises
    DecodeError at the first block whose reconstruction is not a finite
    float64.
    """
    header, offset = read_header(data)
    params = header.params()
    from . import batch

    def runs():
        for first, e_max, digits in _read_records(data, offset, header, params,
                                                  batch.chunk_rows(params)):
            values = batch.decode_blocks(e_max, digits, params)
            finite = np.isfinite(values).all(axis=1)
            if not finite.all():
                raise DecodeError("reconstructed value exceeds the float64 range",
                                  block=first + int(np.argmin(finite)))
            yield first, values

    return header, runs()


def decompress(data: bytes) -> np.ndarray:
    """Decompress a container back to a float64 array of the stored dims.

    Raises DecodeError naming the first block whose reconstruction is not a
    finite float64 (possible for blocks near the float64 maximum at small beta).
    """
    header, runs = _decode(data)
    # joined, not filled into an array sized from the header: damaged dims
    # must fail in the reader, not ask for memory the payload cannot fill
    return unpartition(np.concatenate([values for _, values in runs]), header.dims)
