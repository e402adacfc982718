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
bytes.  Each record is built as one Python int and written with a single
``int.to_bytes``; the reader parses it from one ``int.from_bytes`` window of
that many bytes.  The payload ends with the last record: trailing bytes
make the container invalid.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .blocks import GridShapeError, block_count, partition, unpartition
from .params import CodecParams, ParamError
from .pipeline import NegaBlock, compress_block, decompress_block

MAGIC = b"ZFPK"
VERSION = 1
DEFAULT_EXPONENT_BITS = 11  # covers IEEE-double block exponents with headroom

_EXPONENT_BITS_RANGE = range(2, 33)
_MAX_BLOCK_EXPONENT = 1023  # largest exponent of a finite float64

_FLAG_WIDE_BETA = 0x01
_ZERO_RECORD = 0x80  # the whole record of an all-zero block: flag bit, padding


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


def _unpack_planes(window: int, avail: int, p: CodecParams, e_max: int,
                   block_index: int | None = None) -> tuple[NegaBlock, int]:
    """Parse the coded planes from the top of the ``avail``-bit int ``window``.

    Returns the block and the number of low bits of ``window`` left unread.
    """
    n = p.n
    mask = (1 << n) - 1
    digits = [0] * n
    for plane_idx, pos in enumerate(range(p.q + 1, p.q + 1 - p.beta, -1)):
        coded = avail > 0 and (window >> (avail - 1)) & 1
        width = 1 + n if coded else 1
        if avail < width:
            raise DecodeError("stream ends inside plane payload",
                              block=block_index, plane=plane_idx)
        avail -= width
        if coded:
            plane = (window >> avail) & mask
            for c in range(n):
                if (plane >> (n - 1 - c)) & 1:
                    digits[c] |= 1 << pos
    return NegaBlock(tuple(digits), e_max), avail


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
    nb, _ = _unpack_planes(int.from_bytes(cb.payload, "big"), 8 * len(cb.payload),
                           p, cb.e_max)
    return nb


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
    bias = (1 << (b_e - 1)) - 1
    out = bytearray(_pack_header(header))
    for values in partition(grid):
        nb = compress_block(values, params)
        if nb.is_zero:
            out.append(_ZERO_RECORD)
            continue
        stored = nb.e_max + bias
        if not 0 <= stored < (1 << b_e):
            raise ParamError(
                f"block exponent {nb.e_max} does not fit a {b_e}-bit biased field; raise b_e")
        value, nbits = _pack_planes(nb, params)
        width = 1 + b_e + nbits  # the leading zero flag is the int's top bit
        nbytes = (width + 7) // 8
        out += (((stored << nbits) | value) << (8 * nbytes - width)).to_bytes(nbytes, "big")
    return bytes(out)


def decompress(data: bytes) -> np.ndarray:
    """Decompress a container back to a float64 array of the stored dims."""
    header, offset = read_header(data)
    params = header.params()
    b_e = header.b_e
    bias = (1 << (b_e - 1)) - 1
    window_bytes = (1 + b_e + params.beta * (1 + params.n) + 7) // 8
    blocks = []
    for i in range(header.block_count):
        chunk = data[offset:offset + window_bytes]
        if not chunk:
            raise DecodeError("stream ends inside block prologue", block=i)
        if chunk[0] & _ZERO_RECORD:
            nb = NegaBlock((0,) * params.n, None)
            offset += 1
        else:
            avail = 8 * len(chunk) - 1 - b_e
            if avail < 0:
                raise DecodeError("stream ends inside block prologue", block=i)
            window = int.from_bytes(chunk, "big")
            e_max = ((window >> avail) & ((1 << b_e) - 1)) - bias
            if e_max > _MAX_BLOCK_EXPONENT:
                raise DecodeError(
                    f"block exponent {e_max} exceeds {_MAX_BLOCK_EXPONENT}, "
                    "the largest exponent of a finite float64", block=i)
            nb, left = _unpack_planes(window, avail, params, e_max, block_index=i)
            offset += len(chunk) - left // 8
        _, values = decompress_block(nb, params)
        blocks.append(values)
    if offset != len(data):
        raise ContainerError(f"{len(data) - offset} trailing bytes after the last block")
    return unpartition(blocks, header.dims)
