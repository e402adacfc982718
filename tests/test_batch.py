"""The batched container path equals a per-block assembly of the scalar pipeline.

``compress`` and ``decompress`` run every block at once on int64/uint64
arrays for q <= 62, each block through the scalar stages above, and
write and read the records of every q in runs of blocks.  The reference here builds the same container from the scalar
stage functions one block at a time (``compress_block``, ``_pack_planes``,
``decompress_block``); bytes, decoded values and raised exception types
must match exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfpkit.codec import (
    ArrayHeader,
    CodecParams,
    ContainerError,
    DecodeError,
    NegaBlock,
    ParamError,
    compress,
    compress_block,
    decompress,
    decompress_block,
    partition,
    unpartition,
)
from zfpkit.codec import batch
from zfpkit.codec.stream import _pack_header, _pack_planes

K_FOR_Q = {9: 13, 30: 24, 61: 53, 62: 53, 80: 53}


def scalar_container(grid, p, b_e):
    """Container bytes built block by block from the scalar stages."""
    header = ArrayHeader(dims=grid.shape, k=p.k, q=p.q, beta=p.beta, b_e=b_e,
                         wide_beta=p.allow_wide_beta)
    bias = (1 << (b_e - 1)) - 1
    out = bytearray(_pack_header(header))
    for values in partition(grid):
        nb = compress_block(values, p)
        if nb.is_zero:
            out.append(0x80)
            continue
        stored = nb.e_max + bias
        if not 0 <= stored < 1 << b_e:
            raise ParamError("block exponent does not fit")
        value, nbits = _pack_planes(nb, p)
        width = 1 + b_e + nbits
        nbytes = (width + 7) // 8
        out += (((stored << nbits) | value) << (8 * nbytes - width)).to_bytes(nbytes, "big")
    return bytes(out)


def scalar_decode(grid, p):
    """Decoded grid from the scalar stages, or the index of the first block that overflows."""
    blocks = []
    for i, values in enumerate(partition(grid)):
        try:
            blocks.append(decompress_block(compress_block(values, p), p)[1])
        except OverflowError:
            return i
    return unpartition(blocks, grid.shape)


def draw_grid(rng, shape, kind):
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, shape)
    if kind == "near-max":
        return rng.uniform(-1.0, 1.0, shape) * 1.7e308
    if kind == "subnormal":
        # block exponents down to -1074: b_e = 11 cannot hold them, b_e = 13 can
        grid = rng.uniform(-1.0, 1.0, shape) * 2.0 ** -1060
        grid.flat[::3] = rng.uniform(-1.0, 1.0, grid.flat[::3].shape) * 5e-324 * 7
        return grid
    grid = rng.standard_normal(shape) * np.exp2(rng.integers(-12, 13, size=shape))
    if kind == "zero-blocks":
        grid[:4] = 0.0
        grid[8:12] = 0.0
    return grid


def check_identity(grid, p, b_e):
    try:
        expected = scalar_container(grid, p, b_e)
    except Exception as e:  # the batch path must raise the same type
        with pytest.raises(type(e)):
            compress(grid, p, b_e=b_e)
        return
    data = compress(grid, p, b_e=b_e)
    assert data == expected
    want = scalar_decode(grid, p)
    if isinstance(want, int):
        with pytest.raises(DecodeError) as info:
            decompress(data)
        assert info.value.block == want
    else:
        got = decompress(data)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 3), q=st.sampled_from(sorted(K_FOR_Q)),
       beta_kind=st.sampled_from(["zero", "small", "max", "wide"]),
       kind=st.sampled_from(["normal", "zero-blocks", "uniform", "subnormal", "near-max"]),
       b_e=st.sampled_from([11, 13]), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_batch_equals_scalar(d, q, beta_kind, kind, b_e, seed, data):
    shape = (data.draw(st.integers(9, 14) if kind == "zero-blocks" else st.integers(1, 9)),)
    shape += tuple(data.draw(st.integers(1, 9)) for _ in range(d - 1))
    beta = {"zero": 0, "small": data.draw(st.integers(1, 5)),
            "max": q - 2 * d + 2, "wide": q + 2}[beta_kind]
    p = CodecParams(d, K_FOR_Q[q], q, beta, allow_wide_beta=beta_kind == "wide")
    check_identity(draw_grid(np.random.default_rng(seed), shape, kind), p, b_e)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_wrapping_blocks_take_the_scalar_fallback(d, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return scalar_fallback(*args)

    scalar_fallback = batch.scalar_values
    monkeypatch.setattr(batch, "scalar_values", counting)
    # uniform(-1, 1) blocks at q = 62 and small beta: the inverse lifting of
    # some blocks leaves int64 (the golden "uniform-d*-f64" grids)
    shape = {1: (32,), 2: (8, 8), 3: (4, 4, 8)}[d]
    beta = {1: 2, 2: 4, 3: 5}[d]
    grid = np.random.default_rng(1214 + d).uniform(-1.0, 1.0, shape)
    check_identity(grid, CodecParams(d, 53, 62, beta), 11)
    assert len(calls) > 0


@pytest.mark.parametrize("shape, k, q", [((9001,), 53, 62), ((130, 70), 24, 30),
                                         ((24, 17, 18), 53, 62)])
def test_grids_spanning_several_runs_of_blocks(shape, k, q):
    # compress and decompress work through runs of batch.chunk_rows blocks
    d = len(shape)
    p = CodecParams(d, k, q, q - 2 * d + 2)
    assert np.prod([(n + 3) // 4 for n in shape]) > 2 * batch.chunk_rows(p)
    grid = draw_grid(np.random.default_rng(d), shape, "zero-blocks")
    check_identity(grid, p, 11)
    data = compress(grid, p)
    for damaged in (data[:-1], data + b"\x00"):
        with pytest.raises(ContainerError):
            decompress(damaged)


def test_forward_keeps_its_range_checks(monkeypatch):
    from zfpkit.codec import NegabinaryRangeError, TransformOverflowError

    p = CodecParams(1, 13, 9, 9)
    blocks = np.array([[3.0, -1.0, 0.5, 2.0]])
    live, e_max = batch.block_exponents(blocks)
    assert live.tolist() == [True] and e_max.tolist() == [1]
    batch.forward(blocks, live, e_max, p)
    # an exponent three short scales the block past 2**q
    with pytest.raises(TransformOverflowError):
        batch.forward(blocks, live, e_max - 3, p)
    monkeypatch.setattr(batch, "_lift_forward", lambda ints, p: None)
    with pytest.raises(NegabinaryRangeError):
        batch.forward(blocks, live, e_max - 3, p)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stages_above_max_q_run_block_by_block(d):
    # q = 80: the masks need 82 digits, so each live row runs the scalar stages
    p = CodecParams(d, 53, 80, 30)
    assert p.q > batch.MAX_Q
    rng = np.random.default_rng(80 + d)
    blocks = rng.standard_normal((6, p.n)) * np.exp2(rng.integers(-40, 40, (6, p.n)))
    blocks[[0, 3]] = 0.0
    live, e_max = batch.block_exponents(blocks)
    digits = batch.forward(blocks, live, e_max, p)
    assert digits.dtype == object and digits.shape == (4, p.n)
    for row, values in zip(digits.tolist(), blocks[live].tolist()):
        assert tuple(row) == compress_block(values, p).digits
    values = batch.decode_blocks(e_max, digits, p)
    for got, row, e in zip(values, digits.tolist(), e_max.tolist()):
        assert tuple(got.tolist()) == decompress_block(NegaBlock(tuple(row), e), p)[1]
    # a run with no live row: no masks, and all-zero masks decode to zeros
    dead = np.zeros((3, p.n))
    live, e_max = batch.block_exponents(dead)
    assert batch.forward(dead, live, e_max, p).shape == (0, p.n)
    zero = np.zeros((3, p.n), dtype=object)
    assert batch.decode_blocks(np.zeros(3, dtype=np.int64), zero, p).tolist() == dead.tolist()
