"""The batched container path equals a per-block assembly of the scalar pipeline.

``compress`` and ``decompress`` run every block at once on int64/uint64
arrays for q <= 62, each block through the scalar stages above, and
write and read the records of every q in runs of blocks.  The reference here builds the same container from the scalar
stage functions one block at a time (``compress_block``, ``_pack_planes``,
``decompress_block``); bytes, decoded values and raised exception types
must match exactly.  ``_pack_planes`` is this module's own plane packer, a
loop over planes and digits that shares no code with the record writer:
the package codes planes only through ``stream._write_records``, and
``encode_planes`` is a one-record call of it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfpkit.codec import (
    ArrayHeader,
    CodecParams,
    CompressedBlock,
    ContainerError,
    DecodeError,
    NegaBlock,
    ParamError,
    TransformOverflowError,
    bitplane_truncate,
    compress,
    compress_block,
    decompress,
    decompress_block,
    encode_planes,
    partition,
    unpartition,
)
from zfpkit.codec import batch
from zfpkit.codec.pipeline import _lift_forward_steps
from zfpkit.codec.stream import _pack_header

K_FOR_Q = {9: 13, 30: 24, 61: 53, 62: 53, 80: 53}


def _pack_planes(nb, p):
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


MASK_QS = [9, 30, 62, 63, 80, 1024]  # uint64 masks up to q = 62, Python ints above


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 3), q=st.sampled_from(MASK_QS), data=st.data())
def test_encode_planes_packs_like_the_reference(d, q, data):
    # encode_planes, a one-record call of the container writer, gives the
    # reference packer's bytes and bit count; an untruncated block codes like
    # its truncated form, so only the kept planes count
    beta = data.draw(st.integers(0, q + 2))
    p = CodecParams(d, 13, q, beta, allow_wide_beta=True)
    top = (1 << (q + 2)) - 1
    held = data.draw(st.integers(0, top))  # the digit positions any coefficient may have
    digits = data.draw(st.lists(st.integers(0, top), min_size=p.n, max_size=p.n))
    nb = NegaBlock(tuple(u & held for u in digits), data.draw(st.integers(-1074, 1023)))
    cut = bitplane_truncate(nb, p)
    value, nbits = _pack_planes(cut, p)
    nbytes = (nbits + 7) // 8
    want = CompressedBlock(False, nb.e_max, beta,
                           (value << (8 * nbytes - nbits)).to_bytes(nbytes, "big"), nbits)
    assert encode_planes(cut, p) == want
    assert encode_planes(nb, p) == want


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
def test_grids_spanning_several_runs_of_blocks(shape, k, q, monkeypatch):
    # compress and decompress work through runs of batch.chunk_rows blocks,
    # pinned to 4096 values so that each shape spans more than two runs
    monkeypatch.setattr(batch, "chunk_rows", lambda p: 4096 // p.n)
    d = len(shape)
    p = CodecParams(d, k, q, q - 2 * d + 2)
    assert np.prod([(n + 3) // 4 for n in shape]) > 2 * batch.chunk_rows(p)
    grid = draw_grid(np.random.default_rng(d), shape, "zero-blocks")
    check_identity(grid, p, 11)
    data = compress(grid, p)
    for damaged in (data[:-1], data + b"\x00"):
        with pytest.raises(ContainerError):
            decompress(damaged)


# each shape spans three runs of batch.chunk_rows blocks, pinned to 4096
# values, the last one partial, and its run 1 is the value slab zeroed below
# (ragged slowest axis)
MULTI_RUN = {1: ((9001,), slice(4096, 8192)), 2: ((150, 64), slice(64, 128)),
             3: ((41, 16, 16), slice(16, 32))}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [30, 62, 80])
@pytest.mark.parametrize("beta_kind", ["zero", "small", "max"])
def test_runs_with_a_zero_run_and_a_partial_run(d, q, beta_kind, monkeypatch):
    from zfpkit.codec.blocks import _block_array

    monkeypatch.setattr(batch, "chunk_rows", lambda p: 4096 // p.n)
    beta = {"zero": 0, "small": 3, "max": q - 2 * d + 2}[beta_kind]
    p = CodecParams(d, K_FOR_Q[q], q, beta)
    shape, zero = MULTI_RUN[d]
    grid = draw_grid(np.random.default_rng(10 * d + q), shape, "normal")
    grid[zero] = 0.0
    blocks, rows = _block_array(grid), batch.chunk_rows(p)
    assert 2 * rows < len(blocks) < 3 * rows
    assert not batch.block_exponents(blocks[rows:2 * rows])[0].any()
    assert batch.block_exponents(blocks[2 * rows:])[0].all()
    want = scalar_decode(grid, p)
    for b_e in (11, 32):
        data = compress(grid, p, b_e=b_e)
        assert data == scalar_container(grid, p, b_e)
        assert decompress(data).tobytes() == want.tobytes()


@pytest.mark.parametrize("k, q, beta, rows", [
    (53, 62, None, (1024, 256, 68)),  # the default maximum beta, q - 2d + 2
    (24, 30, 8, (1024, 1024, 474)),
])
def test_run_rows_at_the_benchmark_parameters(k, q, beta, rows):
    got = tuple(batch.chunk_rows(CodecParams(d, k, q, q - 2 * d + 2 if beta is None else beta))
                for d in (1, 2, 3))
    assert got == rows


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [9, 30, 62, 80])
def test_runs_hold_4096_values_to_1024_blocks_within_the_bit_budget(d, q):
    for beta in range(q + 3):
        p = CodecParams(d, K_FOR_Q[q], q, beta, allow_wide_beta=True)
        rows, least = batch.chunk_rows(p), 4096 // p.n
        assert least <= rows <= 1024, (beta, rows)
        # a run larger than 4096 values holds at most 2**18 bits of its longest records
        assert rows == least or rows * (1 + 32 + beta * (1 + p.n)) <= 1 << 18, (beta, rows)


# each shape spans three production runs at q = 30, beta = 8 (1024, 1024 and
# 474 blocks), the last one partial
PRODUCTION_RUNS = {1: (9001,), 2: (200, 200), 3: (40, 40, 40)}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_spanning_three_production_runs(d):
    p = CodecParams(d, 24, 30, 8)
    shape, rows = PRODUCTION_RUNS[d], batch.chunk_rows(p)
    assert 2 * rows < np.prod([(n + 3) // 4 for n in shape]) < 3 * rows
    grid = draw_grid(np.random.default_rng(30 + d), shape, "zero-blocks")
    data = compress(grid, p)
    assert data == scalar_container(grid, p, 11)
    assert decompress(data).tobytes() == scalar_decode(grid, p).tobytes()


def test_largest_runs_keep_memory_bounded():
    import tracemalloc

    # beta = 1 at d = 3: 1024-block runs of 65 536 values, the most any run holds
    p = CodecParams(3, 24, 30, 1)
    assert batch.chunk_rows(p) == 1024
    grid = np.random.default_rng(64).standard_normal((64, 64, 64))  # 4096 blocks, 2 MB
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        data = compress(grid, p)
        compress_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        decompress(data)
        decompress_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # about 2 MB and 3.3 MB of run temporaries above the block copy and the
    # two output arrays; one run of the whole grid would take 7.5 and 17 MB
    assert compress_peak < grid.nbytes + 3_000_000
    assert decompress_peak < 2 * grid.nbytes + 5_000_000


def test_decode_groups_keep_memory_bounded():
    import tracemalloc

    from zfpkit.codec import stream

    # 1024-block runs of 4096 values at beta 62: the whole grid is one decode group
    p = CodecParams(1, 53, 62, 62)
    assert batch.chunk_rows(p) == 1024
    grid = np.random.default_rng(16).standard_normal(16384)
    assert grid.size == stream._GROUP_VALUES
    data = compress(grid, p)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        decompress(data)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # about 2.1 MB, most of it one run's bit arrays; the group's digit masks
    # and values are 128 kB each
    assert peak < 2 * grid.nbytes + 2_500_000


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


def forward_line_steps(x0, x1, x2, x3):
    """Every value one forward lifting line computes, in the order of ``_lift_forward_steps``.

    Works on arrays of lines; the last four values are the line outputs x0..x3.
    """
    x0 = x0 + x3
    yield x0
    x0 = x0 >> 1
    x3 = x3 - x0
    yield x3
    x2 = x2 + x1
    yield x2
    x2 = x2 >> 1
    x1 = x1 - x2
    yield x1
    x0 = x0 + x2
    yield x0
    x0 = x0 >> 1
    x2 = x2 - x0
    yield x2
    x3 = x3 + x1
    yield x3
    x3 = x3 >> 1
    x1 = x1 - x3
    yield x1
    x3 = x3 + (x1 >> 1)
    yield x3
    x1 = x1 - (x3 >> 1)
    yield from (x0, x1, x2, x3)


@pytest.mark.parametrize("q", [3, 4])
def test_lifting_envelope(q):
    # every line of inputs within 2**q - 1: every intermediate within
    # 2**(q+1) - 2 and every output within 2**q - 1, the bound that lets
    # batch._lift_forward check its input alone
    top = (1 << q) - 1
    axis = np.arange(-top, top + 1, dtype=np.int64)
    lines = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), -1).reshape(-1, 4)
    steps = list(forward_line_steps(*lines.T))
    assert max(int(np.abs(x).max()) for x in steps) == 2 * top
    outputs = np.stack(steps[-4:], axis=1)
    assert int(np.abs(outputs).max()) == top
    ints = lines.copy()
    batch._lift_forward(ints, CodecParams(1, q + 1, q, 0))
    assert np.array_equal(ints, outputs)
    # the steps above are the specification's
    for line, out in zip(lines[::97].tolist(), outputs[::97].tolist()):
        assert list(_lift_forward_steps(*line)) == out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [30, 61, 62])
def test_lifting_keeps_full_blocks_within_the_input_bound(d, q):
    top = (1 << q) - 1
    rng = np.random.default_rng(q * d)
    edges = rng.choice([-top, top], size=(300, 4 ** d))
    inside = rng.integers(-top, top, size=(300, 4 ** d), endpoint=True)
    ints = np.concatenate([edges, inside]).astype(np.int64)
    p = CodecParams(d, 53, q, 0)
    batch._lift_forward(ints, p)
    assert int(np.abs(ints).max()) <= top
    for bad in (top + 1, -top - 1):
        over = np.zeros((2, 4 ** d), dtype=np.int64)
        over[1, -1] = bad
        with pytest.raises(TransformOverflowError):
            batch._lift_forward(over, p)


def test_bit_length_at_rounding_carries():
    values = [0, 1 << 63]
    for j in range(1, 64):
        values += [(1 << j) - 1, 1 << j, (1 << j) + 1]
    rng = np.random.default_rng(63)
    values += rng.integers(0, 1 << 63, size=2000, dtype=np.uint64, endpoint=True).tolist()
    values += (rng.integers(0, 1 << 63, size=2000, dtype=np.uint64)
               >> rng.integers(0, 64, size=2000, dtype=np.uint64)).tolist()
    got = batch._bit_length(np.array(values, dtype=np.uint64))
    assert got.tolist() == [v.bit_length() for v in values]
