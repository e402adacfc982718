"""Container format: plane coder losslessness, header round trips, damage."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zfpkit.codec import (
    ArrayHeader,
    CodecParams,
    ContainerError,
    DecodeError,
    GridShapeError,
    NegaBlock,
    ParamError,
    bit_planes,
    bitplane_truncate,
    compress,
    compress_block,
    decode_planes,
    decompress,
    encode_planes,
    nega_encode,
    partition,
    read_header,
    roundtrip_ref,
    unpartition,
)
from zfpkit.codec.stream import (
    _MAX_BLOCK_EXPONENT,
    _decode,
    _gather_digits,
    _read_run,
    _stream_bits,
)


def roundtrip_planes(nb, p):
    cb = encode_planes(nb, p)
    return decode_planes(cb, p), cb


class TestPlaneCoder:
    def test_identity_on_truncated_blocks(self):
        rng = np.random.default_rng(0)
        for d in (1, 2):
            q = 30
            for beta in (0, 1, 7, 20, q - 2 * d + 2):
                p = CodecParams(d, 24, q, beta)
                for _ in range(100):
                    ints = tuple(int(v) for v in rng.integers(-(1 << q) + 1, 1 << q, size=4 ** d))
                    nb = bitplane_truncate(
                        NegaBlock(tuple(nega_encode(v, q) for v in ints), q - 1), p)
                    got, cb = roundtrip_planes(nb, p)
                    assert got == nb
                    assert cb.zero_flag == nb.is_zero

    def test_zero_block_has_empty_payload(self):
        p = CodecParams(1, 24, 30, 8)
        nb = NegaBlock((0, 0, 0, 0), None)
        got, cb = roundtrip_planes(nb, p)
        assert got.is_zero
        assert cb.zero_flag and cb.payload == b"" and cb.e_max is None

    def test_negative_zero_flag_with_payload_rejected(self):
        from zfpkit.codec import CompressedBlock
        with pytest.raises(ValueError):
            CompressedBlock(True, None, 8, b"\x80", 1)

    def test_all_zero_plane_costs_one_bit(self):
        # identical blocks differing by one nonzero plane differ by n bits
        p = CodecParams(1, 24, 30, 8)
        base = NegaBlock((0, 0, 0, 1 << 31), 29)
        denser = NegaBlock((1 << 30, 0, 0, 1 << 31), 29)
        cb1 = encode_planes(base, p)
        cb2 = encode_planes(denser, p)
        assert cb2.payload_bits == cb1.payload_bits + 4  # one plane went raw

    def test_truncated_payload_names_plane(self):
        from zfpkit.codec import CompressedBlock
        p = CodecParams(1, 24, 30, 8)
        nb = NegaBlock(tuple(nega_encode(v, 30) for v in (77, -5, 9, 1 << 29)), 29)
        cb = encode_planes(nb, p)
        clipped = CompressedBlock(False, cb.e_max, cb.beta, cb.payload[:1],
                                  min(cb.payload_bits, 8))
        with pytest.raises(DecodeError, match="plane"):
            decode_planes(clipped, p)

    def test_beta_mismatch_refused(self):
        p8 = CodecParams(1, 24, 30, 8)
        p9 = CodecParams(1, 24, 30, 9)
        cb = encode_planes(NegaBlock((0, 0, 0, 0), None), p8)
        with pytest.raises(DecodeError, match="beta"):
            decode_planes(cb, p9)


MASK_QS = [9, 30, 62, 63, 80, 1024]


class TestMaskLayout:
    """The writer's plane bits and the reader's mask assembly are one layout."""

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(1, 3), q=st.sampled_from(MASK_QS), data=st.data())
    def test_plane_bits_then_masks_give_the_truncated_masks(self, d, q, data):
        from zfpkit.codec import batch
        from zfpkit.codec.stream import _mask_bits, _masks

        beta = data.draw(st.integers(0, q + 2))
        p = CodecParams(d, 13, q, beta, allow_wide_beta=True)
        rows = data.draw(st.integers(0, 3))
        values = data.draw(st.lists(st.integers(0, (1 << (q + 2)) - 1),
                                    min_size=rows * p.n, max_size=rows * p.n))
        kind = batch._digit_type(p)
        assert (kind is np.uint64) == (q <= 62)
        digits = np.array(values, dtype=kind).reshape(rows, p.n)
        planes = _mask_bits(digits, p)
        assert planes.shape == (rows, beta, p.n)
        for i, j, c in np.ndindex(planes.shape):
            assert planes[i, j, c] == (values[i * p.n + c] >> (q + 1 - j)) & 1
        masks = _masks(planes, p)
        assert masks.dtype == digits.dtype and masks.shape == digits.shape
        kept = ((1 << (q + 2)) - 1) ^ ((1 << (q + 2 - beta)) - 1)
        assert masks.reshape(-1).tolist() == [v & kept for v in values]

    @pytest.mark.parametrize("q", MASK_QS)
    def test_empty_plane_last_in_the_stream_reads_zeros(self, q):
        # plane 0 is coded (1 + 4 bits), planes 1-3 are empty: the payload is one
        # byte whose last bit is the test bit of an empty plane
        p = CodecParams(1, 13, q, 4)
        nb = NegaBlock((0, 1 << (q + 1), 0, 0), 3)
        cb = encode_planes(nb, p)
        assert cb.payload_bits == 8 and cb.payload == bytes([0b10100000])
        assert decode_planes(cb, p) == nb


class TestContainer:
    def test_round_trip_ragged_2d(self):
        rng = np.random.default_rng(5)
        grid = rng.uniform(1.0, 2.0, size=(10, 10))
        p = CodecParams(2, 53, 62, 48)
        data = compress(grid, p)
        header, _ = read_header(data)
        assert header.dims == (10, 10)
        assert header.block_count == 9
        out = decompress(data)
        assert out.shape == (10, 10)
        assert np.max(np.abs(out - grid)) <= 1e-9 * np.max(np.abs(grid))

    def test_lossless_on_small_integer_grid(self):
        # full precision, integral values, tiny exponent spread: exact
        grid = np.arange(1, 36, dtype=np.float64).reshape(5, 7)
        p = CodecParams(2, 53, 62, 64, allow_wide_beta=True)
        out = decompress(compress(grid, p))
        assert np.array_equal(out, grid)

    def test_all_zero_grid(self):
        grid = np.zeros((9, 3))
        p = CodecParams(2, 53, 62, 32)
        data = compress(grid, p)
        # 6 blocks, each one flag bit padded to a byte
        header, offset = read_header(data)
        assert len(data) - offset == header.block_count
        assert np.array_equal(decompress(data), grid)

    def test_header_fields_round_trip(self):
        grid = np.ones((4, 4, 4))
        p = CodecParams(3, 24, 30, 26, allow_wide_beta=True)
        data = compress(grid, p, b_e=13)
        header, _ = read_header(data)
        assert (header.k, header.q, header.beta, header.b_e) == (24, 30, 26, 13)
        assert header.wide_beta and header.d == 3

    def test_bad_magic_refused(self):
        grid = np.ones(4)
        data = compress(grid, CodecParams(1, 53, 62, 32))
        with pytest.raises(ContainerError, match="magic"):
            decompress(b"JUNK" + data[4:])

    def test_version_mismatch_refused(self):
        data = bytearray(compress(np.ones(4), CodecParams(1, 53, 62, 32)))
        data[4] = 9
        with pytest.raises(ContainerError, match="version"):
            decompress(bytes(data))

    def test_truncated_payload_names_block(self):
        grid = np.arange(1, 17, dtype=np.float64)
        data = compress(grid, CodecParams(1, 53, 62, 60))
        with pytest.raises(DecodeError, match="block"):
            decompress(data[:len(data) - 10])

    def test_nan_rejected(self):
        grid = np.array([1.0, float("nan"), 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            compress(grid, CodecParams(1, 53, 62, 32))

    def test_exponent_field_width_guard(self):
        grid = np.full(4, 2.0 ** 40)
        with pytest.raises(ParamError, match="b_e"):
            compress(grid, CodecParams(1, 53, 62, 32), b_e=5)
        compress(grid, CodecParams(1, 53, 62, 32), b_e=8)

    def test_dims_mismatch_refused(self):
        with pytest.raises(Exception):
            compress(np.ones((4, 4)), CodecParams(1, 53, 62, 32))

    def test_empty_grid_refused(self):
        with pytest.raises(GridShapeError, match="empty grid"):
            compress(np.empty((0,)), CodecParams(1, 53, 62, 32))

    def test_reader_runs_name_their_first_block(self, monkeypatch):
        from zfpkit.codec import batch

        # runs of 4096 values, so that the grid spans more than two
        monkeypatch.setattr(batch, "chunk_rows", lambda p: 4096 // p.n)
        p = CodecParams(2, 24, 30, 12)
        grid = np.random.default_rng(4).standard_normal((99, 130))
        grid[:12] = 0.0
        data = compress(grid, p)
        header, runs = _decode(data)
        firsts, values = zip(*runs)
        assert firsts == tuple(range(0, header.block_count, batch.chunk_rows(p)))
        assert len(firsts) > 2
        assert np.array_equal(unpartition(np.concatenate(values), grid.shape), decompress(data))

    def test_inconsistent_header_parameters_refused(self):
        # wide beta stored without the opt-in flag is an invalid container
        data = bytearray(compress(np.ones(4), CodecParams(1, 53, 62, 62)))
        data[10:12] = (63).to_bytes(2, "little")  # beta beyond q - 2d + 2
        with pytest.raises(ContainerError, match="inconsistent"):
            read_header(bytes(data))


class TestPrecisionCap:
    """q <= 1024: block floating point scales every finite float64 below 2**q."""

    @pytest.mark.parametrize("values, b_e", [
        ([5e-324, 1.7e308, 1.0, -2.0], 11),
        ([1.7976931348623157e308, -1.7976931348623157e308, 1e308, 0.0], 11),
        ([5e-324, -5e-324, 1e-320, 0.0], 13),
    ])
    def test_q_1024_round_trips_extreme_grids(self, values, b_e):
        p = CodecParams(1, 53, 1024, 1024)
        out = decompress(compress(np.array(values), p, b_e=b_e))
        assert out.shape == (4,) and np.isfinite(out).all()

    @pytest.mark.parametrize("q, beta", [(1023, 1), (1024, 2)])
    def test_values_near_one_at_q_1023_and_1024_decode_as_the_oracle(self, q, beta):
        # their truncated ints reach 2**1024, beyond float64, before the block shift
        p = CodecParams(1, 53, q, beta)
        grid = np.random.default_rng(q).uniform(-1.0, 1.0, 400)
        want = [float(v) for blk in grid.reshape(-1, 4).tolist()
                for v in roundtrip_ref(blk, p).out_values]
        assert decompress(compress(grid, p)).tolist() == want

    def test_q_1025_refused(self):
        with pytest.raises(ParamError, match="1024"):
            CodecParams(1, 53, 1025, 8)

    def test_header_with_q_above_1024_refused(self):
        data = bytearray(compress(np.zeros(4), CodecParams(1, 53, 1024, 8)))
        data[8:10] = (1025).to_bytes(2, "little")
        with pytest.raises(ContainerError, match="inconsistent"):
            read_header(bytes(data))


class TestExponentFieldCheck:
    """Every block exponent is checked before any coding, for every q."""

    @pytest.mark.parametrize("q", [30, 62, 80])
    def test_first_misfit_block_named(self, q):
        grid = np.ones((4, 12))
        grid[:, 4:8] = 2.0 ** 200  # block 1: exponent 200
        grid[:, 8:] = 2.0 ** -300  # block 2: exponent -300
        p = CodecParams(2, 24 if q == 30 else 53, q, 8)
        with pytest.raises(ParamError, match="block exponent 200 does not fit a 8-bit"):
            compress(grid, p, b_e=8)
        with pytest.raises(ParamError, match="block exponent -300 does not fit a 9-bit"):
            compress(grid, p, b_e=9)
        compress(grid, p, b_e=10)


class TestReconstructionRange:
    """Blocks near the float64 maximum can reconstruct beyond it at small beta."""

    def test_single_block_grids(self):
        rng = np.random.default_rng(0)
        p = CodecParams(2, 53, 62, 4)
        failed = 0
        for _ in range(100):
            data = compress(rng.uniform(-1.0, 1.0, (4, 4)) * 1.7e308, p)
            try:
                decompress(data)
            except DecodeError as e:
                assert e.block == 0
                failed += 1
        assert failed == 86

    @pytest.mark.parametrize("q", [62, 80])
    def test_names_first_block_beyond_float64(self, q):
        from zfpkit.codec import compress_block, decompress_block, partition

        def overflows(values, p):
            try:
                decompress_block(compress_block(values, p), p)
            except OverflowError:
                return True
            return False

        grid = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 400)) * 1.7e308
        grid[:, :8] *= 1e-3  # the first two blocks stay in range
        p = CodecParams(2, 53, q, 4)
        first = next(i for i, blk in enumerate(partition(grid)) if overflows(blk, p))
        assert first == 2
        with pytest.raises(DecodeError, match="float64 range") as info:
            decompress(compress(grid, p))
        assert info.value.block == first


class TestDamagedContainer:
    @pytest.mark.parametrize("b_e", [0, 1, 33, 255])
    def test_exponent_field_width_out_of_range_refused(self, b_e):
        data = bytearray(compress(np.ones(4), CodecParams(1, 53, 62, 32)))
        data[12] = b_e
        with pytest.raises(ContainerError, match="b_e"):
            decompress(bytes(data))

    @pytest.mark.parametrize("e_max", [1024, 2 ** 31])
    def test_exponent_beyond_float64_refused(self, e_max):
        # one block, b_e = 32: the record opens with the flag bit and 32
        # exponent bits, i.e. the top 33 bits of the first five payload bytes
        data = bytearray(compress(np.arange(1.0, 5.0), CodecParams(1, 53, 62, 32), b_e=32))
        _, offset = read_header(bytes(data))
        field = ((1 << 32) - 1) << 7
        window = int.from_bytes(data[offset:offset + 5], "big") & ~field
        window |= (e_max + (1 << 31) - 1) << 7
        data[offset:offset + 5] = window.to_bytes(5, "big")
        with pytest.raises(DecodeError, match="exponent"):
            decompress(bytes(data))

    def test_dims_beyond_the_payload_fail_in_the_reader(self):
        # 2**90 blocks claimed: decoding must not size anything by the header's dims
        data = bytearray(compress(np.ones((4, 4, 4)), CodecParams(3, 24, 30, 8)))
        data[14:26] = b"\xff" * 12
        with pytest.raises(DecodeError, match="stream ends inside block prologue"):
            decompress(bytes(data))

    def test_trailing_bytes_refused(self):
        data = compress(np.arange(1.0, 17.0), CodecParams(1, 53, 62, 40))
        with pytest.raises(ContainerError, match="trailing"):
            decompress(data + b"\x00\x01")

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.booleans(),
           st.integers(min_value=0, max_value=2 ** 32 - 1), st.data())
    def test_every_truncation_raises_container_error(self, d, f64, seed, data):
        k, q = (53, 62) if f64 else (24, 30)
        beta = data.draw(st.integers(min_value=0, max_value=q - 2 * d + 2))
        # the first axis spans two blocks and the first of them is zeroed
        shape = (data.draw(st.integers(min_value=5, max_value=8)),) + tuple(
            data.draw(st.integers(min_value=1, max_value=4)) for _ in range(d - 1))
        rng = np.random.default_rng(seed)
        grid = rng.standard_normal(shape) * np.exp2(rng.integers(-12, 13, size=shape))
        grid[:4] = 0.0
        blob = compress(grid, CodecParams(d, k, q, beta))
        for cut in range(len(blob)):
            with pytest.raises(ContainerError):
                decompress(blob[:cut])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.sampled_from([(13, 9), (24, 30), (53, 62), (53, 80)]),
           st.integers(min_value=0, max_value=2 ** 32 - 1), st.data())
    def test_bit_flips_and_spliced_headers_raise_only_container_error(self, d, kq, seed, data):
        k, q = kq
        rng = np.random.default_rng(seed)

        def container():
            beta = data.draw(st.integers(min_value=0, max_value=q - 2 * d + 2))
            shape = (data.draw(st.integers(min_value=5, max_value=8)),) + tuple(
                data.draw(st.integers(min_value=1, max_value=4)) for _ in range(d - 1))
            grid = rng.standard_normal(shape) * np.exp2(rng.integers(-12, 13, size=shape))
            grid[:4] = 0.0
            return compress(grid, CodecParams(d, k, q, beta))

        blob, other = container(), container()
        cut, other_cut = read_header(blob)[1], read_header(other)[1]
        # each container's header on the other's payload
        damaged = [blob[:cut] + other[other_cut:], other[:other_cut] + blob[cut:]]
        # every header bit, and a sample of payload bits
        bits = list(range(8 * cut))
        bits += rng.choice(np.arange(8 * cut, 8 * len(blob)), size=min(48, 8 * (len(blob) - cut)),
                           replace=False).tolist()
        for bit in bits:
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 0x80 >> (bit % 8)
            damaged.append(bytes(flipped))
        for bad in damaged:
            try:
                decompress(bad)  # a damaged container may still be a valid one
            except ContainerError:
                pass


def plane_ends(nb, p):
    """Bits from a record's first plane test bit to the end of each kept plane."""
    ends, at = [], 0
    for row in bit_planes(nb, p)[:p.beta]:
        at += 1 + p.n * any(row)
        ends.append(at)
    return ends


def first_cut_plane(ends, limit):
    """The first plane that does not lie wholly within ``limit`` bits."""
    return next(j for j, end in enumerate(ends) if end > limit)


def record_layout(grid, p, b_e):
    """(payload byte offset, plane ends or None for a zero block) of every record."""
    layout, at = [], 0
    for values in partition(grid):
        nb = compress_block(values, p)
        if nb.is_zero:
            layout.append((at, None))
            at += 1
        else:
            ends = plane_ends(nb, p)
            layout.append((at, ends))
            at += (1 + b_e + ends[-1] + 7) // 8
    return layout, at


def layout_grid(d, seed):
    """A zero block, a block of equal values (mostly empty planes), then random blocks."""
    shape = {1: (24,), 2: (8, 12), 3: (4, 4, 12)}[d]
    rng = np.random.default_rng(seed)
    grid = rng.standard_normal(shape) * np.exp2(rng.integers(-12, 13, size=shape))
    grid[(slice(0, 4),) * d] = 0.0
    grid[(slice(0, 4),) * (d - 1) + (slice(4, 8),)] = 3.0
    return grid


class TestReaderErrorNaming:
    """The block and plane a damaged payload names, derived from the plane layout."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.sampled_from([(24, 30), (53, 62)]),
           st.integers(min_value=0, max_value=2 ** 32 - 1), st.data())
    def test_every_payload_cut_names_first_plane_not_inside(self, d, kq, seed, data):
        from zfpkit.codec import CompressedBlock
        k, q = kq
        p = CodecParams(d, k, q, data.draw(st.integers(min_value=1, max_value=q - 2 * d + 2)))
        rng = np.random.default_rng(seed)
        # coefficients of random magnitude, so that some planes are empty
        ints = [int(rng.integers(-(1 << t), 1 << t)) for t in rng.integers(0, q + 1, size=p.n)]
        nb = bitplane_truncate(NegaBlock(tuple(nega_encode(v, q) for v in ints), q - 1), p)
        if nb.is_zero:  # -(2**q - 1) needs digit position q + 1 for even q
            ints[0] = -((1 << q) - 1)
            nb = bitplane_truncate(NegaBlock(tuple(nega_encode(v, q) for v in ints), q - 1), p)
        cb = encode_planes(nb, p)
        ends = plane_ends(nb, p)
        assert ends[-1] == cb.payload_bits
        for cut in range(len(cb.payload)):
            clipped = CompressedBlock(False, cb.e_max, p.beta, cb.payload[:cut],
                                      min(cb.payload_bits, 8 * cut))
            with pytest.raises(DecodeError, match="stream ends inside plane payload") as info:
                decode_planes(clipped, p)
            assert info.value.block is None
            assert info.value.plane == first_cut_plane(ends, 8 * cut)

    @pytest.mark.parametrize("d, k, q, beta", [(1, 53, 62, 62), (2, 24, 30, 9), (3, 53, 62, 20)])
    def test_exponent_fault_named_before_any_later_cut(self, d, k, q, beta):
        b_e = 12
        p = CodecParams(d, k, q, beta)
        grid = layout_grid(d, seed=d)
        data = compress(grid, p, b_e=b_e)
        _, offset = read_header(data)
        layout, size = record_layout(grid, p, b_e)
        assert offset + size == len(data)
        for i, (at, ends) in enumerate(layout):
            if ends is None:
                continue
            # the flag bit, then the 12-bit field set to 4095: exponent 2048
            start = offset + at
            bad = bytearray(data)
            field = int.from_bytes(bad[start:start + 2], "big") | ((1 << b_e) - 1) << 3
            bad[start:start + 2] = field.to_bytes(2, "big")
            # uncut, and cut inside this block's planes or any later record
            for cut in range(start + 2, len(data) + 1):
                with pytest.raises(DecodeError, match="block exponent 2048 exceeds") as info:
                    decompress(bytes(bad[:cut]))
                assert (info.value.block, info.value.plane) == (i, None)

    @pytest.mark.parametrize("d, k, q, beta", [(1, 53, 62, 62), (2, 24, 30, 9), (3, 53, 62, 20),
                                               (1, 13, 9, 9)])
    def test_cut_inside_a_record_names_it(self, d, k, q, beta):
        b_e = 11
        p = CodecParams(d, k, q, beta)
        grid = layout_grid(d, seed=10 + d)
        data = compress(grid, p, b_e=b_e)
        _, offset = read_header(data)
        layout, size = record_layout(grid, p, b_e)
        assert offset + size == len(data)
        for i, (at, ends) in enumerate(layout):
            end = layout[i + 1][0] if i + 1 < len(layout) else size
            for cut in range(at, end):
                limit = 8 * (cut - at) - 1 - b_e  # plane bits of block i inside the cut
                with pytest.raises(DecodeError) as info:
                    decompress(data[:offset + cut])
                if ends is None or limit < 0:
                    assert "stream ends inside block prologue" in str(info.value)
                    assert (info.value.block, info.value.plane) == (i, None)
                else:
                    assert "stream ends inside plane payload" in str(info.value)
                    assert (info.value.block, info.value.plane) == (
                        i, first_cut_plane(ends, limit))


EXTREMES = [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0]
SUBNORMAL_GRID = [1e-310, 2.0, 1.0, 3.0, 1e-310, 1e-311, 0.0, 5e-324]


class TestDefaultExponentWidth:
    """b_e=None: 11 bits, or 12 when a block exponent is below -1023."""

    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=8),
                      elements=st.floats(allow_nan=False, allow_infinity=False)
                      | st.sampled_from(EXTREMES)))
    def test_every_finite_grid_compresses(self, grid):
        p = CodecParams(grid.ndim, 53, 62, 62 - 2 * grid.ndim + 2)
        data = compress(grid, p)
        # block exponents from the scalar frexp, not from the codec
        e_max = [max(math.frexp(v)[1] - 1 for v in values if v)
                 for values in partition(grid) if any(values)]
        assert read_header(data)[0].b_e == (12 if min(e_max, default=0) < -1023 else 11)
        try:
            out = decompress(data)
        except DecodeError as e:  # a block near the float64 maximum may reconstruct beyond it
            assert "float64 range" in str(e)
        else:
            assert out.shape == grid.shape and np.isfinite(out).all()

    def test_subnormal_grid_round_trips(self):
        from zfpkit.experiments import applicable_bound_exact
        grid = np.array(SUBNORMAL_GRID)
        p = CodecParams(1, 53, 62, 62)
        data = compress(grid, p)
        assert read_header(data)[0].b_e == 12
        out = decompress(data)
        bound = float(applicable_bound_exact(p))
        for x, w in zip(grid.reshape(2, 4), out.reshape(2, 4)):
            assert np.max(np.abs(w - x)) <= bound * np.max(np.abs(x))
        # the block of 1e-310 has exponent -1030; an explicit width is not widened
        with pytest.raises(ParamError, match="block exponent -1030 does not fit a 11-bit"):
            compress(grid, p, b_e=11)
        assert compress(grid, p, b_e=12) == data

    def test_grids_that_fit_eleven_bits_keep_their_bytes(self):
        grid = np.array([1e-300, 2.0, -1.7976931348623157e308, 3.0, 0.0, 0.0, 0.0, 0.0])
        p = CodecParams(1, 53, 62, 40)
        assert compress(grid, p) == compress(grid, p, b_e=11)


def loop_read_run(window, first, count, header, params):
    """The container reader as one Python step per plane: the reference for ``_read_run``."""
    b_e = header.b_e
    prologue = 1 + b_e
    bits = memoryview(_stream_bits(window, params))
    limit = 8 * len(window)
    planes_at = np.zeros(count, dtype=np.int64)
    at = 0
    for r in range(count):
        if at >= limit or (not bits[at] and at + prologue > limit):
            break
        if bits[at]:
            at += 8
            continue
        planes_at[r] = at = at + prologue
        for _ in range(params.beta):
            at += params.n + 1 if bits[at] else 1
        at = (at + 7) & -8
    else:
        r = count
    live = np.flatnonzero(planes_at)
    stream = np.asarray(bits)
    field = stream[planes_at[live, None] - np.arange(b_e, 0, -1)]
    e_max = np.zeros(count, dtype=np.int64)
    e_max[live] = field @ (1 << np.arange(b_e - 1, -1, -1)) - ((1 << (b_e - 1)) - 1)
    over = e_max > _MAX_BLOCK_EXPONENT
    if over.any():
        i = int(over.argmax())
        raise DecodeError(f"block exponent {e_max[i]} exceeds {_MAX_BLOCK_EXPONENT}, "
                          "the largest exponent of a finite float64", block=first + i)
    masks = _gather_digits(stream, planes_at[live], params, limit, first + live)
    if r < count:
        raise DecodeError("stream ends inside block prologue", block=first + r)
    digits = np.zeros((count, params.n), dtype=masks.dtype)
    digits[live] = masks
    return e_max, digits, at // 8


def read_outcome(reader, window, first, count, header, params):
    """(e_max, digits, bytes read) as lists, or the DecodeError's (text, block, plane)."""
    try:
        e_max, digits, used = reader(window, first, count, header, params)
    except DecodeError as e:
        return "error", str(e), e.block, e.plane
    return "ok", e_max.tolist(), digits.tolist(), used


def reader_header(d, q, beta, b_e):
    k = min(q - 1, 53)
    return ArrayHeader(dims=(4,) * d, k=k, q=q, beta=beta, b_e=b_e,
                       wide_beta=beta > q - 2 * d + 2)


class TestReaderEquivalence:
    """``_read_run`` against the per-plane reference on valid, cut and random windows."""

    @settings(max_examples=600, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.sampled_from([9, 30, 62, 80]),
           st.sampled_from(["zero", "one", "max", "wide"]), st.sampled_from([2, 11, 32]),
           st.integers(min_value=0, max_value=2 ** 32 - 1), st.data())
    def test_same_result_or_same_error(self, d, q, which, b_e, seed, data):
        beta = {"zero": 0, "one": 1, "max": q - 2 * d + 2, "wide": q + 2}[which]
        header = reader_header(d, q, beta, b_e)
        p = header.params()
        rng = np.random.default_rng(seed)
        nblocks = data.draw(st.integers(min_value=1, max_value=6))
        shape = (4 * nblocks,) + (4,) * (d - 1)
        # magnitudes in [0.5, 4), so block exponents fit even a 2-bit field; some zero blocks
        grid = rng.uniform(0.5, 4.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        grid *= rng.integers(0, 2, size=(nblocks,) + (1,) * (d - 1)).repeat(4, axis=0)
        grid *= rng.integers(0, 2, size=shape) if data.draw(st.booleans()) else 1
        blob = compress(grid, p, b_e=b_e)
        payload = blob[read_header(blob)[1]:]
        kind = data.draw(st.sampled_from(["valid", "cut", "random"]))
        first = data.draw(st.integers(min_value=0, max_value=1000))
        count = data.draw(st.integers(min_value=1, max_value=nblocks))
        if kind == "valid":
            window = payload
        elif kind == "cut":
            window = payload[:data.draw(st.integers(min_value=0, max_value=len(payload)))]
        else:
            window = rng.integers(0, 256, size=data.draw(st.integers(0, len(payload) + 8)),
                                  dtype=np.uint8).tobytes()
            if data.draw(st.booleans()):  # sparse bits: nonzero records of empty planes
                window = bytes(b & rng.integers(0, 256) for b in window)
        want = read_outcome(loop_read_run, window, first, count, header, p)
        event(f"{kind}: " + ("ok" if want[0] == "ok" else next(
            fault for fault in ("prologue", "plane payload", "exponent") if fault in want[1])))
        assert read_outcome(_read_run, window, first, count, header, p) == want

    def test_widest_header_round_trips(self):
        p = CodecParams(3, 53, 1024, 1026, allow_wide_beta=True)
        rng = np.random.default_rng(3)
        grid = rng.standard_normal((4, 4, 8)) * np.exp2(rng.integers(-40, 41, size=(4, 4, 8)))
        grid[:, :, :4] = 0.0
        blob = compress(grid, p)
        out = decompress(blob)
        assert np.array_equal(out[:, :, :4], grid[:, :, :4])
        assert np.max(np.abs(out - grid)) <= 1e-12 * np.max(np.abs(grid))
        header, offset = read_header(blob)
        want = read_outcome(loop_read_run, blob[offset:], 0, 2, header, p)
        assert want[0] == "ok" and want[-1] == len(blob) - offset
        assert read_outcome(_read_run, blob[offset:], 0, 2, header, p) == want
