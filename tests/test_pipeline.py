"""Stage-level pipeline tests: shared-exponent conversion, sequency order,
negabinary conversion, plane truncation, and the worked 1-d example."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfpkit.codec import (
    BlockFP,
    CodecParams,
    NegaBlock,
    NegabinaryRangeError,
    ParamError,
    bit_planes,
    bitplane_truncate,
    block_fp_forward,
    block_fp_inverse,
    from_negabinary,
    nega_decode,
    nega_encode,
    pipeline_trace,
    sequency_order,
    sequency_permute,
    sequency_unpermute,
    significand_truncate,
    to_negabinary,
)
from zfpkit.codec.pipeline import SEQUENCY_TABLES

TOY = CodecParams(d=1, k=13, q=9, beta=7)


class TestBlockFP:
    def test_worked_example(self):
        fp = block_fp_forward([5632.0, 3072.0, 400.0, 68.0], TOY)
        assert fp.ints == (352, 192, 25, 4)
        assert fp.e_max == 12 and fp.ell == 4

    def test_all_zero_block(self):
        fp = block_fp_forward([0.0, 0.0, 0.0, 0.0], TOY)
        assert fp.is_zero and fp.ints == (0, 0, 0, 0)
        assert block_fp_inverse(fp, TOY) == (0.0,) * 4

    def test_small_magnitudes_shift_left(self):
        fp = block_fp_forward([2.0 ** -3] * 4, TOY)
        assert fp.ints == (256, 256, 256, 256)
        assert fp.ell == -11

    def test_truncation_is_toward_zero(self):
        fp = block_fp_forward([5632.0, -68.0, 68.0, 0.0], TOY)
        # -68 / 16 = -4.25 must round to -4, not -5
        assert fp.ints[1] == -4 and fp.ints[2] == 4

    def test_inverse_worked_example(self):
        fp = BlockFP((364, 196, 28, -12), 12, 4)
        assert block_fp_inverse(fp, TOY) == (5824.0, 3136.0, 448.0, -192.0)

    def test_inverse_of_ints_beyond_the_float64_range(self):
        # at q = 1024 a truncated int can pass 2**1024 while its value is small
        p = CodecParams(1, 53, 1024, 2)
        fp = BlockFP((3 << 1023, -(1 << 1024), (1 << 1100) + 1, 0), 0, -1023)
        assert block_fp_inverse(fp, p) == (3.0, -2.0, 2.0 ** 77, 0.0)
        with pytest.raises(OverflowError):
            block_fp_inverse(BlockFP((3 << 1023, 0, 0, 0), 1025, 2), p)

    def test_significand_truncation(self):
        assert significand_truncate((1 << 12) + 1, 12) == 1 << 12
        assert significand_truncate(-((1 << 12) + 1), 12) == -(1 << 12)
        assert significand_truncate(5, 53) == 5

    @given(st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=4, max_size=4))
    def test_scaled_magnitudes_fit_q_bits(self, vals):
        fp = block_fp_forward(vals, TOY)
        if not fp.is_zero:
            assert all(abs(v) < (1 << TOY.q) for v in fp.ints)

    def test_shared_exponent_truncation_error_bound(self):
        # dropping the fractional part after the shift loses at most
        # 2**-ell * 2**(1-q) * max|x| per component, relative to exact scaling
        rng = np.random.default_rng(2)
        for _ in range(300):
            vals = [float(v) for v in rng.uniform(-1e6, 1e6, size=4)]
            fp = block_fp_forward(vals, TOY)
            bound = Fraction(2) ** (1 - TOY.q) * max(
                abs(Fraction(v)) for v in vals) * Fraction(2) ** -fp.ell
            for v, i in zip(vals, fp.ints):
                exact = Fraction(v) * Fraction(2) ** -fp.ell
                assert abs(exact - i) <= bound


class TestSequency:
    def test_tables_match_generator(self):
        for d in (1, 2, 3):
            assert SEQUENCY_TABLES[d] == sequency_order(d)

    def test_one_dimension_is_identity(self):
        assert SEQUENCY_TABLES[1] == (0, 1, 2, 3)

    def test_two_dimensions_groups_diagonals(self):
        table = SEQUENCY_TABLES[2]
        sums = [divmod(i, 4)[0] + divmod(i, 4)[1] for i in table[:4]]
        assert sums == [0, 1, 1, 2]

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2 ** 30))
    def test_permute_inverts(self, d, seed):
        rng = np.random.default_rng(seed)
        p = CodecParams(d, 24, 30, 8)
        fp = BlockFP(tuple(int(v) for v in rng.integers(-100, 100, size=4 ** d)), 6, 0)
        assert sequency_unpermute(sequency_permute(fp, p), p).ints == fp.ints

    def test_permutation_preserves_norm(self):
        p = CodecParams(2, 24, 30, 8)
        fp = BlockFP(tuple(range(-8, 8)), 3, 0)
        assert sorted(sequency_permute(fp, p).ints) == sorted(fp.ints)


class TestNegabinary:
    def test_worked_example_digit_rows(self):
        fp = BlockFP((143, 120, -35, 19), 12, 4)
        nb = to_negabinary(fp, TOY)
        assert [f"{u:011b}" for u in nb.digits] == [
            "00110010011", "00110001000", "00000101101", "00000010111"]

    def test_zero_encodes_empty(self):
        assert nega_encode(0, 9) == 0

    @pytest.mark.parametrize("q", [4, 9, 30])
    def test_round_trip_range(self, q):
        for v in range(-(1 << min(q, 12)), (1 << min(q, 12)) + 1):
            assert nega_decode(nega_encode(v, q)) == v

    def test_value_preserved_through_block(self):
        p = CodecParams(2, 24, 30, 8)
        rng = np.random.default_rng(0)
        ints = tuple(int(v) for v in rng.integers(-(1 << 30), 1 << 30, size=16))
        fp = BlockFP(ints, 29, 0)
        back = from_negabinary(to_negabinary(fp, p), p)
        assert back.ints == ints

    def test_overflow_rejected(self):
        with pytest.raises(NegabinaryRangeError):
            nega_encode(1 << 40, 9)


class TestBitplaneTruncate:
    def test_worked_example(self):
        nb = NegaBlock((nega_encode(143, 9),), 12)
        out = bitplane_truncate(nb, TOY)
        assert nega_decode(out.digits[0]) == 144

    def test_full_beta_is_identity(self):
        p = CodecParams(1, 13, 9, 11, allow_wide_beta=True)
        nb = NegaBlock(tuple(nega_encode(v, 9) for v in (143, 120, -35, 19)), 12)
        assert bitplane_truncate(nb, p) == nb

    def test_zero_beta_zeroes_everything(self):
        p = CodecParams(1, 13, 9, 0)
        nb = NegaBlock(tuple(nega_encode(v, 9) for v in (143, 120, -35, 19)), 12)
        assert bitplane_truncate(nb, p).digits == (0, 0, 0, 0)

    @settings(max_examples=300)
    @given(st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=2 ** 30),
           st.integers(min_value=0, max_value=32))
    def test_truncation_error_bound(self, d, seed, beta):
        # relative plane-truncation error is at most 8/3 * 2**(1-beta) once
        # the block has a leading bit at q-1 or above
        q = 30
        beta = min(beta, q - 2 * d + 2)
        p = CodecParams(d, 24, q, beta)
        rng = np.random.default_rng(seed)
        ints = [int(v) for v in rng.integers(-(1 << q) + 1, 1 << q, size=4 ** d)]
        ints[0] = (1 << (q - 1)) + int(rng.integers(0, 1 << (q - 1)))  # force e_max >= q-1
        fp = BlockFP(tuple(ints), q - 1, 0)
        nb = to_negabinary(fp, p)
        kept = from_negabinary(bitplane_truncate(nb, p), p)
        err = max(abs(a - b) for a, b in zip(kept.ints, ints))
        nx = max(abs(v) for v in ints)
        # exact comparison: 3 * err * 2**beta <= 16 * nx
        assert 3 * err << beta <= 16 * nx


class TestWorkedExampleEndToEnd:
    def test_all_stages(self):
        t = pipeline_trace([5632.0, 3072.0, 400.0, 68.0], TOY)
        assert t.fp.ints == (352, 192, 25, 4)
        assert t.transformed.ints == (143, 120, -35, 19)
        assert t.permuted.ints == t.transformed.ints  # d=1: identity order
        assert t.unpermuted.ints == (144, 128, -32, 16)
        assert t.recovered.ints == (364, 196, 28, -12)
        assert t.out_values == (5824.0, 3136.0, 448.0, -192.0)

    def test_plane_stream_matches_worked_example(self):
        t = pipeline_trace([5632.0, 3072.0, 400.0, 68.0], TOY)
        rows = bit_planes(t.truncated, TOY)[:TOY.beta]
        stream = " ".join("".join(map(str, row)) for row in rows)
        assert stream == "0000 0000 1100 1100 0000 0010 1001"


class TestParams:
    def test_wide_beta_needs_opt_in(self):
        with pytest.raises(ParamError, match="q - 2d \\+ 2"):
            CodecParams(1, 13, 9, 10)
        CodecParams(1, 13, 9, 10, allow_wide_beta=True)

    def test_beta_cap(self):
        with pytest.raises(ParamError):
            CodecParams(1, 13, 9, 12, allow_wide_beta=True)

    def test_dimension_cap(self):
        with pytest.raises(ParamError):
            CodecParams(4, 53, 62, 8)
