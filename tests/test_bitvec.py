"""Unit and property tests for the exact digit-string model."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfpkit import bitvec
from zfpkit.bitvec import (
    BitString,
    BitVectorBlock,
    Dyadic,
    Negabinary,
    NonDyadicError,
    NonIntegerError,
    SignedBinary,
    ZeroBlockError,
    exponent_range,
    fb_decode,
    fb_encode,
    fn_decode,
    fn_encode,
    norm_inf,
    round_half,
    sb_add,
    sb_sub,
    sb_value,
    shift,
    truncate,
)
from zfpkit.bitvec import _NEGA8, _sb_from_int

ints_16 = st.integers(min_value=-(1 << 16), max_value=1 << 16)
ints_wide = st.integers(min_value=-(1 << 80), max_value=1 << 80)
dyadics = st.builds(Dyadic, st.integers(min_value=-(1 << 60), max_value=1 << 60),
                    st.integers(min_value=-40, max_value=40))
positions = st.lists(st.integers(min_value=-50, max_value=80), max_size=24)


class TestBitString:
    def test_iteration_strictly_increasing(self):
        bs = BitString([5, -3, 12, 0])
        assert bs.positions() == (-3, 0, 5, 12)

    def test_duplicates_collapse(self):
        assert BitString([1, 1, 1]) == BitString([1])

    def test_empty_is_zero(self):
        assert not BitString()
        assert BitString().is_empty
        assert len(BitString()) == 0

    @given(positions)
    def test_membership_matches_positions(self, pos):
        bs = BitString(pos)
        assert bs.positions() == tuple(sorted(set(pos)))
        for p in set(pos):
            assert p in bs
        assert 999 not in bs


class TestDecodeLaws:
    def test_positive_magnitude_example(self):
        # 2**12 + 2**10 + 2**9 = 5632
        v = SignedBinary(0, BitString([12, 10, 9]))
        assert fb_decode(v) == 5632

    def test_zero(self):
        assert fb_decode(SignedBinary(0, BitString())) == 0

    def test_negative(self):
        assert fb_decode(SignedBinary(1, BitString([1, 0]))) == -3

    def test_encode_400(self):
        assert fb_encode(400).magnitude.positions() == (4, 7, 8)

    def test_encode_zero(self):
        sb = fb_encode(0)
        assert sb.sign == 0 and sb.magnitude.is_empty

    def test_encode_fractional(self):
        sb = fb_encode(-0.75)
        assert sb.sign == 1
        assert sb.magnitude.positions() == (-2, -1)

    def test_non_dyadic_rejected(self):
        with pytest.raises(NonDyadicError):
            fb_encode(Fraction(1, 3))

    def test_negative_zero_forbidden(self):
        with pytest.raises(ValueError):
            SignedBinary(1, BitString())

    def test_round_trip_exhaustive_small(self):
        for v in range(-(1 << 16), (1 << 16) + 1):
            assert int(fb_decode(fb_encode(v))) == v

    @given(dyadics)
    def test_round_trip_dyadic(self, d):
        assert fb_decode(fb_encode(d)) == d

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_round_trip_float(self, x):
        assert float(fb_decode(fb_encode(x))) == x


class TestNegabinary:
    def test_decode_example(self):
        # (-2)^8 + (-2)^7 + (-2)^4 + (-2)^1 + (-2)^0 = 143
        assert fn_decode(Negabinary(BitString([8, 7, 4, 1, 0]))) == 143

    def test_decode_zero(self):
        assert fn_decode(Negabinary(BitString())) == 0

    def test_round_trip_exhaustive_small(self):
        for v in range(-(1 << 16), (1 << 16) + 1):
            assert fn_decode(fn_encode(v)) == v

    @given(ints_wide)
    def test_round_trip_wide(self, v):
        assert fn_decode(fn_encode(v)) == v

    def test_negative_positions_rejected(self):
        with pytest.raises(ValueError):
            Negabinary(BitString([-1, 2]))

    @given(st.integers(min_value=-(1 << 40), max_value=1 << 40).filter(bool))
    def test_magnitude_floor(self, v):
        # a nonzero negabinary value is at least a third of its top weight
        nb = fn_encode(v)
        e_max = nb.digits.highest()
        assert 3 * abs(v) >= 1 << e_max


def digit_fn_encode(x: int) -> Negabinary:
    """Negabinary digits by repeated division by -2: the reference for ``fn_encode``.

    Each step divides with remainder normalized into {0, 1}; the remainders
    are the digits from position 0 upward.  The quotient (x - r) / (-2) is
    written (r - x) // 2: r - x is even, so the division is exact.
    """
    mask = 0
    bit = 1
    while x != 0:
        r = x & 1
        if r:
            mask |= bit
        x = (r - x) // 2
        bit <<= 1
    return Negabinary(BitString.from_uint(mask))


def fn_encode_mismatches(values):
    """The values whose ``fn_encode`` digits differ from ``digit_fn_encode``'s."""
    return [v for v in values if fn_encode(v) != digit_fn_encode(v)]


def power_of_two_neighbours(top: int):
    """±2^j and ±2^j ± 1 for every j <= top."""
    return [s * ((1 << j) + e) for j in range(top + 1) for e in (-1, 0, 1) for s in (1, -1)]


class TestFnEncodeEightDigits:
    def test_equals_digit_by_digit_exhaustive_small(self):
        assert fn_encode_mismatches(range(-(1 << 16), (1 << 16) + 1)) == []

    @given(ints_wide)
    def test_equals_digit_by_digit_wide(self, v):
        assert fn_encode(v) == digit_fn_encode(v)

    def test_equals_digit_by_digit_near_powers_of_two(self):
        assert fn_encode_mismatches(power_of_two_neighbours(1030)) == []

    def test_equals_digit_by_digit_at_residue_edges(self):
        assert fn_encode_mismatches([-171, -170, 85, 86]) == []

    def test_table_holds_each_residue_once(self):
        residues = [r for r, _ in _NEGA8]
        assert len(_NEGA8) == 256
        assert sorted(residues) == list(range(-170, 86))
        for index, (r, mask) in enumerate(_NEGA8):
            assert r & 255 == index
            assert 0 <= mask < 256
            assert fn_decode(Negabinary(BitString.from_uint(mask))) == r

    def test_swapped_table_entries_are_caught(self, monkeypatch):
        table = list(_NEGA8)
        table[1], table[2] = table[2], table[1]
        monkeypatch.setattr(bitvec, "_NEGA8", tuple(table))
        assert fn_encode_mismatches(range(-300, 301)) != []


class TestSignedBinaryFromInt:
    @staticmethod
    def checked(v: int) -> SignedBinary:
        mag = abs(v)
        positions = [i for i in range(mag.bit_length()) if mag >> i & 1]
        return SignedBinary(1 if v < 0 else 0, BitString(positions))

    @given(ints_wide)
    def test_equals_checked_constructors(self, v):
        assert _sb_from_int(v) == self.checked(v)

    def test_zero_and_powers_of_two(self):
        for v in [0] + power_of_two_neighbours(1030):
            assert _sb_from_int(v) == self.checked(v), v


class TestTruncateShift:
    def test_truncate_keeps_above_cutoff(self):
        assert truncate(BitString([5, 3, 1]), 2).positions() == (3, 5)

    def test_truncate_empty(self):
        assert truncate(BitString(), 7) == BitString()

    def test_truncate_worked_example_step(self):
        # negabinary 143 truncated above position 3 decodes to 144
        kept = truncate(BitString([8, 7, 4, 1, 0]), 3)
        assert kept.positions() == (4, 7, 8)
        assert fn_decode(Negabinary(kept)) == 144

    @given(positions, st.integers(min_value=-60, max_value=90))
    def test_truncate_idempotent(self, pos, cutoff):
        bs = BitString(pos)
        once = truncate(bs, cutoff)
        assert truncate(once, cutoff) == once
        assert all(p > cutoff for p in once)

    def test_shift_scales_value(self):
        assert shift(BitString([12, 10, 9]), 4).positions() == (5, 6, 8)

    def test_shift_zero_is_identity(self):
        bs = BitString([3, 7])
        assert shift(bs, 0) == bs

    def test_shift_negative(self):
        assert shift(BitString([0]), -3).positions() == (3,)

    @given(positions, st.integers(min_value=-30, max_value=30))
    def test_shift_invertible(self, pos, l):
        bs = BitString(pos)
        assert shift(shift(bs, l), -l) == bs

    @given(st.lists(ints_16, min_size=1, max_size=8).filter(lambda v: any(v)),
           st.integers(min_value=-20, max_value=20))
    def test_shift_scales_norm_exactly(self, vals, l):
        blk = BitVectorBlock([fb_encode(v) for v in vals])
        shifted = BitVectorBlock([
            SignedBinary(e.sign, shift(e.magnitude, l)) if not e.is_zero else e
            for e in blk])
        assert norm_inf(shifted) == norm_inf(blk).scale2(-l)


@settings(max_examples=200)
@given(positions, st.integers(min_value=-40, max_value=60),
       st.integers(min_value=2, max_value=30))
def test_binary_truncation_tail_bound(pos, p, q):
    # dropping positions <= p - q removes at most 2**(1-q) * 2**p in binary
    bs = BitString(pos)
    sb = SignedBinary(0, bs) if bs else SignedBinary(0, bs)
    dropped = fb_decode(sb) - fb_decode(SignedBinary(0, truncate(bs, p - q)))
    assert abs(dropped).as_fraction() <= Fraction(2) ** (1 - q) * Fraction(2) ** p


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=50), max_size=20),
       st.integers(min_value=0, max_value=55), st.integers(min_value=2, max_value=30))
def test_negabinary_truncation_tail_bound(pos, p, q):
    # the alternating tail is worth at most two thirds of the binary tail
    bs = BitString(pos)
    dropped = fn_decode(Negabinary(bs)) - fn_decode(Negabinary(truncate(bs, p - q)))
    assert abs(Fraction(dropped)) <= Fraction(2, 3) * Fraction(2) ** (1 - q) * Fraction(2) ** p


@given(st.lists(ints_16, min_size=1, max_size=8).filter(lambda v: any(v)))
def test_signed_binary_norm_at_least_top_weight(vals):
    blk = BitVectorBlock([fb_encode(v) for v in vals])
    _, e_max = exponent_range(blk)
    assert norm_inf(blk) >= Dyadic(1, e_max)


@given(st.lists(ints_16, min_size=1, max_size=8).filter(lambda v: any(v)))
def test_negabinary_norm_at_least_third_of_top_weight(vals):
    blk = BitVectorBlock([fn_encode(v) for v in vals])
    _, e_max = exponent_range(blk)
    top = Fraction(2) ** e_max
    assert max(Fraction(abs(fn_decode(e))) for e in blk) >= top / 3


class TestRoundHalf:
    def test_worked_example_halving(self):
        assert sb_value(round_half(SignedBinary.from_int(356))) == 178

    def test_zero(self):
        assert sb_value(round_half(SignedBinary.from_int(0))) == 0

    def test_negative_examples(self):
        assert sb_value(round_half(SignedBinary.from_int(-7))) == -4
        assert sb_value(round_half(SignedBinary.from_int(-8))) == -4

    def test_exhaustive_floor_oracle(self):
        for v in range(-(1 << 12), (1 << 12) + 1):
            got = sb_value(round_half(SignedBinary.from_int(v)))
            assert got == v // 2
            assert abs(Fraction(got) - Fraction(v, 2)) <= Fraction(1, 2)

    def test_non_integer_rejected(self):
        with pytest.raises(NonIntegerError):
            round_half(fb_encode(0.5))


class TestBlockQueries:
    def test_norm_inf_examples(self):
        blk = BitVectorBlock([fb_encode(v) for v in (5632, 3072, 400, 68)])
        assert norm_inf(blk) == 5632
        blk2 = BitVectorBlock([fb_encode(v) for v in (143, 120, -35, 19)])
        assert norm_inf(blk2) == 143

    def test_norm_inf_zero_block(self):
        blk = BitVectorBlock([fb_encode(0)] * 4)
        assert norm_inf(blk) == 0

    def test_exponent_range_examples(self):
        blk = BitVectorBlock([fb_encode(v) for v in (5632, 3072, 400, 68)])
        assert exponent_range(blk) == (2, 12)
        ones = BitVectorBlock([fb_encode(1)] * 4)
        assert exponent_range(ones) == (0, 0)
        mixed = BitVectorBlock([fb_encode(0.125), fb_encode(32)])
        assert exponent_range(mixed) == (-3, 5)

    def test_exponent_range_all_zero_signals(self):
        with pytest.raises(ZeroBlockError):
            exponent_range(BitVectorBlock([fb_encode(0)] * 4))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            BitVectorBlock([fb_encode(1), fn_encode(1)])


class TestIntegerArithmetic:
    @given(ints_16, ints_16)
    def test_add_sub(self, a, b):
        sa, sb_ = SignedBinary.from_int(a), SignedBinary.from_int(b)
        assert sb_value(sb_add(sa, sb_)) == a + b
        assert sb_value(sb_sub(sa, sb_)) == a - b


class TestDyadic:
    @given(dyadics, dyadics)
    def test_field_ops_match_fractions(self, a, b):
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
        assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
        assert (a < b) == (a.as_fraction() < b.as_fraction())

    def test_from_float_exact(self):
        d = Dyadic.from_float(0.1)
        assert d.as_fraction() == Fraction(0.1)

    def test_int_conversion_guards(self):
        assert int(Dyadic(5, 2)) == 20
        with pytest.raises(NonIntegerError):
            int(Dyadic(1, -1))
