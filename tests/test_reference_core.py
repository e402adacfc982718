"""The oracle's int core against the digit-string primitives it stands for.

``codec/reference.py`` carries plain ints through the integer-valued stages
and builds bit vectors only for its trace.  These tests hold each int
operation to the :mod:`zfpkit.bitvec` primitive it replaces (exhaustively for
small values, by hypothesis up to 2**66, past q = 62 plus the guard bits),
hold the int lifting to a line built from ``round_half``/``sb_add``/``sb_sub``,
and pin the public ``*_ref`` stage functions to digests of their outputs.
"""

import hashlib
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from zfpkit.bitvec import (
    Dyadic,
    SignedBinary,
    round_half,
    sb_add,
    sb_sub,
    sb_value,
    shift,
)
from zfpkit.codec import CodecParams
from zfpkit.codec import reference as ref
from zfpkit.experiments import gen_worst_case_block, trial_rng

SB = SignedBinary.from_int
WIDE = st.integers(-(1 << 66), 1 << 66)


def bv_half(v):
    return sb_value(round_half(SB(v)))


def bv_double(v):
    sb = SB(v)
    return sb_value(SignedBinary(sb.sign, shift(sb.magnitude, -1)))


def bv_significand(v, k):
    return sb_value(ref.significand_truncate_ref(SB(v), k))


def bv_lift_forward(x):
    """One forward lifting line on bit vectors, step for step."""
    a = [SB(v) for v in x]
    a[0] = round_half(sb_add(a[0], a[3]))
    a[3] = sb_sub(a[3], a[0])
    a[2] = round_half(sb_add(a[2], a[1]))
    a[1] = sb_sub(a[1], a[2])
    a[0] = round_half(sb_add(a[0], a[2]))
    a[2] = sb_sub(a[2], a[0])
    a[3] = round_half(sb_add(a[3], a[1]))
    a[1] = sb_sub(a[1], a[3])
    a[3] = sb_add(a[3], round_half(a[1]))
    a[1] = sb_sub(a[1], round_half(a[3]))
    return [sb_value(v) for v in a]


def bv_lift_inverse(x):
    """One inverse lifting line on bit vectors, step for step."""
    a = [SB(v) for v in x]

    def dbl(v):
        return SB(bv_double(sb_value(v)))

    a[1] = sb_add(a[1], round_half(a[3]))
    a[3] = sb_sub(a[3], round_half(a[1]))
    a[1] = sb_add(a[1], a[3])
    a[3] = sb_sub(dbl(a[3]), a[1])
    a[2] = sb_add(a[2], a[0])
    a[0] = sb_sub(dbl(a[0]), a[2])
    a[1] = sb_add(a[1], a[2])
    a[2] = sb_sub(dbl(a[2]), a[1])
    a[3] = sb_add(a[3], a[0])
    a[0] = sb_sub(dbl(a[0]), a[3])
    return [sb_value(v) for v in a]


def int_lift(x, core):
    a = list(x)
    core(a, 1)
    return a


class TestExhaustiveSmall:
    def test_floor_half_and_double(self):
        for v in range(-(1 << 12), (1 << 12) + 1):
            assert ref._floor_half(v) == bv_half(v)
            assert ref._double(v) == bv_double(v)

    def test_add_and_sub(self):
        small = range(-(1 << 6), (1 << 6) + 1)
        for a in small:
            for b in small:
                assert a + b == sb_value(sb_add(SB(a), SB(b)))
                assert a - b == sb_value(sb_sub(SB(a), SB(b)))
        for v in range(-(1 << 12), (1 << 12) + 1):
            for w in (0, 1, -1, v, -v, v + 1, (1 << 12) - v):
                assert v + w == sb_value(sb_add(SB(v), SB(w)))
                assert v - w == sb_value(sb_sub(SB(v), SB(w)))

    def test_significand_truncate(self):
        for v in range(-(1 << 12), (1 << 12) + 1):
            for k in (1, 2, 5, 13):
                assert ref._significand_truncate(v, k) == bv_significand(v, k)


@settings(max_examples=400, deadline=None)
@given(v=WIDE, w=WIDE, k=st.integers(1, 70))
def test_int_ops_match_bit_vectors_wide(v, w, k):
    assert ref._floor_half(v) == bv_half(v)
    assert ref._double(v) == bv_double(v)
    assert v + w == sb_value(sb_add(SB(v), SB(w)))
    assert v - w == sb_value(sb_sub(SB(v), SB(w)))
    assert ref._significand_truncate(v, k) == bv_significand(v, k)


@settings(max_examples=300, deadline=None)
@given(x=st.lists(WIDE, min_size=4, max_size=4))
def test_int_lifting_matches_bit_vector_lifting(x):
    assert int_lift(x, ref._forward_lifting) == bv_lift_forward(x)
    assert int_lift(x, ref._inverse_lifting) == bv_lift_inverse(x)


# ---------------------------------------------------------------------------
# public stage functions, pinned

# SHA-256 of the repr of every public stage output below, recorded with the
# earlier implementation that composed each stage from bit-vector objects.
WRAPPER_DIGEST = "8f7709d554587502440284c8a3edb22f6886d9b707ae3223f44da2c0a6fa22d3"


def wrapper_cases():
    for d in (1, 2, 3):
        for i, (k, q) in enumerate([(13, 9), (24, 30), (53, 62)]):
            for beta in (0, 5, q // 2, q + 2):
                rng = trial_rng(611, d, 4 * i + beta % 4)
                p = CodecParams(d, k, q, beta, allow_wide_beta=True)
                blk = gen_worst_case_block(d, 0, 7 * (beta % 3), rng, float32=(k == 24))
                blk[beta % len(blk)] = 0.0
                yield blk, p


def test_public_stage_functions_are_pinned_and_chain_to_roundtrip():
    h = hashlib.sha256()
    for blk, p in wrapper_cases():
        fp, e_max, ell = ref.block_fp_forward_ref(blk, p)
        tr = ref.transform_forward_ref(fp, p)
        pe = ref.sequency_permute_ref(tr, p)
        nb = ref.to_negabinary_ref(pe)
        tu = ref.bitplane_truncate_ref(nb, p)
        back = ref.from_negabinary_ref(tu)
        un = ref.sequency_unpermute_ref(back, p)
        rec = ref.transform_inverse_ref(un, p)
        kept = tuple(ref.significand_truncate_ref(v, p.k) for v in rec)
        whole = ref.roundtrip_ref(blk, p)
        assert (whole.fp, whole.transformed, whole.permuted, whole.nega, whole.truncated,
                whole.unpermuted, whole.recovered) == (fp, tr, pe, nb, tu, un, rec)
        h.update(repr((fp, e_max, ell, tr, pe, nb, tu, back, un, rec, kept, whole)).encode())
    assert h.hexdigest() == WRAPPER_DIGEST


def test_block_fp_takes_exact_non_float_values():
    # ints, dyadic Fractions and Dyadics scale exactly like the equal floats
    p = CodecParams(1, 13, 9, 7)
    floats = ref.block_fp_forward_ref([3.0, 0.25, 0.0, -5.5], p)
    assert ref.block_fp_forward_ref([3, Fraction(1, 4), 0, Dyadic(-11, -1)], p) == floats
