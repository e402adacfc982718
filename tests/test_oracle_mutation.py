"""The bit-vector oracle must reject deliberately wrong fast paths.

Each test monkeypatches one stage of :mod:`zfpkit.codec.pipeline` with a
plausible bug and runs the stage-by-stage comparison of the acceptance
check (``pipeline_trace`` against ``roundtrip_ref``) over blocks drawn the
way that check draws them.  The oracle must disagree within a few hundred
blocks, first at the stage the bug lives in.  The mutants patch the fast
path only; in particular the sequency mutant replaces the permutation
function, not ``SEQUENCY_TABLES``, which the oracle shares.

The batched stages of :mod:`zfpkit.codec.batch` meet the same oracle: a06's
blocks, grouped by parameters, go through ``block_exponents``, ``forward``
and ``decode_blocks``, whose digits and values must equal the oracle's
truncated digits and output values, and each mutant of the batch stages
(lifting, plane cut, permutation, wrap flag) must not.
"""

import numpy as np
import pytest

from zfpkit.bitvec import sb_value
from zfpkit.codec import CodecParams, batch, pipeline, pipeline_trace, roundtrip_ref
from zfpkit.codec.pipeline import BlockFP, NegaBlock
from zfpkit.experiments import gen_worst_case_block, trial_rng

BLOCKS = 300


def a06_blocks(count):
    """Blocks and parameters drawn as the acceptance check draws them, d = 1, 2, 3 in turn."""
    rhos = (0, 7, 14)
    for i in range(count):
        d = 1 + i % 3
        t = i // 3
        pairings = [(13, 9), (24, 30), (53, 62)] if d == 1 else [(24, 30), (53, 62)]
        k, q = pairings[t % len(pairings)]
        rng = trial_rng(606, d, t)
        beta = int(rng.integers(0, q + 3))
        p = CodecParams(d, k, q, beta, allow_wide_beta=True)
        if t % 17 == 0:
            blk = [float(v) for v in rng.uniform(-100.0, 100.0, size=4 ** d)]
            blk[0] = 0.0
        else:
            blk = gen_worst_case_block(d, 0, rhos[t % 3], rng, float32=(k == 24))
        yield blk, p


def digit_q1_blocks():
    """Constant blocks whose one nonzero coefficient needs negabinary digit q+1, d = 1, 2, 3.

    The value -(1 - 2**-k) for even q, or 1 - 2**-k for odd q, scales to an
    integer near -2**q or 2**q, and digit q+1 (weight -2**(q+1) for even q,
    2**(q+1) for odd q) is the only digit that reaches it.  a06's draws
    almost never do.
    """
    for d in (1, 2, 3):
        for k, q in ((13, 9), (24, 30), (53, 62)):
            value = 1.0 - 2.0 ** -k
            for beta in (1, q - 2 * d + 2, q + 2):
                yield [value if q % 2 else -value] * 4 ** d, CodecParams(
                    d, k, q, beta, allow_wide_beta=True)


def first_mismatch(values, p):
    """Name of the first stage where the fast trace and the oracle differ, or None."""
    fast = pipeline_trace(values, p)
    ref = roundtrip_ref(values, p)
    if fast.fp.is_zero or ref.is_zero:
        return None if fast.fp.is_zero and ref.is_zero else "zero"
    if (ref.e_max, ref.ell) != (fast.fp.e_max, fast.fp.ell):
        return "exponent"
    for name, got, want in (
        ("fp", tuple(sb_value(e) for e in ref.fp), fast.fp.ints),
        ("transformed", tuple(sb_value(e) for e in ref.transformed), fast.transformed.ints),
        ("permuted", tuple(sb_value(e) for e in ref.permuted), fast.permuted.ints),
        ("nega", tuple(e.digits.uint_at(0) for e in ref.nega), fast.nega.digits),
        ("truncated", tuple(e.digits.uint_at(0) for e in ref.truncated), fast.truncated.digits),
        ("unpermuted", tuple(sb_value(e) for e in ref.unpermuted), fast.unpermuted.ints),
        ("recovered", tuple(sb_value(e) for e in ref.recovered), fast.recovered.ints),
        ("out_values", tuple(float(v) for v in ref.out_values), fast.out_values),
    ):
        if got != want:
            return name
    return None


def blocks_until_caught(count=BLOCKS):
    """(blocks run, first mismatching stage) for the first disagreeing block."""
    for i, (blk, p) in enumerate(a06_blocks(count)):
        stage = first_mismatch(blk, p)
        if stage is not None:
            return i + 1, stage
    return None


# ---------------------------------------------------------------------------
# mutants


def _half_toward_zero(x):
    return -((-x) >> 1) if x < 0 else x >> 1


def lift_forward_halving_toward_zero(x0, x1, x2, x3):
    x0 = _half_toward_zero(x0 + x3)
    x3 -= x0
    x2 = _half_toward_zero(x2 + x1)
    x1 -= x2
    x0 = _half_toward_zero(x0 + x2)
    x2 -= x0
    x3 = _half_toward_zero(x3 + x1)
    x1 -= x3
    x3 += _half_toward_zero(x1)
    x1 -= _half_toward_zero(x3)
    return x0, x1, x2, x3


def bitplane_truncate_one_plane_short(nb, p):
    cut = p.q + 3 - p.beta
    if cut <= 0 or nb.is_zero:
        return nb
    keep = ~((1 << cut) - 1)
    return NegaBlock(tuple(u & keep for u in nb.digits), nb.e_max)


def sequency_permute_two_swapped(fp, p):
    table = list(pipeline.SEQUENCY_TABLES[p.d])
    table[1], table[2] = table[2], table[1]
    return BlockFP(tuple(fp.ints[src] for src in table), fp.e_max, fp.ell)


_nega_encode = pipeline.nega_encode


def nega_encode_without_top_digit(v, q):
    u = _nega_encode(v, q)
    return u ^ (1 << (u.bit_length() - 1)) if u else u


def nega_encode_without_digit_q1(v, q):
    return _nega_encode(v, q) & ((1 << (q + 1)) - 1)


MUTANTS = [
    ("_lift_forward_steps", lift_forward_halving_toward_zero, "transformed"),
    ("bitplane_truncate", bitplane_truncate_one_plane_short, "truncated"),
    ("sequency_permute", sequency_permute_two_swapped, "permuted"),
    ("nega_encode", nega_encode_without_top_digit, "nega"),
]


def test_unmutated_fast_path_agrees_on_the_same_blocks():
    assert blocks_until_caught() is None


@pytest.mark.parametrize("name,mutant,stage", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_oracle_catches_mutant(monkeypatch, name, mutant, stage):
    monkeypatch.setattr(pipeline, name, mutant)
    caught = blocks_until_caught()
    assert caught is not None, f"{name} mutant survived {BLOCKS} blocks"
    assert caught[1] == stage, caught


def test_digit_q1_blocks_reach_it_and_agree():
    for blk, p in digit_q1_blocks():
        assert any(u >> (p.q + 1) for u in pipeline_trace(blk, p).nega.digits), (blk[0], p)
        assert first_mismatch(blk, p) is None


def test_oracle_catches_negabinary_without_digit_q1(monkeypatch):
    # this mutant survives a06-shaped blocks; the digit q+1 blocks catch it
    monkeypatch.setattr(pipeline, "nega_encode", nega_encode_without_digit_q1)
    for blk, p in digit_q1_blocks():
        assert first_mismatch(blk, p) == "nega", p


# ---------------------------------------------------------------------------
# the batched stages, which compress and decompress run for q <= 62

BATCH_BLOCKS = 600  # 200 per d


@pytest.fixture(scope="module")
def oracle_groups():
    """a06's blocks grouped by parameters, each block with its oracle round trip."""
    groups = {}
    for blk, p in a06_blocks(BATCH_BLOCKS):
        groups.setdefault(p, []).append((blk, roundtrip_ref(blk, p)))
    return groups


def batch_mismatches(groups):
    """Parameters of the groups whose batch exponents, digits or values differ from the oracle's."""
    bad = []
    for p, entries in groups.items():
        blocks = np.array([blk for blk, _ in entries])
        live, e_max = batch.block_exponents(blocks)
        digits = batch.forward(blocks, live, e_max, p)
        values = batch.decode_blocks(e_max, digits, p)
        refs = [ref for _, ref in entries if not ref.is_zero]
        if (live.tolist() != [not ref.is_zero for _, ref in entries]
                or e_max.tolist() != [ref.e_max for ref in refs]
                or digits.tolist() != [[e.digits.uint_at(0) for e in ref.truncated]
                                       for ref in refs]
                or values.tolist() != [[float(v) for v in ref.out_values] for ref in refs]):
            bad.append(p)
    return bad


def _halve_toward_zero(x):
    return np.where(x < 0, -((-x) >> 1), x >> 1)


def batch_lift_forward_halving_toward_zero(ints, p):
    blk = ints.reshape((-1,) + (4,) * p.d)
    for axis in reversed(range(p.d)):
        x0, x1, x2, x3 = batch._lines(blk, axis)
        x0[...] = _halve_toward_zero(x0 + x3)
        x3 -= x0
        x2[...] = _halve_toward_zero(x2 + x1)
        x1 -= x2
        x0[...] = _halve_toward_zero(x0 + x2)
        x2 -= x0
        x3[...] = _halve_toward_zero(x3 + x1)
        x1 -= x3
        x3 += _halve_toward_zero(x1)
        x1 -= _halve_toward_zero(x3)


def test_batch_agrees_with_the_oracle(oracle_groups):
    assert sum(map(len, oracle_groups.values())) == BATCH_BLOCKS
    assert batch_mismatches(oracle_groups) == []


def test_oracle_catches_batch_lifting_halving_toward_zero(monkeypatch, oracle_groups):
    monkeypatch.setattr(batch, "_lift_forward", batch_lift_forward_halving_toward_zero)
    assert batch_mismatches(oracle_groups)


_batch_forward = batch.forward


def batch_forward_one_plane_short(blocks, live, e_max, p):
    digits = _batch_forward(blocks, live, e_max, p)
    cut = p.q + 3 - p.beta
    if 0 < cut <= 64:
        digits &= np.uint64(((1 << 64) - 1) ^ ((1 << cut) - 1))
    return digits


_batch_perm = batch._perm


def batch_perm_two_swapped(d, inverse):
    table = _batch_perm(d, inverse).copy()
    if not inverse:
        table[[1, 2]] = table[[2, 1]]
    return table


_batch_lift_inverse = batch._lift_inverse


def batch_lift_inverse_never_wrapping(v, p):
    return np.zeros_like(_batch_lift_inverse(v, p))


@pytest.fixture(scope="module")
def wrapping_groups():
    """uniform(-1, 1) blocks at q = 62 and small beta, whose inverse lifting often leaves int64.

    a06's blocks wrap too rarely (1 in 600) to judge the wrap flag alone.
    """
    groups = {}
    for d, beta in ((1, 2), (2, 4), (3, 5)):
        p = CodecParams(d, 53, 62, beta)
        blocks = np.random.default_rng(1214 + d).uniform(-1.0, 1.0, (8, 4 ** d)).tolist()
        groups[p] = [(blk, roundtrip_ref(blk, p)) for blk in blocks]
    return groups


def test_batch_agrees_with_the_oracle_on_wrapping_blocks(monkeypatch, wrapping_groups):
    wraps = []

    def counting(v, p):
        wrapped = _batch_lift_inverse(v, p)
        wraps.append(int(wrapped.sum()))
        return wrapped

    monkeypatch.setattr(batch, "_lift_inverse", counting)
    assert batch_mismatches(wrapping_groups) == []
    assert all(wraps), wraps


@pytest.mark.parametrize("name,mutant", [
    ("forward", batch_forward_one_plane_short),
    ("_perm", batch_perm_two_swapped),
], ids=["forward", "_perm"])
def test_oracle_catches_batch_mutant(monkeypatch, oracle_groups, name, mutant):
    monkeypatch.setattr(batch, name, mutant)
    assert batch_mismatches(oracle_groups)


def test_oracle_catches_batch_wrap_flag_dropped(monkeypatch, wrapping_groups):
    monkeypatch.setattr(batch, "_lift_inverse", batch_lift_inverse_never_wrapping)
    assert batch_mismatches(wrapping_groups)
