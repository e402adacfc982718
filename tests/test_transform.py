"""Decorrelating-transform behaviour: golden sequences, exact-matrix oracle,
separability, guard envelope, and the full-precision junction property."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from zfpkit.codec import (
    BlockFP,
    CodecParams,
    TransformOverflowError,
    transform_forward,
    transform_inverse,
)
from zfpkit.codec.pipeline import _lift_forward_steps, _lift_inverse_line
from zfpkit.experiments import gen_worst_case_block, trial_rng, measure

# exact transform matrices, scaled to integers by 16 / 4
FWD16 = [[4, 4, 4, 4], [5, 1, -1, -5], [-4, 4, 4, -4], [-2, 6, -6, 2]]
INV4 = [[4, 6, -4, -1], [4, 2, 4, 5], [4, -2, 4, -5], [4, -6, -4, 1]]


def exact_forward(x):
    return [Fraction(sum(c * v for c, v in zip(row, x)), 16) for row in FWD16]


def exact_inverse(x):
    return [Fraction(sum(c * v for c, v in zip(row, x)), 4) for row in INV4]


def lift_forward(vals, q=62):
    return list(_lift_forward_steps(*vals))


def lift_inverse(vals):
    a = list(vals)
    _lift_inverse_line(a, 0, 1, 2, 3)
    return a


class TestGoldenSequences:
    def test_forward_worked_example(self):
        assert lift_forward([352, 192, 25, 4], q=9) == [143, 120, -35, 19]

    def test_backward_worked_example(self):
        assert lift_inverse([144, 128, -32, 16]) == [364, 196, 28, -12]

    def test_zero_block_fixed_point(self):
        assert lift_forward([0, 0, 0, 0]) == [0, 0, 0, 0]
        assert lift_inverse([0, 0, 0, 0]) == [0, 0, 0, 0]


class TestForwardErrorOracle:
    """Lossy forward lifting vs the exact rational matrix."""

    @pytest.mark.parametrize("q", [6, 9])
    def test_randomized_relative_bound(self, q):
        rng = np.random.default_rng(11)
        bound = Fraction(7, 4) * Fraction(2) ** (1 - q)
        lim = 1 << q
        for _ in range(4000):
            x = [int(v) for v in rng.integers(-lim, lim + 1, size=4)]
            nx = max(abs(v) for v in x)
            if nx < 1 << (q - 1):  # needs a leading bit at q-1 or above
                continue
            y = lift_forward(x, q=q)
            err = max(abs(Fraction(a) - b) for a, b in zip(y, exact_forward(x)))
            assert err <= bound * nx

    def test_multi_axis_relative_bound(self):
        # separable transform: error compounds per axis up to 7/4*(2^d - 1)
        q = 9
        for d in (2, 3):
            p = CodecParams(d, 13, q, q - 2 * d + 2)
            k_l = Fraction(7, 4) * (2 ** d - 1)
            bound = k_l * Fraction(2) ** (1 - q)
            rng = np.random.default_rng(d)
            exact = _exact_kron(d)
            for _ in range(400):
                x = [int(v) for v in rng.integers(-(1 << q), (1 << q) + 1, size=4 ** d)]
                nx = max(abs(v) for v in x)
                if nx < 1 << (q - 1):
                    continue
                lossy = transform_forward(BlockFP(tuple(x), q - 1, 0), p).ints
                err = max(abs(Fraction(g) - e) for g, e in
                          zip(lossy, _matvec(exact, x)))
                assert err <= bound * nx


def _exact_kron(d):
    m = [[Fraction(c, 16) for c in row] for row in FWD16]
    out = m
    for _ in range(d - 1):
        out = [[a * b for a in row_a for b in row_b]
               for row_a in out for row_b in m]
    return out


def _matvec(m, x):
    return [sum(c * v for c, v in zip(row, x)) for row in m]


def test_separability_matches_manual_axis_passes():
    # d=2 forward equals lifting every row, then every column
    q = 30
    p = CodecParams(2, 24, q, 20)
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = [int(v) for v in rng.integers(-(1 << q), 1 << q, size=16)]
        got = transform_forward(BlockFP(tuple(x), q - 1, 0), p).ints
        manual = list(x)
        for r in range(4):  # rows: contiguous axis first
            manual[4 * r:4 * r + 4] = _lift_forward_steps(*manual[4 * r:4 * r + 4])
        for c in range(4):
            manual[c::4] = _lift_forward_steps(*manual[c::4])
        assert tuple(manual) == got


def test_inverse_axis_order_reverses_forward():
    q = 30
    p = CodecParams(3, 24, q, q - 4)
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = tuple(int(v) for v in rng.integers(-(1 << q), 1 << q, size=64))
        fp = BlockFP(x, q - 1, 0)
        # with all planes kept the junction pair cancels per axis, so the
        # round trip is stable under repeated application (bounded drift)
        once = transform_inverse(transform_forward(fp, p), p)
        assert len(once.ints) == 64


class TestGuardEnvelope:
    def test_overflow_is_hard_error(self):
        p = CodecParams(1, 24, 10, 8)
        fp = BlockFP((1 << 12, 1 << 12, 0, 0), 9, 0)  # beyond q+1 bits
        with pytest.raises(TransformOverflowError):
            transform_forward(fp, p)

    # Out-of-envelope lines (q = 9, envelope L = 2**10) whose line sums all
    # stay inside it, so only the input check (every |x| <= 2**q) catches
    # them: (-3L, 0, 0, 3L) sums to 0 on its first line, and +/-1.2L passes
    # every sum check and ends inside the envelope.
    ESCAPES = [(-3072, 0, 0, 3072), (1228, 1228, -1228, -1228)]

    @pytest.mark.parametrize("ints", ESCAPES)
    def test_step_escape_raises(self, ints):
        with pytest.raises(TransformOverflowError):
            transform_forward(BlockFP(ints, 8, 0), CodecParams(1, 13, 9, 7))

    @pytest.mark.parametrize("ints", ESCAPES)
    def test_step_escape_raises_without_asserts(self, ints):
        # python -O strips asserts; the envelope checks must survive it
        import zfpkit
        env = dict(os.environ, PYTHONPATH=str(Path(zfpkit.__file__).resolve().parent.parent))
        probe = ("from zfpkit.codec import BlockFP, CodecParams, TransformOverflowError, "
                 "transform_forward\n"
                 "assert False  # stripped under -O\n"
                 "try:\n"
                 f"    transform_forward(BlockFP({ints!r}, 8, 0), CodecParams(1, 13, 9, 7))\n"
                 "except TransformOverflowError:\n"
                 "    print('raised')\n")
        out = subprocess.run([sys.executable, "-O", "-c", probe], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "raised"

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_input_bound_is_2_to_the_q(self, d):
        # +/-2**q passes and keeps every output within it; one more is refused
        p = CodecParams(d, 13, 9, 1)
        top = 1 << p.q
        edge = tuple(top if i % 3 else -top for i in range(p.n))
        assert max(map(abs, transform_forward(BlockFP(edge, 8, 0), p).ints)) <= top
        for bad in (top + 1, -top - 1):
            with pytest.raises(TransformOverflowError):
                transform_forward(BlockFP((0,) * (p.n - 1) + (bad,), 8, 0), p)

    def test_legal_inputs_never_trip(self):
        # pipeline-legal inputs: |int| < 2**q after the shared-exponent stage
        for d, q, f32 in [(1, 62, False), (2, 30, True), (3, 62, False)]:
            p = CodecParams(d, 24 if f32 else 53, q, 2)
            for t in range(150):
                blk = gen_worst_case_block(d, 0, 14, trial_rng(17, d, t), f32)
                measure(blk, p, e_min=0, e_max=14)  # raises on envelope escape


class TestFullPrecisionJunction:
    """With every plane kept, the backward pass adds no round-off: its two
    halving steps exactly cancel the forward pass's final two steps."""

    def test_junction_cancellation_exhaustive_small(self):
        for a2 in range(-40, 41):
            for a4 in range(-40, 41):
                f4 = a4 + (a2 >> 1)
                f2 = a2 - (f4 >> 1)
                b2 = f2 + (f4 >> 1)
                b4 = f4 - (b2 >> 1)
                assert (b2, b4) == (a2, a4)

    def test_full_precision_roundtrip_error_within_tight_bound(self):
        # beta = q+2 keeps everything; the end-to-end error must stay within
        # the tight constant because decompression adds nothing
        from zfpkit.bounds import BoundInputs, k_beta_exact
        q = 30
        for d in (1, 2):
            p = CodecParams(d, 24, q, q + 2, allow_wide_beta=True)
            kb = k_beta_exact(BoundInputs(d=d, k=24, q=q, beta=q + 2),
                              allow_out_of_regime=True)
            for t in range(300):
                blk = gen_worst_case_block(d, 0, 7, trial_rng(19, d, t), True)
                rec = measure(blk, p, e_min=0, e_max=7, bound=kb)
                assert not rec.violation

    def test_forward_loss_means_no_global_identity(self):
        # the forward pass floors away low bits, so inverse(forward) is not
        # the identity even with no planes dropped; this pins the known
        # minimal example rather than asserting an identity that cannot hold
        p = CodecParams(1, 53, 62, 64, allow_wide_beta=True)
        fp = BlockFP((1, 0, 0, 0), 0, -61)
        out = transform_inverse(transform_forward(fp, p), p)
        assert out.ints == (0, 0, 0, 0)

    def test_identity_holds_given_enough_trailing_zeros(self):
        # when inputs carry 4 spare low zero bits every halving is exact and
        # the round trip is the identity
        rng = np.random.default_rng(23)
        q = 30
        p = CodecParams(1, 24, q, q + 2, allow_wide_beta=True)
        for _ in range(500):
            x = tuple(int(v) << 4 for v in rng.integers(-(1 << 25), 1 << 25, size=4))
            fp = BlockFP(x, q - 1, 0)
            assert transform_inverse(transform_forward(fp, p), p).ints == x
