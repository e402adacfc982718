"""Acceptance suite: every exit criterion at its stated scale.

Each test prints one ``[acceptance] PASS/FAIL <criterion>`` line (bypassing
capture) so a full run yields a one-line verdict per criterion.  Scales are
fixed here, not tunable: fuzz counts, exhaustive ranges, and tolerances are
part of the contract.
"""

import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from zfpkit.bitvec import SignedBinary, fn_decode, fn_encode, round_half, sb_value
from zfpkit.bounds import (
    BoundInputs,
    b_beta_exact,
    k_beta_exact,
    kbeta_surface,
    beta_for_accuracy,
    rate_lower_bound,
)
from zfpkit.codec import (
    CodecParams,
    NegaBlock,
    batch,
    bit_planes,
    bitplane_truncate,
    compress,
    decode_planes,
    decompress,
    encode_planes,
    nega_decode,
    nega_encode,
    pipeline_trace,
    read_header,
    roundtrip_ref,
)
from zfpkit.experiments import (
    WorstCaseSpec,
    applicable_bound_exact,
    gen_worst_case_block,
    measure,
    sweep,
    trial_rng,
)


@contextmanager
def criterion(name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        sys.__stdout__.write(f"[acceptance] FAIL {name}\n")
        sys.__stdout__.flush()
        raise
    dt = time.perf_counter() - t0
    sys.__stdout__.write(f"[acceptance] PASS {name} ({dt:.1f}s)\n")
    sys.__stdout__.flush()


# ---------------------------------------------------------------------------


def test_a01_worked_example_golden_path():
    with criterion("worked 1-d example, bit-exact stages and error bound"):
        t0 = time.perf_counter()
        p = CodecParams(d=1, k=13, q=9, beta=7)
        x = [5632.0, 3072.0, 400.0, 68.0]
        t = pipeline_trace(x, p)
        assert t.fp.ints == (352, 192, 25, 4)
        assert (t.fp.e_max, t.fp.ell) == (12, 4)
        assert t.transformed.ints == (143, 120, -35, 19)
        assert [f"{u:011b}" for u in t.nega.digits] == [
            "00110010011", "00110001000", "00000101101", "00000010111"]
        assert [f"{u:011b}" for u in t.truncated.digits] == [
            "00110010000", "00110000000", "00000100000", "00000010000"]
        assert t.unpermuted.ints == (144, 128, -32, 16)
        assert t.recovered.ints == (364, 196, 28, -12)
        assert t.out_values == (5824.0, 3136.0, 448.0, -192.0)
        planes = bit_planes(t.truncated, p)[:p.beta]
        assert " ".join("".join(map(str, r)) for r in planes) == \
            "0000 0000 1100 1100 0000 0010 1001"
        err = max(abs(Fraction(o) - Fraction(v)) for o, v in zip(t.out_values, x))
        assert err == 260
        kb = k_beta_exact(BoundInputs(d=1, k=13, q=9, beta=7))
        assert abs(float(kb) - 0.19928) < 5e-6
        assert err <= kb * 5632
        assert time.perf_counter() - t0 < 1.0


FUZZ_MATRIX = [
    # (d, k, q, float32, beta grid)
    (1, 53, 62, False, (2, 8, 16, 24, 32, 40, 48, 56, 62)),
    (2, 24, 30, True, (2, 6, 10, 14, 18, 22, 26, 28)),
    (2, 53, 62, False, (4, 12, 20, 28, 36, 44, 52, 60)),
    (3, 53, 62, False, (6, 14, 22, 30, 38, 46, 54, 58)),
]


def test_a02_round_trip_bound_fuzz():
    name = "round-trip error within K_beta, componentwise within K_beta*2^rho"
    with criterion(name):
        for d, k, q, f32, betas in FUZZ_MATRIX:
            spec = WorstCaseSpec(d=d, k=k, q=q, betas=betas, rhos=(0, 7, 14),
                                 trials=10_000, seed=20260808, float32=f32)
            cells, violators = sweep(spec)
            assert violators == [], violators[:3]
            assert all(c.violations == 0 for c in cells)
            for c in cells:
                assert c.err_block_max <= c.k_beta
                assert c.err_comp_max <= c.comp_bound * (1 + 1e-12)


def test_a03_forward_transform_exhaustive_at_low_precision():
    with criterion("forward transform error vs exact matrix, exhaustive q=6"):
        t0 = time.perf_counter()
        base = np.arange(-64, 65, dtype=np.int32)
        x1, x2, x3 = (g.ravel() for g in np.meshgrid(base, base, base, indexing="ij"))
        # exact rows of 16*L that do not involve x0
        e0p = 4 * (x1 + x2 + x3)
        e1p = x1 - x2 - 5 * x3
        e2p = 4 * (x1 + x2 - x3)
        e3p = 6 * x1 - 6 * x2 + 2 * x3
        n123 = np.maximum(np.maximum(np.abs(x1), np.abs(x2)), np.abs(x3))
        checked = 0
        for a0 in range(-64, 65):
            y0 = x3 + a0          # copies via ufunc output
            y1 = x1.copy()
            y2 = x2.copy()
            y3 = x3.copy()
            y0 >>= 1
            y3 = y3 - y0
            y2 = y2 + y1
            y2 >>= 1
            y1 = y1 - y2
            y0 = y0 + y2
            y0 >>= 1
            y2 = y2 - y0
            y3 = y3 + y1
            y3 >>= 1
            y1 = y1 - y3
            y3 = y3 + (y1 >> 1)
            y1 = y1 - (y3 >> 1)
            d0 = np.abs(e0p + 4 * a0 - (y0 << 4))
            d1 = np.abs(e1p + 5 * a0 - (y1 << 4))
            d2 = np.abs(e2p - 4 * a0 - (y2 << 4))
            d3 = np.abs(e3p - 2 * a0 - (y3 << 4))
            dmax = np.maximum(np.maximum(d0, d1), np.maximum(d2, d3))
            nx = np.maximum(n123, abs(a0))
            eligible = nx >= 32  # leading one bit at position 5 or above
            # |Lx - Ltx| <= (7/4) * 2^-5 * ||x||  <=>  8 * (16*err) <= 7 * 16 * ...
            # with dmax = 16*err: dmax <= (7/8)||x||  <=>  8*dmax <= 7*nx
            assert not np.any((8 * dmax > 7 * nx) & eligible)
            checked += int(eligible.sum())
        assert checked == 129 ** 4 - 63 ** 4
        assert time.perf_counter() - t0 < 60.0


def test_a04_floor_halving_exhaustive():
    with criterion("floor halving matches integer floor division, exhaustive"):
        for v in range(-(1 << 12), (1 << 12) + 1):
            got = sb_value(round_half(SignedBinary.from_int(v)))
            assert got == v // 2
            assert abs(Fraction(got) - Fraction(v, 2)) <= Fraction(1, 2)
            assert got == v >> 1  # two's-complement shift agrees


def test_a05_plane_truncation_bound_fuzz():
    with criterion("plane-truncation error within (8/3)*2^(1-beta), 1e5 blocks"):
        rng = np.random.default_rng(505)
        configs = [(1, 9), (1, 30), (2, 9), (2, 30), (1, 6)]
        per = 100_000 // len(configs)
        for d, q in configs:
            n = 4 ** d
            lim = 1 << q
            for _ in range(per):
                ints = rng.integers(-lim + 1, lim, size=n)
                # force eligibility: leading one bit at q-1 or above
                j = int(rng.integers(0, n))
                sign = -1 if rng.integers(0, 2) else 1
                ints[j] = sign * ((1 << (q - 1)) + int(rng.integers(0, 1 << (q - 1))))
                beta = int(rng.integers(0, q + 3))
                cut = q + 2 - beta
                keep = ~((1 << cut) - 1) if cut > 0 else -1
                err_max = 0
                a_max = 0
                for v in ints:
                    v = int(v)
                    u = nega_encode(v, q)
                    back = nega_decode(u & keep)
                    err = abs(back - v)
                    if err > err_max:
                        err_max = err
                    if abs(v) > a_max:
                        a_max = abs(v)
                # exact: err <= (8/3) * 2^(1-beta) * a_max
                assert 3 * err_max << beta <= 16 * a_max


def _equiv_chunk(args):
    """Worker: verify fast path == reference path on a block range.

    The block-by-block trace is compared stage by stage; then the blocks of
    each parameter set go through the batch stages together, whose
    exponents, truncated digits and decoded values must equal the oracle's.
    """
    d, start, count = args
    pairings = [(13, 9), (24, 30), (53, 62)] if d == 1 else [(24, 30), (53, 62)]
    rhos = (0, 7, 14)
    groups = {}
    for t in range(start, start + count):
        k, q = pairings[t % len(pairings)]
        rho = rhos[t % 3]
        rng = trial_rng(606, d, t)
        beta = int(rng.integers(0, q + 3))
        p = CodecParams(d, k, q, beta, allow_wide_beta=True)
        if t % 17 == 0:
            blk = [float(v) for v in rng.uniform(-100.0, 100.0, size=4 ** d)]
            blk[0] = 0.0
        else:
            blk = gen_worst_case_block(d, 0, rho, rng, float32=(k == 24))
        fast = pipeline_trace(blk, p)
        ref = roundtrip_ref(blk, p)
        groups.setdefault(p, []).append((blk, None if ref.is_zero else (
            ref.e_max, [e.digits.uint_at(0) for e in ref.truncated],
            [float(v) for v in ref.out_values])))
        if fast.fp.is_zero:
            assert ref.is_zero
            continue
        assert (ref.e_max, ref.ell) == (fast.fp.e_max, fast.fp.ell)
        for got, want in (
            (tuple(sb_value(e) for e in ref.fp), fast.fp.ints),
            (tuple(sb_value(e) for e in ref.transformed), fast.transformed.ints),
            (tuple(sb_value(e) for e in ref.permuted), fast.permuted.ints),
            (tuple(e.digits.uint_at(0) for e in ref.nega), fast.nega.digits),
            (tuple(e.digits.uint_at(0) for e in ref.truncated), fast.truncated.digits),
            (tuple(sb_value(e) for e in ref.unpermuted), fast.unpermuted.ints),
            (tuple(sb_value(e) for e in ref.recovered), fast.recovered.ints),
            (tuple(float(v) for v in ref.out_values), fast.out_values),
        ):
            assert got == want, (d, k, q, beta, t)
    for p, entries in groups.items():
        blocks = np.array([blk for blk, _ in entries])
        live, e_max = batch.block_exponents(blocks)
        digits = batch.forward(blocks, live, e_max, p)
        values = batch.decode_blocks(e_max, digits, p)
        refs = [ref for _, ref in entries if ref is not None]
        assert live.tolist() == [ref is not None for _, ref in entries], p
        assert e_max.tolist() == [ref[0] for ref in refs], p
        assert digits.tolist() == [ref[1] for ref in refs], p
        assert values.tolist() == [ref[2] for ref in refs], p
    return count


def test_a06_fast_path_equals_reference_path():
    with criterion("integer path == bit-vector reference path, 1e5 blocks per d"):
        total = 100_000
        chunk = 2_500
        jobs = [(d, s, chunk) for d in (1, 2, 3) for s in range(0, total, chunk)]
        with ProcessPoolExecutor(max_workers=2) as pool:
            done = sum(pool.map(_equiv_chunk, jobs, chunksize=1))
        assert done == 3 * total


def test_a07_losslessness():
    with criterion("plane coder identity, negabinary round trip, container dims"):
        # coder identity on 1e5 random truncated blocks
        rng = np.random.default_rng(707)
        configs = [(1, 9), (1, 30), (2, 30), (2, 62)]
        per = 100_000 // len(configs)
        for d, q in configs:
            n = 4 ** d
            lim = 1 << q
            for _ in range(per):
                beta = int(rng.integers(0, q + 3))
                p = CodecParams(d, 53 if q >= 53 else 24, q, beta, allow_wide_beta=True)
                ints = [int(v) for v in rng.integers(-lim + 1, lim, size=n)]
                nb = bitplane_truncate(
                    NegaBlock(tuple(nega_encode(v, q) for v in ints), q - 1), p)
                assert decode_planes(encode_planes(nb, p), p) == nb
        # negabinary round trip, exhaustive over +/- 2^q at q = 9, both paths
        for v in range(-(1 << 9), (1 << 9) + 1):
            assert nega_decode(nega_encode(v, 9)) == v
            assert fn_decode(fn_encode(v)) == v
        # ragged container dims round-trip; integral payload decodes exactly
        grid = np.arange(100, dtype=np.float64).reshape(10, 10) + 1.0
        p = CodecParams(2, 53, 62, 64, allow_wide_beta=True)
        data = compress(grid, p)
        header, _ = read_header(data)
        assert header.dims == (10, 10) and header.block_count == 9
        assert np.array_equal(decompress(data), grid)
        grid3 = np.arange(210, dtype=np.float64).reshape(5, 6, 7) + 1.0
        p3 = CodecParams(3, 53, 62, 64, allow_wide_beta=True)
        out3 = decompress(compress(grid3, p3))
        assert np.array_equal(out3, grid3)


def test_a08_accuracy_target_selection():
    with criterion("smallest beta reaching 2^-b accuracy, exact and minimal"):
        for d in (1, 2, 3):
            for b in (4, 8, 16, 26):
                for e_max in (0, 5, 9):
                    inp = BoundInputs(d=d, k=53, q=62, beta=0, b=b, e_max=e_max)
                    beta = beta_for_accuracy(inp)
                    target = Fraction(1, 1 << (b + e_max))
                    kb = k_beta_exact(BoundInputs(d=d, k=53, q=62, beta=beta),
                                      allow_out_of_regime=True)
                    assert kb <= target
                    assert beta >= 1
                    prev = k_beta_exact(BoundInputs(d=d, k=53, q=62, beta=beta - 1),
                                        allow_out_of_regime=True)
                    assert prev > target


def test_a09_rate_lower_bound():
    with criterion("per-value rate bound matches hand arithmetic, 20 triples"):
        assert rate_lower_bound(7, 1, 8) == 10
        rng = np.random.default_rng(909)
        for _ in range(20):
            beta = int(rng.integers(0, 65))
            d = int(rng.integers(1, 4))
            b_e = int(rng.integers(0, 33))
            n = 4 ** d
            assert rate_lower_bound(beta, d, b_e) == Fraction(n * beta + b_e, n) + 1


def test_a10_wide_beta_regime():
    with criterion("wide-beta errors within B_beta; full-precision junction exact"):
        q, k = 62, 53
        for d in (1, 2, 3):
            lo = q - 2 * d + 2
            interior = tuple(range(lo + 1, q + 2))
            trials = 10_000 // len(interior)
            for beta in interior:
                p = CodecParams(d, k, q, beta, allow_wide_beta=True)
                bb = b_beta_exact(BoundInputs(d=d, k=k, q=q, beta=beta))
                for t in range(trials):
                    blk = gen_worst_case_block(d, 0, 7, trial_rng(1010, d * 100 + beta, t))
                    rec = measure(blk, p, e_min=0, e_max=7, bound=bb)
                    assert not rec.violation
        # at beta = q + 2 nothing is discarded: the backward pass's two
        # halving steps exactly cancel the forward pass's final two steps,
        # so decompression adds no round-off and the tight constant holds
        rng = np.random.default_rng(1011)
        for _ in range(50_000):
            a2 = int(rng.integers(-(1 << 62), 1 << 62))
            a4 = int(rng.integers(-(1 << 62), 1 << 62))
            f4 = a4 + (a2 >> 1)
            f2 = a2 - (f4 >> 1)
            assert (f2 + (f4 >> 1), f4 - ((f2 + (f4 >> 1)) >> 1)) == (a2, a4)
        for d in (1, 2, 3):
            p = CodecParams(d, k, q, q + 2, allow_wide_beta=True)
            kb = k_beta_exact(BoundInputs(d=d, k=k, q=q, beta=q + 2),
                              allow_out_of_regime=True)
            for t in range(1_000):
                blk = gen_worst_case_block(d, 0, 7, trial_rng(1012, d, t))
                rec = measure(blk, p, e_min=0, e_max=7, bound=kb)
                assert not rec.violation


def test_a11_kbeta_surface():
    with criterion("bound surface: 320 rows, monotone in beta and d"):
        rows = kbeta_surface(range(1, 6), range(1, 65), 53, 62)
        assert len(rows) == 320
        for d in range(1, 6):
            series = [v for dd, _, v in rows if dd == d]
            assert all(a > b for a, b in zip(series, series[1:]))
        for beta in range(1, 65):
            col = [v for _, bb, v in rows if bb == beta]
            assert all(a < b for a, b in zip(col, col[1:]))
        assert all(math.isfinite(v) for _, _, v in rows)


def test_a12_synthetic_grid_analysis():
    with criterion("smooth grids compress better at equal beta; bounds hold"):
        from zfpkit.experiments import analyze_grid
        rng = np.random.default_rng(1212)
        smooth = 500.0 + np.cumsum(rng.uniform(-1, 1, size=(24, 24)), axis=0)
        hdr = rng.uniform(-1.0, 1.0, size=(24, 24)) * (10.0 ** rng.integers(-9, 9, size=(24, 24)))
        for beta in (16, 32, 48):
            r_smooth = analyze_grid(smooth, 53, 62, betas=(beta,))[0]
            r_hdr = analyze_grid(hdr, 53, 62, betas=(beta,))[0]
            assert r_smooth.ratio > r_hdr.ratio
            assert r_smooth.max_block_err <= r_smooth.k_beta
            assert r_hdr.max_block_err <= r_hdr.k_beta
