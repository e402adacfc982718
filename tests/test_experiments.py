"""Harness behaviour: generator distribution, exact measurement,
sweep determinism, grid analysis."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfpkit.codec import CodecParams
from zfpkit.experiments import (
    GRID_CSV_HEADER,
    SWEEP_CSV_HEADER,
    WorstCaseSpec,
    analyze_grid,
    derive_exponents,
    gen_worst_case_block,
    measure,
    sweep,
    trial_rng,
    write_grid_csv,
    write_sweep_csv,
)

TOY = CodecParams(d=1, k=13, q=9, beta=7)


class TestGenerator:
    def test_values_within_exponent_range(self):
        for d in (1, 2, 3):
            for t in range(50):
                blk = gen_worst_case_block(d, 0, 14, trial_rng(1, d, t))
                assert len(blk) == 4 ** d
                for v in blk:
                    assert 1.0 <= abs(v) <= 2.0 ** 14

    def test_degenerate_range_pins_magnitudes(self):
        blk = gen_worst_case_block(2, 3, 3, trial_rng(2, 0, 0))
        assert all(abs(v) == 8.0 for v in blk)

    def test_top_band_is_reached(self):
        # every block draws once per band, so the top band always shows up
        hits = 0
        for t in range(200):
            blk = gen_worst_case_block(1, 0, 8, trial_rng(3, 0, t))
            top = max(abs(v) for v in blk)
            if top >= 2.0 ** 6:
                hits += 1
        assert hits == 200

    def test_signs_mix(self):
        blk = gen_worst_case_block(3, 0, 7, trial_rng(4, 0, 0))
        assert any(v < 0 for v in blk) and any(v > 0 for v in blk)

    def test_determinism(self):
        a = gen_worst_case_block(2, 0, 7, trial_rng(5, 1, 9))
        b = gen_worst_case_block(2, 0, 7, trial_rng(5, 1, 9))
        assert a == b

    def test_float32_values_are_narrow(self):
        blk = gen_worst_case_block(2, 0, 7, trial_rng(6, 0, 0), float32=True)
        assert all(float(np.float32(v)) == v for v in blk)


class TestSpecRange:
    """Specs whose draws could overflow to inf or underflow to 0 are refused."""

    @pytest.mark.parametrize("float32, e_min, rhos, ok", [
        (True, -149, (0,), True), (True, -150, (0,), False),
        (True, 113, (0, 14), True), (True, 114, (0, 14), False),
        (False, -1074, (0,), True), (False, -1075, (0,), False),
        (False, 1009, (14, 7), True), (False, 1010, (14, 7), False),
    ])
    def test_boundaries(self, float32, e_min, rhos, ok):
        def make():
            return WorstCaseSpec(d=1, k=53, q=62, betas=(8,), rhos=rhos, e_min=e_min,
                                 float32=float32)

        if not ok:
            with pytest.raises(ValueError, match="draws need e_min"):
                make()
            return
        make()
        for t in range(50):
            blk = gen_worst_case_block(1, e_min, e_min + max(rhos), trial_rng(0, 0, t), float32)
            assert all(v != 0.0 and np.isfinite(v) for v in blk)


class TestDrawTrials:
    """The vectorised draws of a sweep equal the per-trial numpy streams."""

    @staticmethod
    def per_trial(d, e_min, e_max, float32, seed, cell, t):
        """(block, whether numpy's stream took a draw beyond the plain trial's).

        Without a redraw a trial takes 2 * 4**d outputs and leaves the high
        half of the last one buffered; a redraw takes that half or more.
        """
        rng = trial_rng(seed, cell, t)
        block = np.array(gen_worst_case_block(d, e_min, e_max, rng, float32))
        plain = trial_rng(seed, cell, t).bit_generator
        plain.advance(2 * 4 ** d)
        after = rng.bit_generator.state
        return block, (after["state"], after["has_uint32"]) != (plain.state["state"], 1)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), d=st.sampled_from((1, 2, 3)), float32=st.booleans(),
           seed=st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1),
                          st.integers(2 ** 64, 2 ** 96 - 1)),
           cell=st.one_of(st.integers(0, 40), st.integers(2 ** 32, 2 ** 40)),
           rho=st.integers(0, 60), m=st.integers(1, 8))
    def test_rows_equal_per_trial_draws(self, data, d, float32, seed, cell, rho, m):
        from zfpkit.experiments import _draw_trials

        lowest, highest = (-149, 127) if float32 else (-1074, 1023)
        e_min = data.draw(st.one_of(st.integers(-20, 20), st.integers(lowest, highest - rho)))
        first = data.draw(st.one_of(st.integers(0, 5000), st.just(2 ** 32 - m)))
        blocks, redraw = _draw_trials(d, e_min, e_min + rho, float32, seed, cell, first, m)
        assert blocks.shape == (m, 4 ** d)
        for r in range(m):
            block, took_redraw = self.per_trial(d, e_min, e_min + rho, float32, seed, cell,
                                                first + r)
            assert redraw[r] == took_redraw
            if not took_redraw:
                assert blocks[r].view(np.int64).tolist() == block.view(np.int64).tolist()

    def test_a_lemire_redraw_is_flagged(self):
        # trial 2244627 of (seed 1, cell 0) takes numpy's redraw path at d = 3
        from zfpkit.experiments import _draw_trials

        blocks, redraw = _draw_trials(3, 0, 7, False, 1, 0, 2244626, 3)
        assert redraw.tolist() == [False, True, False]
        block, took_redraw = self.per_trial(3, 0, 7, False, 1, 0, 2244627)
        assert took_redraw
        assert blocks[1].view(np.int64).tolist() != block.view(np.int64).tolist()

    def test_unmodelled_entropy_flags_every_row(self):
        from zfpkit.experiments import _draw_trials

        assert _draw_trials(1, 0, 7, False, 3, 0, 2 ** 32 - 2, 4)[1].all()
        assert _draw_trials(1, 0, 7, False, -1, 0, 0, 4)[1].all()

    def test_redrawing_every_row_changes_no_cell(self, monkeypatch):
        from zfpkit import experiments

        spec = WorstCaseSpec(d=2, k=24, q=30, betas=(6, 18), rhos=(0, 14), e_min=-20,
                             trials=300, seed=5, float32=True)  # two runs of rows per cell
        want = sweep(spec, threads=1)
        vectorised = experiments._draw_trials

        def all_flagged(*args):
            blocks, _ = vectorised(*args)
            return np.full_like(blocks, np.nan), np.ones(len(blocks), dtype=bool)

        monkeypatch.setattr(experiments, "_draw_trials", all_flagged)
        assert sweep(spec, threads=1) == want

    def test_negative_seed_raises_numpys_error(self):
        with pytest.raises(Exception) as numpy_error:
            trial_rng(-1, 0, 0)
        spec = WorstCaseSpec(d=1, k=53, q=62, betas=(8,), trials=3, seed=-1)
        with pytest.raises(type(numpy_error.value)) as sweep_error:
            sweep(spec, threads=1)
        assert str(sweep_error.value) == str(numpy_error.value)


class TestMeasure:
    def test_worked_example_ratio(self):
        rec = measure([5632.0, 3072.0, 400.0, 68.0], TOY)
        assert rec.err_block == pytest.approx(260.0 / 5632.0)
        assert rec.err_block <= rec.k_beta
        assert not rec.violation

    def test_zero_block_rejected(self):
        with pytest.raises(ValueError):
            measure([0.0, 0.0, 0.0, 0.0], TOY)

    def test_identical_seeds_identical_records(self):
        blk = gen_worst_case_block(1, 0, 7, trial_rng(7, 0, 3))
        a = measure(blk, TOY, e_min=0, e_max=7, seed=7, trial=3)
        b = measure(blk, TOY, e_min=0, e_max=7, seed=7, trial=3)
        assert a == b

    def test_full_precision_error_small_but_nonzero(self):
        p = CodecParams(1, 13, 9, 11, allow_wide_beta=True)
        rng = np.random.default_rng(8)
        nonzero = 0
        for _ in range(100):
            blk = [float(v) for v in rng.uniform(1.0, 7.0, size=4)]
            rec = measure(blk, p)
            assert not rec.violation
            if rec.err_block > 0:
                nonzero += 1
        assert nonzero > 50  # toy k keeps only 13 significand bits

    def test_derive_exponents(self):
        assert derive_exponents([5632.0, 3072.0, 400.0, 68.0]) == (2, 12)
        assert derive_exponents([0.0, 0.75]) == (-2, -1)


class TestSweep:
    def test_cells_and_csv_schema(self):
        spec = WorstCaseSpec(d=1, k=53, q=62, betas=(16, 32), rhos=(0, 7),
                             trials=20, seed=11)
        cells, violators = sweep(spec, threads=1)
        assert violators == []
        assert [(c.e_max, c.beta) for c in cells] == [(0, 16), (0, 32), (7, 16), (7, 32)]
        buf = io.StringIO()
        write_sweep_csv(cells, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 5
        assert all(c.violations == 0 for c in cells)

    def test_serial_and_parallel_agree(self):
        spec = WorstCaseSpec(d=1, k=53, q=62, betas=(8, 24), rhos=(0, 7),
                             trials=15, seed=3)
        serial, _ = sweep(spec, threads=1)
        parallel, _ = sweep(spec, threads=2)
        assert serial == parallel

    def test_import_loads_no_process_pool(self):
        # the pool modules load only when a sweep runs on several workers
        import zfpkit
        src = str(Path(zfpkit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, zfpkit; "
                 "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
                 "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[]"

    def test_byte_identical_reruns(self):
        spec = WorstCaseSpec(d=2, k=24, q=30, betas=(12,), rhos=(7,),
                             trials=1, seed=42, float32=True)
        outs = []
        for _ in range(2):
            cells, _ = sweep(spec, threads=1)
            buf = io.StringIO()
            write_sweep_csv(cells, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_block_error_band_roughly_rho_invariant(self):
        # qualitative claim: the block-error band does not move with the
        # exponent spread; factor-two tolerance on the band edges.  rho = 0
        # is excluded: its blocks are all +/-2**e_min, whose coefficients are
        # exactly representable at moderate beta, collapsing the band to zero
        # (structurally, not as sampling noise).
        spec = WorstCaseSpec(d=2, k=24, q=30, betas=(12,), rhos=(0, 7, 14),
                             trials=400, seed=9, float32=True)
        cells, _ = sweep(spec, threads=1)
        zero, lo, hi = (c.err_block_max for c in cells)
        assert max(lo, hi) <= 2.0 * min(lo, hi)
        assert zero <= max(lo, hi)

    def test_sweep_above_max_q_calls_no_measure(self, monkeypatch):
        # q = 80 cells take the batched round trip and its float filter like any q
        from zfpkit import experiments

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return per_trial(*args, **kwargs)

        per_trial = experiments.measure
        monkeypatch.setattr(experiments, "measure", counting)
        spec = WorstCaseSpec(d=2, k=53, q=80, betas=(20,), rhos=(7,), trials=200, seed=6)
        cells, violators = sweep(spec, threads=1)
        assert violators == [] and cells[0].err_block_max > 0.0
        assert calls == []

    def test_componentwise_error_grows_with_rho(self):
        spec = WorstCaseSpec(d=2, k=24, q=30, betas=(12,), rhos=(0, 14),
                             trials=300, seed=10, float32=True)
        cells, _ = sweep(spec, threads=1)
        assert cells[1].err_comp_max > cells[0].err_comp_max


class TestAnalyzeGrid:
    def test_constant_grid_compresses_steeply(self):
        grid = np.full((16, 16), 3.25)
        rows = analyze_grid(grid, 53, 62, betas=(4, 16, 48))
        ratios = {r.beta: r.ratio for r in rows}
        assert ratios[4] > ratios[16] > ratios[48]
        assert all(r.violations == 0 for r in rows)

    def test_bound_holds_on_rough_grid(self):
        rng = np.random.default_rng(13)
        grid = rng.uniform(-1e4, 1e4, size=(12, 9))
        rows = analyze_grid(grid, 53, 62, betas=(8, 24, 40))
        for r in rows:
            assert r.max_block_err <= r.k_beta
            assert r.violations == 0

    def test_more_planes_lower_ratio(self):
        rng = np.random.default_rng(14)
        grid = rng.uniform(1.0, 2.0, size=(20,))
        rows = analyze_grid(grid, 53, 62, betas=(1, 64), allow_wide_beta=True)
        assert rows[0].ratio > rows[1].ratio

    def test_smooth_beats_high_dynamic_range(self):
        rng = np.random.default_rng(15)
        smooth = 1000.0 + rng.uniform(0.0, 1.0, size=(16, 16))
        hdr = rng.uniform(-1.0, 1.0, size=(16, 16)) * (10.0 ** rng.integers(-8, 8, size=(16, 16)))
        beta = 32
        r_smooth = analyze_grid(smooth, 53, 62, betas=(beta,))[0]
        r_hdr = analyze_grid(hdr, 53, 62, betas=(beta,))[0]
        assert r_smooth.ratio > r_hdr.ratio

    def test_csv_schema(self):
        rows = analyze_grid(np.ones((4, 4)), 53, 62, betas=(8,))
        buf = io.StringIO()
        write_grid_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == GRID_CSV_HEADER
        assert len(lines) == 2


class TestAnalyzeGridReadsItsContainer:
    """Each row measures the blocks that beta's container decodes to."""

    @staticmethod
    def decoded_block_error(grid, p, b_e):
        """max over nonzero blocks of max|w - x| / max|x|, from decompress, in Fractions."""
        from fractions import Fraction

        from zfpkit.codec import compress, decompress, partition

        out = decompress(compress(grid, p, b_e=b_e))
        worst = Fraction(0)
        for x, w in zip(partition(grid), partition(out)):
            if any(x):
                err = max(abs(Fraction(a) - Fraction(b)) for a, b in zip(w, x))
                worst = max(worst, err / max(abs(Fraction(a)) for a in x))
        return float(worst)

    @pytest.mark.parametrize("scale, b_e", [(1.0, 11), (1e-300, 11), (5e-324, 13),
                                            (1e-310, 13)])
    def test_rows_equal_the_decoded_container_error(self, scale, b_e):
        # at the subnormal scales decoded values round in ldexp; the rows
        # report the error of those floats, not of the integers before them.
        # No padding: partition(out) re-pads from decoded values, the container does not
        grid = np.random.default_rng(17).uniform(-1.0, 1.0, (8, 12)) * scale
        betas = (2, 8, 30, 60)
        rows = analyze_grid(grid, 53, 62, betas, b_e=b_e)
        for beta, row in zip(betas, rows):
            want = self.decoded_block_error(grid, CodecParams(2, 53, 62, beta), b_e)
            assert row.max_block_err == want

    def test_near_max_grid_raises_decode_error_naming_the_block(self):
        from zfpkit.codec import DecodeError, compress_block, decompress_block, partition

        grid = np.random.default_rng(0).uniform(-1.0, 1.0, (8, 8)) * 1.7e308
        p = CodecParams(2, 53, 62, 4)
        first = None
        for i, blk in enumerate(partition(grid)):
            try:
                decompress_block(compress_block(blk, p), p)
            except OverflowError:
                first = i
                break
        assert first is not None
        with pytest.raises(DecodeError, match="float64 range") as info:
            analyze_grid(grid, 53, 62, (4,))
        assert info.value.block == first


class TestClearRows:
    """The vectorised filter shared by sweeps and grid analysis.

    A row it clears must satisfy the bound in exact arithmetic and report
    :func:`measure`'s floats; every other row goes to the exact path.
    """

    P = CodecParams(d=1, k=13, q=9, beta=7)  # K_beta = 33-bit numerator / 2**35

    @staticmethod
    def exact(x, w, bound, rho):
        """(block violation, componentwise violation) in Fractions."""
        from fractions import Fraction

        err = [abs(Fraction(b) - Fraction(a)) for a, b in zip(x, w)]
        top = max(abs(Fraction(a)) for a in x)
        comp = rho is not None and any(e > bound * 2 ** rho * abs(Fraction(a))
                                       for e, a in zip(err, x) if a)
        return max(err) > bound * top, comp

    def bound(self):
        from zfpkit.experiments import applicable_bound_exact

        bound = applicable_bound_exact(self.P)
        den = bound.denominator
        assert den & (den - 1) == 0 and bound.numerator < 2 ** 52
        return bound

    def check(self, xs, ws, bound, rho):
        from zfpkit.experiments import _clear_rows

        xs, ws = np.array(xs, dtype=float), np.array(ws, dtype=float)
        clear, _, _ = _clear_rows(xs, ws, bound, rho)
        verdicts = [self.exact(x, w, bound, rho) for x, w in zip(xs.tolist(), ws.tolist())]
        for c, v in zip(clear, verdicts):
            assert not (c and any(v))
        return clear.tolist(), verdicts

    def test_error_equal_to_the_bound_is_not_a_violation(self):
        bound = self.bound()
        top = float(bound.denominator)  # K_beta * top is the integer numerator
        x = [top, 3.0, -5.0, 1.0]
        for j in (1, 2, 3):
            w = list(x)
            w[j] += bound.numerator if x[j] > 0 else -bound.numerator
            clear, verdicts = self.check([x], [w], bound, None)
            assert verdicts == [(False, False)]
            assert clear == [False]  # equality is left to the exact path

    def test_one_unit_above_the_block_bound_is_a_violation(self):
        bound = self.bound()
        top = float(bound.denominator)
        x = [top, 3.0, -5.0, 1.0]
        w = [top, 3.0 + bound.numerator + 1, -5.0, 1.0]
        clear, verdicts = self.check([x, x], [w, x], bound, None)
        assert verdicts == [(True, False), (False, False)]
        assert clear == [False, True]

    def test_one_unit_above_the_componentwise_bound_is_a_violation(self):
        bound = self.bound()
        small = float(bound.denominator)  # K_beta * 2**rho * small is an integer
        big = small * 2 ** 10
        for rho in (0, 3):
            x = [big, small, -small, 2 * small]
            at = x[:1] + [small + bound.numerator * 2 ** rho] + x[2:]
            above = x[:1] + [small + bound.numerator * 2 ** rho + 1] + x[2:]
            clear, verdicts = self.check([x, x, x], [x, at, above], bound, rho)
            assert verdicts == [(False, False), (False, False), (False, True)]
            assert clear[0] and not clear[2]

    def test_rows_outside_the_normal_range_go_to_the_exact_path(self):
        from zfpkit.experiments import _clear_rows

        bound = self.bound()
        tiny, huge, inf, nan = 5e-324, 1.7e308, float("inf"), float("nan")
        xs = [[1.0, tiny, 2.0, 3.0], [huge, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0],
              [1.0, 2.0, 3.0, 4.0], [nan, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0],
              [1.0, 2.0 ** -400, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]]
        ws = [list(x) for x in xs]
        ws[2][0] = inf
        ws[3][1] = 2.2e-308  # a subnormal decoded value
        clear, _, _ = _clear_rows(np.array(xs), np.array(ws), bound, 0)
        assert clear.tolist() == [False] * 7 + [True]

    @pytest.mark.parametrize("d, k, q, scale", [(1, 53, 62, 1.0), (2, 24, 30, 1e-300),
                                                (3, 53, 62, 1e300), (2, 13, 9, 1.0)])
    def test_reported_floats_equal_measure(self, d, k, q, scale):
        from zfpkit.codec import compress_block, decompress_block
        from zfpkit.experiments import _clear_rows, applicable_bound_exact

        rng = np.random.default_rng(d * q)
        for beta in (0, 2, q - 2 * d + 2, q + 2):
            p = CodecParams(d, k, q, beta, allow_wide_beta=True)
            bound = applicable_bound_exact(p)
            xs = rng.uniform(-1.0, 1.0, (40, p.n)) * np.exp2(rng.integers(-20, 20, (40, p.n)))
            xs *= scale
            ws = np.array([decompress_block(compress_block(x, p), p)[1] for x in xs.tolist()])
            # at rho = 0 the componentwise bound is below many errors of these blocks
            for rho in (0, 45):
                recs = [measure(x, p, e_min=0, e_max=rho, bound=bound) for x in xs.tolist()]
                clear, err_block, err_comp = _clear_rows(xs, ws, bound, rho)
                assert rho == 0 or clear.sum() >= 30
                for c, b, e, r in zip(clear, err_block.tolist(), err_comp.tolist(), recs):
                    if c:
                        assert not r.violation
                        assert (b.hex(), e.hex()) == (r.err_block.hex(), r.err_comp.hex())


def test_sweep_csv_slack_column_is_block_error_over_k_beta():
    spec = WorstCaseSpec(d=2, k=24, q=30, betas=(6, 18), rhos=(7, 14), trials=25, seed=12,
                         float32=True)
    cells, _ = sweep(spec, threads=1)
    buf = io.StringIO()
    write_sweep_csv(cells, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].split(",")[-1] == "slack"
    for cell, line in zip(cells, lines[1:]):
        slack = line.split(",")[-1]
        assert slack == f"{cell.err_block_max / cell.k_beta:.10g}"
        assert 0.0 < float(slack) <= 1.0


def test_import_loads_no_batch_module():
    # sweeps and grid analysis import the batch stages on first use
    import zfpkit
    src = str(Path(zfpkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, zfpkit; print('zfpkit.codec.batch' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
