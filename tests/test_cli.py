"""End-to-end CLI behaviour through main()."""

import numpy as np
import pytest

from zfpkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompressDecompress:
    def test_round_trip_default_params(self, tmp_path, capsys):
        src = tmp_path / "v.raw"
        np.array([1.5, 2.5, -3.5, 4.5]).tofile(src)
        out = tmp_path / "v.zfpk"
        code, stdout, _ = run(capsys, "compress", str(src), "--dims", "4",
                              "--out", str(out))
        assert code == 0
        assert "K_beta" in stdout and "ratio" in stdout
        back = tmp_path / "v.out"
        code, stdout, _ = run(capsys, "decompress", str(out), "--out", str(back))
        assert code == 0
        got = np.fromfile(back)
        ref = np.array([1.5, 2.5, -3.5, 4.5])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_worked_toy_example(self, tmp_path, capsys):
        src = tmp_path / "toy.raw"
        np.array([5632.0, 3072.0, 400.0, 68.0]).tofile(src)
        out = tmp_path / "toy.zfpk"
        code, _, _ = run(capsys, "compress", str(src), "--dims", "4",
                         "--k", "13", "--q", "9", "--beta", "7", "--out", str(out))
        assert code == 0
        back = tmp_path / "toy.out"
        code, _, _ = run(capsys, "decompress", str(out), "--out", str(back))
        assert code == 0
        assert np.fromfile(back).tolist() == [5824.0, 3136.0, 448.0, -192.0]

    def test_wide_beta_requires_flag(self, tmp_path, capsys):
        src = tmp_path / "v.raw"
        np.ones(4).tofile(src)
        code, _, stderr = run(capsys, "compress", str(src), "--dims", "4",
                              "--k", "13", "--q", "9", "--beta", "10")
        assert code == 2
        assert "q - 2d + 2" in stderr
        code, stdout, _ = run(capsys, "compress", str(src), "--dims", "4",
                              "--k", "13", "--q", "9", "--beta", "10",
                              "--allow-appendix-b", "--out", str(tmp_path / "v.zfpk"))
        assert code == 0
        assert "B_beta" in stdout

    def test_f32_round_trip(self, tmp_path, capsys):
        src = tmp_path / "g.raw"
        rng = np.random.default_rng(0)
        grid = rng.uniform(1, 2, size=(6, 5)).astype(np.float32)
        grid.tofile(src)
        out = tmp_path / "g.zfpk"
        code, _, _ = run(capsys, "compress", str(src), "--dims", "6,5",
                         "--scalar", "f32", "--beta", "24", "--out", str(out))
        assert code == 0
        back = tmp_path / "g.out"
        code, stdout, _ = run(capsys, "decompress", str(out), "--out", str(back))
        assert code == 0
        assert "f32" in stdout
        got = np.fromfile(back, dtype=np.float32).reshape(6, 5)
        assert np.max(np.abs(got - grid)) <= 2e-4 * np.max(np.abs(grid))

    def test_dims_disagreement(self, tmp_path, capsys):
        src = tmp_path / "v.raw"
        np.ones(4).tofile(src)
        code, _, stderr = run(capsys, "compress", str(src), "--dims", "4",
                              "--d", "2")
        assert code == 2 and "disagrees" in stderr

    def test_corrupt_container_diagnostic(self, tmp_path, capsys):
        src = tmp_path / "v.raw"
        np.arange(1, 17, dtype=np.float64).tofile(src)
        out = tmp_path / "v.zfpk"
        run(capsys, "compress", str(src), "--dims", "16", "--beta", "60",
            "--out", str(out))
        data = out.read_bytes()
        out.write_bytes(data[:-8])
        code, _, stderr = run(capsys, "decompress", str(out),
                              "--out", str(tmp_path / "v.out"))
        assert code == 2 and "block" in stderr

    def test_reconstruction_beyond_float64_is_one_line_error(self, tmp_path, capsys):
        src = tmp_path / "v.raw"
        (np.random.default_rng(0).uniform(-1.0, 1.0, (4, 4)) * 1.7e308).tofile(src)
        out = tmp_path / "v.zfpk"
        code, _, _ = run(capsys, "compress", str(src), "--dims", "4,4", "--beta", "4",
                         "--out", str(out))
        assert code == 0
        code, _, stderr = run(capsys, "decompress", str(out),
                              "--out", str(tmp_path / "v.out"))
        assert code == 2
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        assert "float64 range" in stderr and "block 0" in stderr

    def test_bit_flipped_container_is_one_line_error(self, tmp_path, capsys):
        src = tmp_path / "v.raw"
        np.arange(1, 5, dtype=np.float64).tofile(src)
        out = tmp_path / "v.zfpk"
        run(capsys, "compress", str(src), "--dims", "4", "--out", str(out))
        data = bytearray(out.read_bytes())
        # the zero flag of the only block: a one-byte record, then trailing bytes
        data[18] ^= 0x80
        out.write_bytes(bytes(data))
        code, _, stderr = run(capsys, "decompress", str(out),
                              "--out", str(tmp_path / "v.out"))
        assert code == 2
        assert stderr.count("\n") == 1 and "Traceback" not in stderr

    def test_no_partial_output_on_error(self, tmp_path, capsys):
        target = tmp_path / "keep.raw"
        target.write_bytes(b"sentinel")
        bad = tmp_path / "bad.zfpk"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code, _, _ = run(capsys, "decompress", str(bad), "--out", str(target))
        assert code == 2
        assert target.read_bytes() == b"sentinel"


class TestBoundsCommand:
    def test_table(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--d", "1", "--k", "13",
                              "--q", "9", "--beta", "7", "--e-max", "7",
                              "--e-min", "0", "--b", "2")
        assert code == 0
        assert "K_beta      = 0.1992799224" in stdout
        assert "comp bound" in stdout and "rate bound" in stdout
        assert "beta for 2^-2" in stdout

    def test_infeasible_target_reported(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--d", "1", "--k", "13",
                              "--q", "9", "--beta", "7", "--b", "30", "--e-max", "0")
        assert code == 0
        assert "infeasible" in stdout

    def test_surface_csv(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        code, _, _ = run(capsys, "bounds", "--surface", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d,beta,log10_Kbeta"
        assert len(lines) == 321

    def test_surface_follows_scalar_pairing(self, capsys):
        import io

        from zfpkit import bounds as B

        code, stdout, _ = run(capsys, "bounds", "--surface", "--scalar", "f32",
                              "--d-range", "1:3", "--beta-range", "2,8,26")
        assert code == 0
        want = io.StringIO()
        B.write_surface_csv(B.kbeta_surface((1, 2, 3), (2, 8, 26), 24, 30), want)
        assert stdout == want.getvalue()
        f64 = io.StringIO()
        B.write_surface_csv(B.kbeta_surface((1, 2, 3), (2, 8, 26), 53, 62), f64)
        assert stdout != f64.getvalue()

    @pytest.mark.parametrize("flag", ["--k", "--q"])
    def test_surface_rejects_zero_precision(self, capsys, flag):
        code, stdout, err = run(capsys, "bounds", "--surface", flag, "0",
                                "--d-range", "1:2", "--beta-range", "2,4")
        assert code == 2 and stdout == ""
        assert err.startswith("zfpkit: error: k and q must be >= 2")


    @pytest.mark.parametrize("b_e", ["1", "33", "99"])
    def test_exponent_width_outside_container_range_refused(self, capsys, b_e):
        code, stdout, err = run(capsys, "bounds", "--d", "1", "--k", "53", "--q", "62",
                                "--beta", "8", "--b-e", b_e)
        assert code == 2 and stdout == ""
        assert err == f"zfpkit: error: b_e must be in [2, 32], got {b_e}\n"

    def test_exponent_width_with_surface_refused(self, capsys):
        code, stdout, err = run(capsys, "bounds", "--surface", "--b-e", "99",
                                "--d-range", "1:1", "--beta-range", "2")
        assert code == 2 and stdout == ""
        assert err.count("\n") == 1 and "--b-e does not apply to --surface" in err

    @pytest.mark.parametrize("argv, message", [
        (("--e-max", "3", "--e-min", "5"), "e_max < e_min"),
        (("--b", "10",), "an accuracy target needs --e-max"),
    ])
    def test_refused_input_prints_no_partial_table(self, capsys, argv, message):
        code, stdout, err = run(capsys, "bounds", "--d", "1", "--k", "53", "--q", "62",
                                "--beta", "8", *argv)
        assert code == 2 and stdout == ""
        assert err.count("\n") == 1 and message in err

    def test_accuracy_target_beyond_q_plus_2_planes_infeasible(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--d", "3", "--k", "24", "--q", "30",
                              "--beta", "8", "--e-max", "0", "--b", "17")
        assert code == 0
        assert "beta for 2^-17 accuracy: infeasible" in stdout and "(q = 30)" in stdout

    def test_surface_default_betas_stop_at_q_plus_2(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--surface", "--scalar", "f32", "--d-range", "1:1")
        assert code == 0
        assert [int(line.split(",")[1]) for line in stdout.splitlines()[1:]] == list(range(1, 33))

    def test_surface_beta_beyond_q_plus_2_refused_before_any_row(self, capsys, monkeypatch):
        from zfpkit import bounds as B

        def no_rows(*args):
            raise AssertionError("a refused surface computed its rows")

        monkeypatch.setattr(B, "kbeta_surface", no_rows)
        code, stdout, err = run(capsys, "bounds", "--surface", "--scalar", "f32",
                                "--d-range", "1:2", "--beta-range", "8,33")
        assert code == 2 and stdout == ""
        assert err == "zfpkit: error: beta must be in [0, q+2] = [0, 32], got 33\n"

    def test_beta_beyond_q_plus_2_refused(self, capsys):
        code, stdout, err = run(capsys, "bounds", "--d", "3", "--k", "24", "--q", "30",
                                "--beta", "33")
        assert code == 2 and stdout == ""
        assert err == "zfpkit: error: beta must be in [0, q+2] = [0, 32], got 33\n"
        code, stdout, _ = run(capsys, "bounds", "--d", "3", "--k", "24", "--q", "30",
                              "--beta", "32")
        assert code == 0 and stdout.startswith("K_beta")

    def test_exponent_width_at_container_limits_accepted(self, capsys):
        for b_e in ("2", "32"):
            code, stdout, _ = run(capsys, "bounds", "--d", "1", "--k", "53", "--q", "62",
                                  "--beta", "8", "--b-e", b_e)
            assert code == 0 and f"(b_e = {b_e})" in stdout


class TestExperimentCommand:
    def test_default_sweep_exits_zero(self, capsys):
        code, stdout, _ = run(capsys, "experiment", "--trials", "5", "--seed", "1",
                              "--threads", "1")
        assert code == 0
        assert stdout.startswith("d,k,q,beta,emin,emax,")

    def test_reruns_byte_identical(self, capsys):
        outs = []
        for _ in range(2):
            code, stdout, _ = run(capsys, "experiment", "--trials", "1",
                                  "--seed", "42", "--threads", "1")
            assert code == 0
            outs.append(stdout)
        assert outs[0] == outs[1]

    def test_grid_mode(self, tmp_path, capsys):
        src = tmp_path / "g.raw"
        rng = np.random.default_rng(1)
        rng.uniform(1, 4, size=(8, 8, 8)).tofile(src)
        code, stdout, _ = run(capsys, "experiment", "--grid", str(src),
                              "--dims", "8,8,8", "--beta-range", "8,32")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "beta,max_block_err,K_beta,ratio"
        assert len(lines) == 3

    def test_exponent_width_without_grid_refused(self, capsys):
        code, stdout, err = run(capsys, "experiment", "--trials", "1", "--threads", "1",
                                "--b-e", "11")
        assert code == 2 and stdout == ""
        assert err.count("\n") == 1 and "--b-e applies only with --grid" in err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_refused_before_any_sweep(self, capsys, monkeypatch, threads):
        import zfpkit.cli as cli

        def no_sweep(spec, threads=None):
            raise AssertionError("sweep started")

        monkeypatch.setattr(cli.X, "sweep", no_sweep)
        code, stdout, err = run(capsys, "experiment", "--trials", "1", "--threads", threads)
        assert code == 2 and stdout == ""
        assert err == f"zfpkit: error: --threads must be at least 1, got {threads}\n"

    def test_bad_beta_refused_before_any_trial(self, capsys, monkeypatch):
        # beta 8 comes first, but no trial of it is drawn before beta 70 is refused
        from zfpkit import experiments

        def no_draw(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(experiments, "_draw_trials", no_draw)
        code, stdout, err = run(capsys, "experiment", "--threads", "1", "--d", "3",
                                "--trials", "20000", "--rho-list", "0,7",
                                "--beta-range", "8,70")
        assert code == 2 and stdout == ""
        assert err == "zfpkit: error: beta must be in [0, q+2] = [0, 64], got 70\n"

    @pytest.mark.parametrize("shape, precision, betas", [
        ((16,), ("--k", "13", "--q", "9"), ["2", "4", "8", "9"]),
        ((4, 4), ("--q", "12"), ["2", "4", "8", "10"]),
        ((8, 8), (), ["2", "4", "8", "16", "60"]),
    ])
    def test_default_grid_betas_stay_in_the_default_regime(self, tmp_path, capsys, shape,
                                                          precision, betas):
        src = tmp_path / "g.raw"
        np.random.default_rng(2).uniform(1, 4, size=shape).tofile(src)
        code, stdout, _ = run(capsys, "experiment", "--grid", str(src),
                              "--dims", ",".join(map(str, shape)), *precision)
        assert code == 0
        assert [line.split(",")[0] for line in stdout.splitlines()[1:]] == betas

    @pytest.mark.parametrize("d, k, q, betas", [
        ("1", "13", "9", ["8", "9"]),
        ("1", "53", "62", ["8", "16", "32", "48", "62"]),
        ("3", "53", "30", ["8", "16", "26"]),
    ])
    def test_default_sweep_betas(self, capsys, d, k, q, betas):
        code, stdout, _ = run(capsys, "experiment", "--d", d, "--k", k, "--q", q,
                              "--rho-list", "0", "--trials", "1", "--threads", "1")
        assert code == 0
        assert [line.split(",")[3] for line in stdout.splitlines()[1:]] == betas

    def test_empty_rho_list_refused(self, capsys):
        code, stdout, err = run(capsys, "experiment", "--rho-list", "", "--trials", "3",
                                "--threads", "1")
        assert code == 2 and stdout == ""
        assert err == "zfpkit: error: rhos must be non-empty\n"

    @pytest.mark.parametrize("cap", ["abc", "0"])
    def test_malformed_worker_cap_refused(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("ZFPKIT_THREADS", cap)
        code, stdout, err = run(capsys, "experiment", "--trials", "1")
        assert code == 2 and stdout == ""
        assert err.count("\n") == 1 and err.startswith("zfpkit: error: ZFPKIT_THREADS must be")

    def test_grid_dim_mismatch(self, tmp_path, capsys):
        src = tmp_path / "g.raw"
        np.ones(10).tofile(src)
        code, _, stderr = run(capsys, "experiment", "--grid", str(src),
                              "--dims", "4,4")
        assert code == 2 and "need" in stderr

    def test_violations_set_exit_status(self, capsys, monkeypatch):
        import zfpkit.cli as cli
        from zfpkit.experiments import ExperimentRecord

        fake = ExperimentRecord(d=1, k=53, q=62, beta=8, e_min=0, e_max=0,
                                seed=0, trial=0, err_block=1.0, err_comp=1.0,
                                k_beta=0.1, comp_bound=0.1, violation=True)

        def fake_sweep(spec, threads=None):
            return [], [fake]

        monkeypatch.setattr(cli.X, "sweep", fake_sweep)
        code, _, stderr = run(capsys, "experiment", "--trials", "1")
        assert code == 1 and "VIOLATION" in stderr


class TestOneLineErrors:
    def test_near_max_grid_analysis(self, tmp_path, capsys):
        src = tmp_path / "g.raw"
        (np.random.default_rng(0).uniform(-1.0, 1.0, (8, 8)) * 1.7e308).tofile(src)
        code, _, stderr = run(capsys, "experiment", "--grid", str(src), "--dims", "8,8",
                              "--beta-range", "4")
        assert code == 2
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        assert "float64 range" in stderr and "block " in stderr

    def test_q_above_1024_refused(self, tmp_path, capsys):
        src = tmp_path / "v.raw"
        np.ones(4).tofile(src)
        code, _, stderr = run(capsys, "compress", str(src), "--dims", "4", "--q", "1100")
        assert code == 2
        assert stderr.count("\n") == 1 and "q must be in [2, 1024]" in stderr
        assert not (tmp_path / "v.raw.zfpk").exists()

    def test_sweep_outside_the_scalar_range_refused(self, capsys):
        code, stdout, stderr = run(capsys, "experiment", "--scalar", "f32", "--e-min", "500",
                                   "--trials", "2", "--threads", "1")
        assert code == 2 and stdout == ""
        assert stderr.count("\n") == 1 and "float32 draws need e_min >= -149" in stderr

    def test_sweep_at_q_1024_decodes_values_near_one(self, capsys):
        # the decoded ints of these blocks pass 2**1024 while their values stay near 1
        code, stdout, stderr = run(capsys, "experiment", "--d", "1", "--k", "53", "--q", "1024",
                                   "--beta-range", "2", "--rho-list", "0", "--trials", "50",
                                   "--threads", "1")
        assert code == 0 and stderr == ""
        header, row = stdout.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["violations"] == "0"

    def test_sweep_decoding_beyond_float64(self, capsys):
        code, stdout, stderr = run(capsys, "experiment", "--e-min", "1022", "--rho-list", "1",
                                   "--beta-range", "2", "--trials", "20", "--threads", "1")
        assert code == 2 and stdout == ""
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        assert "trial 1 of the cell rho=1, beta=2" in stderr and "float64 range" in stderr


class TestSubnormalGrid:
    def test_compress_and_grid_analysis_take_the_wider_field(self, tmp_path, capsys):
        from zfpkit.codec import read_header
        src = tmp_path / "s.raw"
        grid = np.array([1e-310, 2.0, 1.0, 3.0, 1e-310, 1e-311, 0.0, 5e-324])
        grid.tofile(src)
        out = tmp_path / "s.zfpk"
        code, _, stderr = run(capsys, "compress", str(src), "--dims", "8", "--out", str(out))
        assert code == 0 and stderr == ""
        assert read_header(out.read_bytes())[0].b_e == 12
        code, _, _ = run(capsys, "decompress", str(out), "--out", str(tmp_path / "s.out"))
        assert code == 0 and np.fromfile(tmp_path / "s.out").shape == (8,)
        code, stdout, _ = run(capsys, "experiment", "--grid", str(src), "--dims", "8")
        assert code == 0 and stdout.startswith("beta,max_block_err,K_beta,ratio\n")
        code, _, stderr = run(capsys, "compress", str(src), "--dims", "8", "--b-e", "11",
                              "--out", str(out))
        assert code == 2 and "block exponent -1030 does not fit a 11-bit" in stderr


class TestRefusalsAndOutputs:
    """Options and refusals the other CLI tests do not reach."""

    def test_bounds_table_written_to_out(self, tmp_path, capsys):
        argv = ("bounds", "--d", "1", "--k", "13", "--q", "9", "--beta", "7")
        code, table, _ = run(capsys, *argv)
        assert code == 0 and table.startswith("K_beta      = 0.1992799224\n")
        out = tmp_path / "b.txt"
        code, stdout, _ = run(capsys, *argv, "--out", str(out))
        assert code == 0 and stdout == ""
        assert out.read_text() == table

    def test_wide_beta_flag_only_where_it_is_read(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--d", "1", "--k", "13", "--q", "9", "--beta", "10",
                  "--allow-appendix-b"])
        assert info.value.code == 2
        assert "unrecognized arguments: --allow-appendix-b" in capsys.readouterr().err

    @pytest.mark.parametrize("wide", [(), ("--allow-appendix-b",)])
    def test_default_sweep_beta_at_a_nonpositive_maximum(self, capsys, wide):
        # q - 2d + 2 = 0: the default betas are {0}, as the default compress beta is 0
        code, stdout, err = run(capsys, "experiment", "--d", "3", "--k", "5", "--q", "4",
                                "--trials", "2", "--threads", "1", *wide)
        assert code == 0 and err == ""
        assert [line.split(",")[3] for line in stdout.splitlines()[1:]] == ["0", "0", "0"]

    def test_bounds_needs_every_parameter(self, capsys):
        code, stdout, err = run(capsys, "bounds", "--d", "1", "--k", "13", "--q", "9")
        assert code == 2 and stdout == ""
        assert err == "zfpkit: error: bounds needs --d, --k, --q and --beta (or --surface)\n"

    @pytest.mark.parametrize("dims, message", [
        ("4,x", "cannot parse dims '4,x'"),
        (",", "dims must name at least one axis"),
    ])
    def test_unparsable_dims_refused(self, tmp_path, capsys, dims, message):
        src = tmp_path / "v.raw"
        np.ones(4).tofile(src)
        code, stdout, err = run(capsys, "compress", str(src), "--dims", dims)
        assert code == 2 and stdout == ""
        assert err == f"zfpkit: error: {message}\n"
        assert not (tmp_path / "v.raw.zfpk").exists()

    @pytest.mark.parametrize("text", ["8:2", "2:8:0"])
    def test_bad_beta_range_refused(self, capsys, text):
        code, stdout, err = run(capsys, "experiment", "--beta-range", text, "--trials", "1",
                                "--threads", "1")
        assert code == 2 and stdout == ""
        assert err == f"zfpkit: error: bad range {text!r}\n"

    def test_grid_needs_dims(self, tmp_path, capsys):
        src = tmp_path / "g.raw"
        np.ones(16).tofile(src)
        code, stdout, err = run(capsys, "experiment", "--grid", str(src))
        assert code == 2 and stdout == ""
        assert err == "zfpkit: error: --grid needs --dims\n"

    def test_grid_violations_set_exit_status(self, tmp_path, capsys, monkeypatch):
        import zfpkit.cli as cli
        from zfpkit.experiments import GridAnalysisRow

        def fake_analyze(grid, k, q, betas, nbytes, allow_wide_beta=False, b_e=None):
            return [GridAnalysisRow(beta=b, max_block_err=1.0, k_beta=0.1, ratio=2.0,
                                    violations=3) for b in betas]

        monkeypatch.setattr(cli.X, "analyze_grid", fake_analyze)
        src = tmp_path / "g.raw"
        np.ones(16).tofile(src)
        code, stdout, err = run(capsys, "experiment", "--grid", str(src), "--dims", "16",
                                "--beta-range", "2,4")
        assert code == 1
        assert stdout.splitlines()[1:] == ["2,1,0.1,2", "4,1,0.1,2"]
        assert err == "ERROR: 6 block(s) exceeded the error bound\n"
