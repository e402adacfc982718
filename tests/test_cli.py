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
