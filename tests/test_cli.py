"""End-to-end checks of the experiment driver, all in process.

Every invocation goes through main(argv) with a tmp_path output directory;
reruns into the same directory must be byte-identical, which is what makes
the CSV outputs diffable across machines.
"""

import warnings

import numpy as np
import pytest

from tfch import caputo_l2, cli, temporal_mesh
from tfch.cli import main
from tfch.tfch_solver import SolverConfig, quartic_bump, solve


def _run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return main(argv)


def _exit_code(argv):
    """main's exit code, also when argparse exits during parsing."""
    try:
        return _run(argv)
    except SystemExit as exc:
        return exc.code


def _read(path):
    with open(path) as f:
        return f.read()


class TestParsing:
    def test_no_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["rho-star", "--bogus", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_empty_list_value_is_a_usage_error(self, tmp_path):
        # a bare "--alphas ''" must not silently write a header-only table
        with pytest.raises(SystemExit) as exc:
            main(["rho-star", "--alphas", "", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestRhoStar:
    def test_threshold_table(self, tmp_path):
        rc = _run(["rho-star", "--alphas", "0.5,1.0", "--out", str(tmp_path)])
        assert rc == 0
        lines = _read(tmp_path / "rho_star.csv").strip().split("\n")
        assert lines[0] == "alpha,rho_star"
        assert len(lines) == 3
        a1, r1 = lines[2].split(",")
        assert float(a1) == 1.0
        assert float(r1) == pytest.approx(4.864536512317584, rel=1e-12)

    def test_fixed_point_and_q3_grid(self, tmp_path, capsys):
        rc = _run(["rho-star", "--alphas", "0.4,0.8", "--q3",
                   "--q3-rhos", "2.0,3.0,4.0", "--fixed-point",
                   "--out", str(tmp_path)])
        assert rc == 0
        q3_lines = _read(tmp_path / "q3_curves.csv").strip().split("\n")
        assert q3_lines[0] == "rho,alpha,q3"
        assert len(q3_lines) == 1 + 3 * 2
        fp = _read(tmp_path / "fixed_point.csv").strip().split("\n")
        assert fp[0] == "rho_bar,alpha_bar"
        rho, alpha = (float(v) for v in fp[1].split(","))
        assert rho == pytest.approx(4.7476114, abs=1e-6)
        assert alpha == pytest.approx(0.82265, abs=1e-4)
        assert "fixed point" in capsys.readouterr().out

    def test_failing_threshold_writes_nothing(self, tmp_path, capsys):
        # rho_star refuses an alpha below its floor after the flags were
        # accepted: a usage error, with no warning and no file
        out = tmp_path / "new"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["rho-star", "--alphas", "0.5,1e-300", "--q3",
                       "--fixed-point", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert repr(caputo_l2._RHO_STAR_ALPHA_MIN) in err
        assert not out.exists()

    def test_alpha_out_of_range_exits_2(self, tmp_path):
        assert _run(["rho-star", "--alphas", "1.5",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("rhos", ["-1,0,2", "2,inf", "nan"])
    def test_bad_q3_ratio_exits_2_before_output(self, tmp_path, capsys,
                                                rhos):
        # q3 takes log(rho): a nonpositive ratio must not reach it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["rho-star", "--q3", "--q3-rhos=" + rhos,
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "finite and positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestOutputDirectory:
    @pytest.mark.parametrize("argv", [
        ["mesh", "--N", "0"],
        ["tfch-run"],
        ["rho-star", "--q3", "--q3-rhos=-1,0,2"],
    ], ids=lambda argv: argv[0])
    def test_usage_error_creates_no_out_directory(self, tmp_path, argv):
        out = tmp_path / "new"
        assert _run(argv + ["--out", str(out)]) == 2
        assert not out.exists()


class TestMesh:
    def test_table_and_meta(self, tmp_path):
        rc = _run(["mesh", "--N", "6", "--out", str(tmp_path)])
        assert rc == 0
        lines = _read(tmp_path / "mesh.csv").strip().split("\n")
        assert lines[0] == "k,t_k,tau_k,rho_k"
        assert len(lines) == 8
        meta = _read(tmp_path / "run_meta.txt")
        assert meta.startswith("command: mesh\n")
        assert "N: 6\n" in meta and "T: 1.0\n" in meta
        assert "outputs: mesh.csv" in meta
        assert "out:" not in meta and "config:" not in meta

    def test_rerun_is_byte_identical(self, tmp_path):
        argv = ["mesh", "--N", "8", "--alpha", "0.5", "--out", str(tmp_path)]
        assert _run(argv) == 0
        first = {n: _read(tmp_path / n) for n in ("mesh.csv", "run_meta.txt")}
        assert _run(argv) == 0
        for name, content in first.items():
            assert _read(tmp_path / name) == content

    def test_mesh_file_roundtrip_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert _run(["mesh", "--N", "9", "--out", str(a)]) == 0
        assert _run(["mesh", "--mesh", str(a / "mesh.csv"),
                     "--out", str(b)]) == 0
        assert _read(a / "mesh.csv") == _read(b / "mesh.csv")

    def test_step_file_with_ratio_report(self, tmp_path):
        steps = tmp_path / "steps.txt"
        steps.write_text("0.5\n0.1\n")
        rc = _run(["mesh", "--mesh", str(steps), "--alpha", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 0
        meta = _read(tmp_path / "run_meta.txt")
        assert "note: ratio bound fails at 1 steps (first k=2)" in meta

    @pytest.mark.parametrize("argv", [
        ["mesh"],
        ["tfch-run", "--alpha", "0.5", "--M", "8"],
    ], ids=lambda argv: argv[0])
    def test_step_file_meta_records_the_mesh_that_ran(self, tmp_path, argv):
        # --N and --T do not shape a mesh read from a file; run_meta.txt
        # gives the file mesh's N and horizon instead of the flags
        steps = tmp_path / "steps.txt"
        steps.write_text("0.25\n0.25\n0.25\n0.25\n")
        out = tmp_path / "out"
        assert _run(argv + ["--mesh", str(steps), "--N", "50", "--T", "3",
                            "--out", str(out)]) == 0
        meta = _read(out / "run_meta.txt")
        assert "\nN: 4\n" in meta and "\nT: 1.0\n" in meta

    def test_kernel_row_needs_alpha(self, tmp_path):
        rc = _run(["mesh", "--N", "6", "--kernel-level", "3",
                   "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("flags", [
        ["--alpha", "0.5", "--kernel-level", "0"],
        ["--alpha", "0.5", "--kernel-level", "11"],
        ["--alpha", "1.5"],
        ["--alpha", "1.0", "--kernel-level", "3"],
        ["--kernel-level", "3"],
    ])
    def test_bad_flag_values_exit_2_before_output(self, tmp_path, flags):
        rc = _run(["mesh", "--N", "10", "--out", str(tmp_path)] + flags)
        assert rc == 2
        assert not (tmp_path / "mesh.csv").exists()
        assert not (tmp_path / "kernel_row.csv").exists()

    def test_kernel_row_output(self, tmp_path):
        rc = _run(["mesh", "--N", "6", "--alpha", "0.5", "--kernel-level",
                   "4", "--out", str(tmp_path)])
        assert rc == 0
        lines = _read(tmp_path / "kernel_row.csv").strip().split("\n")
        assert lines[0] == "k,c,d,B,c_tilde,J"
        assert len(lines) == 5

    def test_graded_without_N_exits_2(self, tmp_path):
        assert _run(["mesh", "--out", str(tmp_path)]) == 2

    def test_missing_mesh_file_exits_2(self, tmp_path):
        assert _run(["mesh", "--mesh", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["mesh"],
        ["tfch-run", "--alpha", "0.5", "--M", "8"],
    ], ids=["mesh", "tfch-run"])
    @pytest.mark.parametrize("content, message", [
        ("1e-3\ninf\n", "every step must be finite"),
        ("k,t_k,tau_k,rho_k\n0,0,,\n1,0.5,0.5,\n2,inf,inf,inf\n",
         "nodes must be finite"),
        ("k,t_k,tau_k,rho_k\n0,0,,\n1,0.5,0.5,\n2,0.25,-0.25,-0.5\n",
         "nodes must be strictly increasing"),
        ("1e-3\n-2e-3\n", "every step must be finite and positive"),
        ("1e-3\nabc\n", "could not convert string to float"),
        ("k,t_k,tau_k,rho_k\n0,zero,,\n1,one,1,\n",
         "could not convert string to float"),
        ("k,t_k\n0\n1\n", "every row needs a t_k column"),
        ("\n\n", "the file is empty"),
    ], ids=["step-file-inf", "mesh-csv-inf", "mesh-csv-decreasing",
            "step-file-negative", "step-file-not-a-number",
            "mesh-csv-not-a-number", "mesh-csv-no-node-column", "empty"])
    def test_rejected_mesh_file_exits_2_before_output(
            self, tmp_path, capsys, argv, content, message):
        mesh_file = tmp_path / "in" / "steps.txt"
        mesh_file.parent.mkdir()
        mesh_file.write_text(content)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(argv + ["--mesh", str(mesh_file), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: mesh file ")
        assert message in err
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["tfch-run", "--alpha", "0.5", "--N", "0", "--M", "8"],
     "N must be a positive integer"),
    (["tfch-run", "--alpha", "0.5", "--N", "8", "--M", "8", "--T", "inf"],
     "T must be finite and positive"),
    (["mesh", "--N", "5", "--T", "-1"], "T must be finite and positive"),
    (["mesh", "--N", "5", "--T", "inf"], "T must be finite and positive"),
    (["mesh", "--mesh", "uniform", "--N", "0"],
     "N must be a positive integer"),
], ids=["run-N", "run-T-inf", "mesh-T-negative", "mesh-T-inf",
        "uniform-N"])
def test_bad_built_mesh_flags_exit_2_before_output(tmp_path, capsys, argv,
                                                   message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    assert "usage error: " + message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestCaputoConvergence:
    def test_small_table(self, tmp_path, capsys):
        rc = _run(["caputo-convergence", "--alphas", "0.5", "--Ns", "8,16",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = _read(tmp_path / "caputo_convergence.csv").strip().split("\n")
        assert lines[0] == "alpha,N,error,order"
        assert len(lines) == 3
        r8 = lines[1].split(",")
        r16 = lines[2].split(",")
        assert r8[3] == "" and float(r16[3]) > 1.5
        assert float(r16[2]) < float(r8[2])
        assert "alpha" in capsys.readouterr().out

    def test_builds_each_mesh_once(self, tmp_path, monkeypatch):
        built = []
        real = temporal_mesh.build_graded_cubic

        def spy(N, T):
            built.append(N)
            return real(N, T)

        monkeypatch.setattr(temporal_mesh, "build_graded_cubic", spy)
        assert _run(["caputo-convergence", "--alphas", "0.3,0.5",
                     "--Ns", "8,16", "--out", str(tmp_path)]) == 0
        assert built == [8, 16]


class TestTfchRun:
    def test_requires_alpha(self, tmp_path):
        assert _run(["tfch-run", "--out", str(tmp_path)]) == 2

    def test_outputs_and_notes(self, tmp_path, capsys):
        rc = _run(["tfch-run", "--alpha", "0.5", "--N", "12", "--M", "8",
                   "--out", str(tmp_path)])
        assert rc == 0
        for name in ("energy.csv", "mass.csv", "validators.csv",
                     "terminal_state.csv", "run_meta.txt"):
            assert (tmp_path / name).exists()
        v_lines = _read(tmp_path / "validators.csv").strip().split("\n")
        assert v_lines[0] == "kind,violations,first_level"
        kinds = [l.split(",")[0] for l in v_lines[1:]]
        assert kinds == ["energy", "first_step", "lipschitz", "solvability"]
        meta = _read(tmp_path / "run_meta.txt")
        assert "note: max mass drift" in meta
        assert "note: iterations total=" in meta
        assert "max mass drift" in capsys.readouterr().out
        t_lines = _read(tmp_path / "terminal_state.csv").strip().split("\n")
        assert t_lines[0] == "x,u"
        assert len(t_lines) == 10

    def test_builds_each_kernel_row_once(self, tmp_path, monkeypatch):
        # one march gives each level's row to the step and the energy: the
        # history entries (k < n) of N levels number N(N-1)/2
        entries = []
        history = caputo_l2._cd_history

        def counting(a, *args):
            entries.append(a.size)
            return history(a, *args)

        monkeypatch.setattr(caputo_l2, "_cd_history", counting)
        N = 30
        assert _run(["tfch-run", "--alpha", "0.5", "--N", str(N), "--M", "8",
                     "--out", str(tmp_path)]) == 0
        assert sum(entries) == N * (N - 1) // 2

    def test_negative_dump_states_exits_2_before_output(self, tmp_path,
                                                        capsys):
        rc = _run(["tfch-run", "--alpha", "0.5", "--N", "12", "--M", "8",
                   "--dump-states", "-3", "--out", str(tmp_path)])
        assert rc == 2
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out == ""

    def test_dump_states(self, tmp_path):
        rc = _run(["tfch-run", "--alpha", "0.5", "--N", "12", "--M", "8",
                   "--dump-states", "5", "--out", str(tmp_path)])
        assert rc == 0
        names = sorted(p.name for p in tmp_path.glob("state_*.csv"))
        assert names == ["state_0000.csv", "state_0005.csv",
                         "state_0010.csv"]
        # each file is the closed grid beside the level's interior values
        # and the two zero boundary values, at 17 digits
        cfg = SolverConfig(alpha=0.5, kappa=0.01, epsilon=0.1,
                           mesh=temporal_mesh.build_graded_cubic(12, 1.0),
                           M=8, initial=quartic_bump)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            U = solve(cfg).U
        x = np.linspace(0.0, 1.0, 9)
        for name, n in [("state_0000.csv", 0), ("state_0005.csv", 5),
                        ("state_0010.csv", 10), ("terminal_state.csv", 12)]:
            want = "x,u\n" + "".join("%.17g,%.17g\n" % cells for cells
                                     in zip(x, np.pad(U[n], 1)))
            assert _read(tmp_path / name) == want, name

    @pytest.mark.parametrize("flag, field, value", [
        ("--tol", "iteration_tol", "nan"),
        ("--kappa", "kappa", "nan"),
        ("--epsilon", "epsilon", "inf"),
    ])
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, flag,
                                          field, value):
        out = tmp_path / "out"
        assert _run(["tfch-run", "--alpha", "0.5", "--N", "8", flag, value,
                     "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


class TestRelaxedRatioBand:
    """tfch-run on a mesh file whose ratios reach into the band
    (4.660, rho_star(alpha)] that the relaxed threshold admits."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.82265])
    def test_modified_energy_dissipates(self, tmp_path, alpha,
                                        band_jump_steps):
        steps = band_jump_steps(alpha)
        assert (steps[1:] / steps[:-1]).max() > 4.660
        mesh_file = tmp_path / "steps.txt"
        mesh_file.write_text("".join("%.17g\n" % s for s in steps))
        rc = _run(["tfch-run", "--mesh", str(mesh_file), "--M", "64",
                   "--kappa", "0.01", "--epsilon", "0.1",
                   "--alpha", repr(alpha), "--out", str(tmp_path)])
        assert rc == 0
        validators = _read(tmp_path / "validators.csv").strip().split("\n")
        assert "energy,0," in validators
        rows = [line.split(",")
                for line in _read(tmp_path / "energy.csv").split()[1:]]
        assert len(rows) == steps.size + 1
        em = np.array([float(r[3]) for r in rows[1:]])
        # criterion 3's allowance, unchanged
        gaps = em[1:] - em[:-1] - 1e-12 * np.maximum(1.0, np.abs(em[:-1]))
        assert gaps.max() <= 0.0


class TestTfchConvergence:
    def test_reference_must_be_finer(self, tmp_path):
        assert _run(["tfch-convergence", "--alphas", "0.5", "--Ns", "6,8",
                     "--N0", "8", "--M", "8", "--out", str(tmp_path)]) == 2

    def test_table_and_rerun_is_byte_identical(self, tmp_path):
        argv = ["tfch-convergence", "--alphas", "0.3,0.5", "--Ns", "6,8",
                "--N0", "12", "--M", "8", "--out", str(tmp_path)]
        assert _run(argv) == 0
        first = _read(tmp_path / "tfch_convergence.csv")
        lines = first.strip().split("\n")
        assert lines[0] == "alpha,N,error,order"
        assert len(lines) == 5
        assert _run(argv) == 0
        assert _read(tmp_path / "tfch_convergence.csv") == first


class TestManufactured:
    def test_tiny_sweep(self, tmp_path):
        rc = _run(["manufactured", "--alphas", "0.5", "--Ns", "12",
                   "--M", "8", "--out", str(tmp_path)])
        assert rc == 0
        detail = _read(tmp_path / "manufactured_N12.csv").strip().split("\n")
        assert detail[0] == "alpha,x,exact,numeric,abs_error"
        assert len(detail) == 10
        mid = detail[5].split(",")
        assert float(mid[1]) == 0.5
        # 0.5^8 * 1.0^(3+alpha): exact dyadic value survives the format
        assert mid[2] == "0.00390625"
        summary = _read(tmp_path / "summary_N12.csv").strip().split("\n")
        assert summary[0] == "alpha,max_error"
        alpha, max_err = summary[1].split(",")
        assert float(alpha) == 0.5
        errs = np.array([float(l.split(",")[4]) for l in detail[1:]])
        assert float(max_err) == pytest.approx(errs.max(), rel=1e-15)


class TestEveryMarchCallsSolve:
    @pytest.mark.parametrize("argv, calls", [
        (["tfch-convergence", "--alphas", "0.5", "--Ns", "6,8", "--N0", "10",
          "--M", "8"], 3),
        (["manufactured", "--alphas", "0.5,0.7", "--Ns", "8", "--M", "8"], 2),
    ], ids=["tfch-convergence", "manufactured"])
    def test_states_only_commands_march_through_solve(
            self, tmp_path, monkeypatch, argv, calls):
        # cli.solve is the global a tracer rebinds (bench/spans.py): the
        # commands that read only U[-1] take the same path as tfch-run
        histories = []

        def counting(config):
            histories.append(solve(config))
            return histories[-1]

        monkeypatch.setattr(cli, "solve", counting)
        assert _run(argv + ["--out", str(tmp_path)]) == 0
        assert len(histories) == calls
        for history in histories:
            assert not history.history_terms.flags.writeable


class TestVerifySubcommand:
    def test_battery_passes(self, tmp_path, capsys):
        # run_meta.txt is verify's only output, so it creates --out
        out_dir = tmp_path / "out"
        rc = _run(["verify", "--out", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out
        meta = _read(out_dir / "run_meta.txt")
        assert meta.count("note: ") >= 10
        assert "PASS" in meta

    def test_writes_nothing_without_out(self, tmp_path, monkeypatch, capsys):
        # the results go to standard output; with no --out there is no
        # directory to put run_meta.txt in, so none is written
        monkeypatch.chdir(tmp_path)
        assert _run(["verify"]) == 0
        assert "checks passed" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestResolutionLists:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("argv", [
        ["caputo-convergence", "--alphas", "0.5"],
        ["tfch-convergence", "--alphas", "0.5", "--N0", "8", "--M", "8"],
        ["manufactured", "--alphas", "0.5", "--M", "8"],
    ], ids=lambda argv: argv[0])
    def test_repeated_N_exits_2_before_output(self, tmp_path, capsys, argv,
                                              source):
        out = tmp_path / "out"
        if source == "flag":
            argv = argv + ["--Ns", "6,6"]
        else:
            (tmp_path / "run.conf").write_text("Ns = 6,6\n")
            argv = argv + ["--config", str(tmp_path / "run.conf")]
        assert _exit_code(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().out == ""


class TestSweepLists:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("bad", [
        ("alphas", "0.5,1.5"), ("alphas", "0"), ("Ns", "0,6"),
    ], ids=lambda bad: "%s=%s" % bad)
    @pytest.mark.parametrize("argv", [
        ["caputo-convergence"],
        ["tfch-convergence", "--N0", "8", "--M", "8"],
        ["manufactured", "--M", "8"],
    ], ids=lambda argv: argv[0])
    def test_out_of_range_entry_exits_2_before_output(self, tmp_path, capsys,
                                                      argv, bad, source):
        # an alpha outside (0,1) or an N below 1 is refused while parsing,
        # before a table header, a row or a CSV is written
        lists = {"alphas": "0.5", "Ns": "4,6"}
        key, value = bad
        del lists[key]
        if source == "flag":
            argv = argv + ["--" + key, value]
        else:
            (tmp_path / "run.conf").write_text("%s = %s\n" % bad)
            argv = argv + ["--config", str(tmp_path / "run.conf")]
        for flag, good in lists.items():
            argv = argv + ["--" + flag, good]
        out = tmp_path / "out"
        assert _exit_code(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["tfch-run", "--alpha", "0.5", "--N", "10", "--M", "3"],
     "M must be at least 4"),
    (["tfch-run", "--alpha", "0.5", "--N", "10", "--kappa", "-1"],
     "kappa and epsilon must be positive"),
    (["tfch-run", "--alpha", "0.5", "--N", "10", "--tol", "0"],
     "iteration_tol must be positive"),
    (["tfch-run", "--alpha", "0.5", "--N", "10", "--max-iterations", "0"],
     "max_iterations must be at least 1"),
    (["tfch-run", "--alpha", "1.5", "--N", "10"], "alpha must lie in (0,1)"),
    (["tfch-convergence", "--alphas", "0.5", "--Ns", "6", "--N0", "8",
      "--M", "2"], "M must be at least 4"),
    (["tfch-convergence", "--alphas", "0.5", "--Ns", "6", "--N0", "8",
      "--M", "8", "--T", "0"], "T must be finite and positive"),
    (["caputo-convergence", "--alphas", "0.5", "--Ns", "8", "--T", "-1"],
     "T must be finite and positive"),
    (["manufactured", "--alphas", "0.5", "--Ns", "8", "--M", "8",
      "--T", "-2"], "T must be finite and positive"),
    (["manufactured", "--alphas", "0.5", "--Ns", "8", "--M", "3"],
     "M must be at least 4"),
], ids=["run-M", "run-kappa", "run-tol", "run-max-iterations", "run-alpha",
        "convergence-M", "convergence-T", "caputo-T", "manufactured-T",
        "manufactured-M"])
def test_bad_solver_flag_values_exit_2_before_output(tmp_path, capsys, argv,
                                                     message):
    # SolverConfig's and the mesh builders' own checks, reported as usage
    # errors before a table header, a row or a file is written
    out = tmp_path / "out"
    rc = _run(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "usage error: " + message in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["mesh", "--alpha", "1e-300", "--N", "8"],
    ["mesh", "--alpha", "9e-16", "--N", "8", "--kernel-level", "3"],
    ["tfch-run", "--alpha", "1e-300", "--N", "8", "--M", "8"],
    ["tfch-convergence", "--alphas", "0.5,1e-300", "--Ns", "6", "--N0", "8",
     "--M", "8"],
    ["manufactured", "--alphas", "0.5,1e-300", "--Ns", "8,16", "--M", "8"],
], ids=["mesh", "mesh-kernel-row", "tfch-run", "tfch-convergence",
        "manufactured"])
def test_alpha_below_the_rho_star_floor_exits_2_before_output(
        tmp_path, capsys, argv):
    # rho_star refuses an alpha below its floor, and every subcommand that
    # checks step ratios against it reports that before any output
    out = tmp_path / "out"
    rc = _run(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("usage error:")
    assert repr(caputo_l2._RHO_STAR_ALPHA_MIN) in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_exits_2_before_output(tmp_path, capsys, source):
    out = tmp_path / "out"
    if source == "flag":
        argv = ["verify", "--seed", "-1"]
    else:
        (tmp_path / "run.conf").write_text("seed = -1\n")
        argv = ["verify", "--config", str(tmp_path / "run.conf")]
    assert _exit_code(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


class TestConfigFiles:
    def test_defaults_apply_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("alpha = 0.5\nN = 10\nM = 8\n# comment\n\n"
                       "max-iterations = 400\n")
        out = tmp_path / "out"
        rc = _run(["tfch-run", "--config", str(cfg), "--M", "10",
                   "--out", str(out)])
        assert rc == 0
        meta = _read(out / "run_meta.txt")
        assert "alpha: 0.5\n" in meta
        assert "N: 10\n" in meta
        assert "M: 10\n" in meta
        assert "max_iterations: 400\n" in meta

    def test_unknown_key_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("bogus = 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["tfch-run", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_malformed_line_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("alpha 0.5\n")
        assert _run(["tfch-run", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    def test_missing_config_file_is_a_usage_error(self, tmp_path):
        assert _run(["tfch-run", "--config", str(tmp_path / "absent.conf"),
                     "--out", str(tmp_path)]) == 2

    def test_bad_config_value_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("M = abc\n")
        assert _run(["tfch-run", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config key 'M'" in err

    @pytest.mark.parametrize("word, written", [("yes", True), ("ON", True),
                                               ("off", False), ("0", False)])
    def test_switch_words(self, tmp_path, word, written):
        cfg = tmp_path / "run.conf"
        cfg.write_text("q3 = %s\n" % word)
        out = tmp_path / "out"
        assert _run(["rho-star", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "rho_star.csv").exists()
        assert (out / "q3_curves.csv").exists() == written

    def test_misspelt_switch_is_a_usage_error(self, tmp_path, capsys):
        # a word outside 1/true/yes/on and 0/false/no/off once read as False
        cfg = tmp_path / "run.conf"
        cfg.write_text("q3 = ture\n")
        out = tmp_path / "out"
        assert _run(["rho-star", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config key 'q3'" in capsys.readouterr().err
        assert not out.exists()
