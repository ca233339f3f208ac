import json

import numpy as np
import pytest
import scipy.sparse as sps

from amgforge import cli, hierarchy, io_mm, problems, sparse
from amgforge.cli import (EXIT_INTERNAL, EXIT_NONCONVERGENCE, EXIT_OK, EXIT_USAGE,
                          load_config, main)
from tests_support import refuse_dense_eigh_beyond_cap


class TestConfig:
    def test_defaults_materialized(self):
        cfg = load_config()
        assert cfg["theta"] == 0.25 and cfg["smoother"] == "gs"

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta = 0.5  # loose\nsmoother=jacobi\n\n")
        cfg = load_config(path, ["theta=0.3"])
        assert cfg["smoother"] == "jacobi"
        assert cfg["theta"] == 0.3  # command line wins

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("smother=gs\n")
        with pytest.raises(cli.UsageError, match="unknown config key"):
            load_config(path)

    def test_type_coercion_errors(self):
        with pytest.raises(cli.UsageError):
            load_config(None, ["n=many"])

    def test_n_c_is_not_a_key(self, tmp_path, capsys):
        out = tmp_path / "a.mtx"
        io_mm.write_matrix_market(out, problems.fd_poisson_5pt(4))
        assert main(["solve", "--matrix", str(out), "--set", "n_c=7"]) == EXIT_USAGE
        assert "unknown config key 'n_c'" in capsys.readouterr().err


class TestGenerate:
    def test_fd5_n2_file_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "a.mtx"
        code = main(["generate", "--set", "kind=fd5", "--set", "n=2",
                     "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_text().splitlines()
        n_entries = int(text[1].split()[2])
        assert n_entries == 8  # 4 diagonal + 4 lower-triangle couplings
        meta = json.loads((tmp_path / "a.mtx.meta.json").read_text())
        assert meta["kind"] == "fd5" and meta["n"] == 2 and meta["nnz"] == 12
        back = io_mm.read_matrix_market(out)
        assert np.array_equal(back.toarray(), problems.fd_poisson_5pt(2).toarray())

    def test_invalid_n_is_usage_error(self, tmp_path):
        out = tmp_path / "x.mtx"
        code = main(["generate", "--set", "kind=fd5", "--set", "n=0",
                     "--out", str(out)])
        assert code == EXIT_USAGE

    def test_byte_identical_reruns(self, tmp_path):
        o1, o2 = tmp_path / "r1.mtx", tmp_path / "r2.mtx"
        for out in (o1, o2):
            assert main(["generate", "--set", "kind=fe_aniso", "--set", "n=3",
                         "--set", "epsilon=0.01", "--out", str(out)]) == EXIT_OK
        assert o1.read_bytes() == o2.read_bytes()


class TestSolve:
    def test_poisson_converges_quickly(self, tmp_path, capsys):
        out = tmp_path / "a.mtx"
        main(["generate", "--set", "kind=fd5", "--set", "n=31", "--out", str(out)])
        capsys.readouterr()
        code = main(["solve", "--matrix", str(out),
                     "--set", "interpolation=standard"])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        iterations = int([ln for ln in captured.splitlines()
                          if ln.startswith("iterations=")][0]
                         .split()[0].split("=")[1])
        assert iterations <= 20
        assert "# config theta=0.25" in captured

    def test_symmetric_matrix_in_general_format(self, tmp_path, capsys):
        a = problems.fd_poisson_5pt(16)
        sym, gen = tmp_path / "s.mtx", tmp_path / "g.mtx"
        io_mm.write_matrix_market(sym, a)
        io_mm.write_matrix_market(gen, sparse.SparseMatrix(a.mat, sparse.GENERAL))
        assert "real general" in gen.read_text().splitlines()[0]
        iterations = []
        for path in (sym, gen):
            code = main(["solve", "--matrix", str(path)])
            captured = capsys.readouterr()
            assert code == EXIT_OK, captured.err
            last = captured.out.splitlines()[-1]
            iterations.append(last.split()[0])
        assert iterations[0] == iterations[1]

    def test_scaled_matrix_takes_the_unscaled_iterations(self, tmp_path, capsys):
        # at 2^996 (about 1e300) the residual norms no longer overflow: the
        # solve takes the unscaled iterations, not one step to "converged"
        a = problems.fd_poisson_5pt(12)
        summaries = []
        for k in (0, 996):
            path = tmp_path / f"a{k}.mtx"
            io_mm.write_matrix_market(path, sparse.from_scipy(a.mat * 2.0**k, sparse.SYMMETRIC))
            code = main(["solve", "--matrix", str(path)])
            captured = capsys.readouterr()
            assert code == EXIT_OK, captured.err
            summaries.append(captured.out.splitlines()[-1].split()[:3])
        assert summaries[0] == summaries[1]
        assert summaries[1][1] == "converged=True"

    def test_singular_system_auto_kernel(self, tmp_path, capsys):
        out = tmp_path / "n.mtx"
        main(["generate", "--set", "kind=fd5", "--set", "n=6", "--set", "bc=neumann",
              "--out", str(out)])
        capsys.readouterr()
        code = main(["solve", "--matrix", str(out), "--set", "n0=10"])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert "constant-kernel" in captured

    def test_bad_header_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%NotAMatrix\n1 1 1\n1 1 1.0\n")
        code = main(["solve", "--matrix", str(bad)])
        assert code == EXIT_USAGE
        assert "line 1" in capsys.readouterr().err

    def test_stagnating_setup_is_not_internal_error(self, tmp_path, capsys):
        out = tmp_path / "diag.mtx"
        diag = sps.diags(np.arange(1.0, 61.0)).tocsr()
        io_mm.write_matrix_market(out, sparse.from_scipy(diag, sparse.SYMMETRIC))
        code = main(["solve", "--matrix", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_NONCONVERGENCE
        assert "internal error" not in err
        assert "level 0" in err and "coarsening" in err and "theta" in err

    def test_interpolation_failure_is_setup_error(self, tmp_path, capsys):
        out = tmp_path / "aniso.mtx"
        main(["generate", "--set", "kind=fe_aniso", "--set", "n=20",
              "--set", "epsilon=1e-3", "--out", str(out)])
        capsys.readouterr()
        code = main(["solve", "--matrix", str(out), "--set", "coarsening=aggressive",
                     "--set", "interpolation=direct"])
        err = capsys.readouterr().err
        assert code == EXIT_NONCONVERGENCE
        assert "fine row" in err and "coarsening" in err and "theta" in err

    def test_supports_without_private_vertex_are_setup_error(self, tmp_path, capsys):
        # pairwise aggregates of two extended by their strong neighbors leave
        # some support inside the union of the others
        out = tmp_path / "fd5.mtx"
        io_mm.write_matrix_market(out, problems.fd_poisson_5pt(8))
        code = main(["solve", "--matrix", str(out), "--set", "coarsening=pairwise",
                     "--set", "interpolation=energymin"])
        err = capsys.readouterr().err
        assert code == EXIT_NONCONVERGENCE
        assert "contained in the union of the others" in err and "coarsening" in err

    def test_line_gs_multilevel_is_setup_error(self, tmp_path, capsys):
        out = tmp_path / "aniso.mtx"
        main(["generate", "--set", "kind=fe_aniso", "--set", "n=32",
              "--set", "epsilon=1e-3", "--out", str(out)])
        capsys.readouterr()
        code = main(["solve", "--matrix", str(out), "--set", "smoother=line-gs"])
        err = capsys.readouterr().err
        assert code == EXIT_NONCONVERGENCE
        assert "smoother=line-gs" in err and "no grid lines" in err
        assert "coarsening=" not in err and "theta" not in err

    def test_singular_coarsest_beyond_cap_is_setup_error(self, tmp_path, monkeypatch,
                                                         capsys):
        refuse_dense_eigh_beyond_cap(monkeypatch)
        out = tmp_path / "neumann.mtx"
        io_mm.write_matrix_market(out, problems.fd_poisson_5pt(100, "neumann"))
        code = main(["solve", "--matrix", str(out), "--set", "max_levels=2"])
        err = capsys.readouterr().err
        assert code == EXIT_NONCONVERGENCE
        assert "setup failed" in err and "coarsest matrix is singular" in err

    def test_linalg_error_is_internal_error(self, tmp_path, monkeypatch, capsys):
        # LinAlgError is a ValueError, but a failed factorization inside the
        # library is no usage error
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(hierarchy, "setup", fail)
        out = tmp_path / "a.mtx"
        io_mm.write_matrix_market(out, problems.fd_poisson_5pt(4))
        code = main(["solve", "--matrix", str(out)])
        assert code == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err

    def test_non_finite_matrix_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "nan.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n"
                       "2 2 2\n1 1 nan\n2 2 1.0\n")
        code = main(["solve", "--matrix", str(bad)])
        assert code == EXIT_USAGE
        assert "non-finite" in capsys.readouterr().err

    def test_rhs_length_mismatch_refused_before_setup(self, tmp_path, capsys):
        out, rhs = tmp_path / "a.mtx", tmp_path / "b.mtx"
        main(["generate", "--set", "kind=fd5", "--set", "n=4", "--out", str(out)])
        io_mm.write_vector(rhs, np.ones(3))
        capsys.readouterr()
        code = main(["solve", "--matrix", str(out), "--rhs", str(rhs)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "right-hand side has 3 entries; the matrix has 16 rows" in captured.err
        assert "# levels=" not in captured.out

    def test_coordinate_rhs_refused(self, tmp_path, capsys):
        out = tmp_path / "a.mtx"
        main(["generate", "--set", "kind=fd5", "--set", "n=4", "--out", str(out)])
        capsys.readouterr()
        code = main(["solve", "--matrix", str(out), "--rhs", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "right-hand side file does not hold an array-format vector" in captured.err
        assert "# levels=" not in captured.out

    def test_csv_mode(self, tmp_path, capsys):
        out = tmp_path / "a.mtx"
        main(["generate", "--set", "kind=fd5", "--set", "n=8", "--out", str(out)])
        capsys.readouterr()
        assert main(["solve", "--matrix", str(out), "--csv",
                     "--set", "n0=20"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "iteration,residual" in lines


class TestAnalyze:
    def test_rate_identity_rows(self, capsys):
        code = main(["analyze", "--set", "kind=fd5", "--set", "n=4", "--csv"])
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        header = [ln for ln in out if ln.startswith("builder,")][0]
        assert header.split(",")[:3] == ["builder", "n", "n_c"]
        rows = [ln for ln in out if ln and not ln.startswith(("#", "builder"))]
        assert len(rows) >= 6
        for row in rows:
            gap = float(row.split(",")[-1])
            assert gap <= 1e-7

    def test_plain_table_matches_csv(self, capsys):
        args = ["analyze", "--set", "kind=fd5", "--set", "n=4"]
        assert main(args) == EXIT_OK
        plain = [ln.split() for ln in capsys.readouterr().out.splitlines()
                 if ln and not ln.startswith("#")]
        assert main(args + ["--csv"]) == EXIT_OK
        csv = [ln.split(",") for ln in capsys.readouterr().out.splitlines()
               if ln and not ln.startswith("#")]
        assert plain[0] == ["builder", "n", "n_c", "|E|_A^2", "1-1/K", "1-mu", "gap"]
        assert len(plain) == len(csv) >= 7
        for row, want in zip(plain[1:], csv[1:]):
            assert row[:3] == want[:3]
            # the table prints 8 digits where the csv prints 10, and the gap in 3
            for got, value in zip(row[3:6], want[3:6]):
                assert abs(float(got) - float(value)) <= 5e-9
            assert float(row[6]) == pytest.approx(float(want[6]), rel=1e-2, abs=1e-300)

    @staticmethod
    def e_norm_sq(capsys, builder, *sets):
        args = ["analyze", "--csv", "--set", f"interpolation={builder}"]
        for item in sets:
            args += ["--set", item]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        return [ln for ln in out if ln.startswith(f"{builder},")][0].split(",")[3]

    def test_sa_nu_reaches_builder(self, capsys):
        assert (self.e_norm_sq(capsys, "sa", "sa_nu=2")
                != self.e_norm_sq(capsys, "sa", "sa_nu=1"))

    def test_emin_tol_reaches_builder(self, capsys):
        assert (self.e_norm_sq(capsys, "energymin", "emin_tol=1e-8")
                != self.e_norm_sq(capsys, "energymin"))

    def test_direction_reaches_smoother(self, capsys):
        aniso = ("kind=fe_aniso", "n=12", "epsilon=1e-3", "smoother=line-gs")
        assert (self.e_norm_sq(capsys, "ua", *aniso, "direction=x")
                != self.e_norm_sq(capsys, "ua", *aniso, "direction=y"))

    def test_loose_emin_tol_is_not_internal_error(self, capsys):
        code = main(["analyze", "--set", "interpolation=energymin",
                     "--set", "emin_tol=1e-6"])
        err = capsys.readouterr().err
        assert code == EXIT_NONCONVERGENCE
        assert "emin_tol" in err and "internal error" not in err

    @pytest.mark.parametrize("where", ["command line", "config file"])
    def test_direct_interpolation_runs_alone(self, where, tmp_path, capsys):
        # direct is also the default value; only an unset key runs the gallery
        args = ["analyze", "--csv", "--set", "kind=fd5", "--set", "n=6"]
        if where == "config file":
            path = tmp_path / "run.cfg"
            path.write_text("interpolation = direct\n")
            args += ["--config", str(path)]
        else:
            args += ["--set", "interpolation=direct"]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        rows = [ln for ln in out if ln and not ln.startswith(("#", "builder"))]
        assert [row.split(",")[0] for row in rows] == ["direct"]

    def test_cap_refused(self, capsys):
        code = main(["analyze", "--set", "kind=fd5", "--set", "n=60"])
        assert code == EXIT_USAGE
        assert "cap" in capsys.readouterr().err


class TestAdapt:
    def test_line_gs_on_coarse_level_is_setup_error(self, capsys):
        code = main(["adapt", "--set", "kind=fd5", "--set", "n=32",
                     "--set", "smoother=line-gs"])
        err = capsys.readouterr().err
        assert code == EXIT_NONCONVERGENCE
        assert "smoother=line-gs" in err and "no grid lines" in err
        assert "coarsening=" not in err and "theta" not in err

    def test_theta_reaches_bootstrap(self, capsys):
        finals = []
        for theta in ("0.25", "0.9"):
            code = main(["adapt", "--set", "kind=fe_jump", "--set", "n=20",
                         "--set", "epsilon=1e-3", "--set", f"theta={theta}"])
            out = capsys.readouterr().out
            assert code == EXIT_OK
            finals.append(out.splitlines()[-1])
        assert finals[0] != finals[1]

    def test_delta_history_emitted(self, capsys):
        code = main(["adapt", "--set", "kind=fd5", "--set", "n=8",
                     "--set", "m0=4", "--set", "n0=20", "--csv"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "round,delta" in out
        deltas = [float(ln.split(",")[1]) for ln in out.splitlines()
                  if ln and ln[0].isdigit()]
        assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))


def test_usage_exit_code():
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["solve"]) == EXIT_USAGE  # missing required --matrix


def test_analyze_singular_problem(capsys):
    code = main(["analyze", "--set", "kind=graph_laplacian", "--set", "n=15",
                 "--set", "interpolation=ideal", "--csv"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    row = [ln for ln in out.splitlines() if ln.startswith("ideal,")][0]
    assert float(row.split(",")[-1]) <= 1e-7


def test_solve_rhs_and_manufactured_conflict(tmp_path, capsys):
    # without --rhs the right-hand side is manufactured; there is no flag
    # that asks for it, so none can conflict with --rhs
    out = tmp_path / "a.mtx"
    main(["generate", "--set", "kind=fd5", "--set", "n=4", "--out", str(out)])
    code = main(["solve", "--matrix", str(out), "--rhs", str(out),
                 "--manufactured"])
    assert code == EXIT_USAGE
    assert "unrecognized arguments: --manufactured" in capsys.readouterr().err


def test_small_scale_nonsingular_matrix_is_not_read_as_singular(tmp_path, capsys):
    # the kernel test is relative to max|a_ij|: at 2^-100 every fd5 row sum
    # is below an absolute 1e-12, and a projection onto the constants'
    # complement would solve another system
    a = problems.fd_poisson_5pt(12)
    path = tmp_path / "small.mtx"
    io_mm.write_matrix_market(path, sparse.from_scipy(a.mat * 2.0**-100, sparse.SYMMETRIC))
    code = main(["solve", "--matrix", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "singular system detected" not in out
    assert "converged=True" in out.splitlines()[-1]


def _negative_fd5():
    return sparse.from_scipy(-problems.fd_poisson_5pt(12).mat, sparse.SYMMETRIC)


def _tiny_jump():
    a = problems.fe_jump_coefficient(48, 1e-6)[0]
    return sparse.from_scipy(a.mat * 2.0**-1000, sparse.SYMMETRIC)


@pytest.mark.parametrize("make, message", [
    # SA's omega estimate meets a negative D-norm
    (_negative_fd5, "needs a D inner product"),
    # omega / a_ii overflows on a coarse level of a tiny-scaled matrix
    (_tiny_jump, "SA damping omega / a_ii is not finite"),
])
def test_non_finite_sa_damping_is_setup_error(make, message, tmp_path, capsys):
    # a failure the library makes is no fault of the input's values
    path = tmp_path / "a.mtx"
    io_mm.write_matrix_market(path, make())
    code = main(["solve", "--matrix", str(path), "--set", "coarsening=aggregate",
                 "--set", "interpolation=sa"])
    err = capsys.readouterr().err
    assert code == EXIT_NONCONVERGENCE
    assert "setup failed" in err and message in err and "non-finite" not in err


@pytest.mark.parametrize("argv, config, message", [
    (["--set", "cr=maybe"], None, "key 'cr' expects a boolean, got 'maybe'"),
    (["--set", "theta"], None, "--set expects key=value, got 'theta'"),
    ([], "theta = 0.3\nsmoother\n", ":2: expected key=value"),
])
def test_malformed_config_is_usage_error(argv, config, message, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    assert main(["analyze", *argv]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, value", [("yes", True), ("on", True), ("1", True),
                                         ("no", False), ("off", False), ("FALSE", False)])
def test_boolean_config_words(text, value):
    assert load_config(overrides=[f"cr={text}"])["cr"] is value


def test_declared_kernel_skips_detection(tmp_path, capsys):
    path = tmp_path / "n.mtx"
    io_mm.write_matrix_market(path, problems.fd_poisson_5pt(8, "neumann"))
    code = main(["solve", "--matrix", str(path), "--kernel", "constants", "--set", "n0=20"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "singular system detected" not in out
    assert "converged=True" in out.splitlines()[-1]
