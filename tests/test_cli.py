import json

import numpy as np
import pytest
import scipy.sparse as sps

from amgforge import cli, io_mm, problems, sparse
from amgforge.cli import EXIT_NONCONVERGENCE, EXIT_OK, EXIT_USAGE, load_config, main


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


class TestGenerate:
    def test_fd5_n2_file_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "a.mtx"
        code = main(["generate", "--kind", "fd5", "--n", "2", "--out", str(out)])
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
        code = main(["generate", "--kind", "fd5", "--n", "0", "--out", str(out)])
        assert code == EXIT_USAGE

    def test_byte_identical_reruns(self, tmp_path):
        o1, o2 = tmp_path / "r1.mtx", tmp_path / "r2.mtx"
        for out in (o1, o2):
            assert main(["generate", "--kind", "fe_aniso", "--n", "3",
                         "--epsilon", "0.01", "--out", str(out)]) == EXIT_OK
        assert o1.read_bytes() == o2.read_bytes()


class TestSolve:
    def test_poisson_converges_quickly(self, tmp_path, capsys):
        out = tmp_path / "a.mtx"
        main(["generate", "--kind", "fd5", "--n", "31", "--out", str(out)])
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

    def test_singular_system_auto_kernel(self, tmp_path, capsys):
        out = tmp_path / "n.mtx"
        main(["generate", "--kind", "fd5", "--n", "6", "--bc", "neumann",
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

    def test_csv_mode(self, tmp_path, capsys):
        out = tmp_path / "a.mtx"
        main(["generate", "--kind", "fd5", "--n", "8", "--out", str(out)])
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

    def test_cap_refused(self, capsys):
        code = main(["analyze", "--set", "kind=fd5", "--set", "n=60"])
        assert code == EXIT_USAGE
        assert "cap" in capsys.readouterr().err


class TestAdapt:
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
    out = tmp_path / "a.mtx"
    main(["generate", "--kind", "fd5", "--n", "4", "--out", str(out)])
    code = main(["solve", "--matrix", str(out), "--rhs", str(out),
                 "--manufactured"])
    assert code == EXIT_USAGE
