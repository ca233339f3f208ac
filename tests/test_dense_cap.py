"""The dense cap's one refusal: every dense oracle beyond ``DENSE_CAP`` raises
the same ValueError, from ``linalg``, before it forms any dense array."""

import numpy as np
import pytest

from amgforge import adaptive, analysis, hierarchy, interpolation, problems, smoothers, sparse
from amgforge.cli import EXIT_USAGE, main
from amgforge.coarsening import CFSplitting
from amgforge.linalg import DENSE_CAP
from tests_support import refuse_dense_eigh_beyond_cap


def _raised(call, *args):
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


def _ideal(capsys):
    n = 2 * DENSE_CAP + 3  # odd points coarse: 2002 fine points
    split = CFSplitting(np.arange(n) % 2 == 1)
    return _raised(interpolation.ideal_interpolation, problems.laplace_1d(n), split), 2002


def _weyl(capsys):
    return _raised(analysis.weyl_ratio, problems.fd_poisson_5pt(45), 2), 2025


def _additive(capsys):
    return _raised(analysis.additive_condition, problems.fd_poisson_5pt(45),
                   np.ones((2025, 1))), 2025


def _k_of_vc(capsys):
    a = problems.fd_poisson_5pt(45)
    rbar = smoothers.symmetrize(smoothers.GaussSeidel(a))
    return _raised(analysis.k_of_vc, a, rbar, np.ones((2025, 1))), 2025


def _convergence_bound(capsys):
    a = problems.fd_poisson_5pt(45)
    singletons = smoothers.SubspaceCorrection(a, [[i] for i in range(a.n_rows)])
    return _raised(smoothers.convergence_bound, singletons), 2025


def _mge(capsys):
    h = hierarchy.setup(problems.fd_poisson_5pt(46), {"max_levels": 1})
    return _raised(adaptive.mge_eigensolve, h, 1), 2116


def _analyze(capsys):
    assert main(["analyze", "--set", "kind=fd5", "--set", "n=60"]) == EXIT_USAGE
    return capsys.readouterr().err, 3600


@pytest.mark.parametrize("site", [_ideal, _weyl, _additive, _k_of_vc, _convergence_bound,
                                  _mge, _analyze], ids=lambda site: site.__name__[1:])
def test_one_refusal_beyond_cap(site, monkeypatch, capsys):
    refuse_dense_eigh_beyond_cap(monkeypatch)
    monkeypatch.setattr(analysis, "materialize",
                        lambda action, n: pytest.fail(f"order-{n} materialize"))
    to_dense = sparse.SparseMatrix.toarray
    monkeypatch.setattr(sparse.SparseMatrix, "toarray", lambda m: (
        pytest.fail(f"order-{m.n_rows} toarray") if m.n_rows > DENSE_CAP else to_dense(m)))
    message, n = site(capsys)
    assert message.strip().endswith(
        f" forms a dense order-{n} array, beyond the dense cap DENSE_CAP = 2000")
