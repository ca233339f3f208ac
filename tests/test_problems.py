import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from amgforge import problems, sparse
from amgforge.problems import (ElementAssembly, ProblemSpec, checkerboard,
                               exact_spectrum_5pt, exact_spectrum_anisotropic,
                               fd_poisson_5pt, fd_poisson_9pt,
                               fe_anisotropic, fe_jump_coefficient,
                               rigid_body_vectors)


class TestFivePoint:
    def test_n2_matrix(self):
        expect = [[4, -1, -1, 0], [-1, 4, 0, -1], [-1, 0, 4, -1], [0, -1, -1, 4]]
        assert np.array_equal(fd_poisson_5pt(2).toarray(), expect)

    def test_n1(self):
        assert fd_poisson_5pt(1).toarray() == [[4.0]]

    def test_neumann_zero_row_sums(self):
        a = fd_poisson_5pt(3, "neumann")
        assert np.abs(a.mat @ np.ones(9)).max() == 0.0

    def test_condition_number_scaling(self):
        # kappa(A(2n))/kappa(A(n)) stays near 4 (h^-2 law)
        kappas = {}
        for n in (8, 16, 32):
            lam = exact_spectrum_5pt(n)
            kappas[n] = lam[-1] / lam[0]
        assert 3.5 <= kappas[16] / kappas[8] <= 4.5
        assert 3.5 <= kappas[32] / kappas[16] <= 4.5


class TestNinePoint:
    def test_n1(self):
        assert fd_poisson_9pt(1).toarray() == [[8.0]]

    def test_corner_row_couplings(self):
        # unknown (1,1) of the n=2 grid couples to (2,1), (1,2), (2,2)
        a = fd_poisson_9pt(2).toarray()
        assert a[0, 0] == 8.0
        assert np.array_equal(a[0, 1:], [-1, -1, -1])

    def test_interior_row_sum_zero(self):
        a = fd_poisson_9pt(3).toarray()
        center = 4  # (2,2) of the 3x3 grid
        assert a[center].sum() == 0.0


class TestAnisotropic:
    def test_isotropy_limit(self):
        a = fe_anisotropic(2, 1.0).toarray()
        assert np.array_equal(np.diag(a), [4.0] * 4)
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        assert set(np.unique(off)) == {-1.0, 0.0}

    def test_small_epsilon_stencil(self):
        a = fe_anisotropic(2, 0.01).toarray()
        assert a[0, 0] == pytest.approx(2.02)
        assert a[0, 1] == -1.0  # x neighbor
        assert a[0, 2] == -0.01  # y neighbor

    def test_closed_form_spectrum(self):
        n, eps = 6, 0.03
        lam = scipy.linalg.eigh(fe_anisotropic(n, eps).toarray(), eigvals_only=True)
        assert np.abs(lam - exact_spectrum_anisotropic(n, eps)).max() <= 1e-12

    def test_neumann_kernel(self):
        a = fe_anisotropic(3, 0.1, "neumann")
        assert np.abs(a.mat @ np.ones(9)).max() <= 1e-15


class TestJumpCoefficient:
    def test_unit_coefficient_matches_five_point_interior(self):
        a, _ = fe_jump_coefficient(3, 1.0)
        interior = np.zeros((5, 5), dtype=bool)  # the (n+2)^2 grid, n = 3
        interior[1:-1, 1:-1] = True
        sub = sparse.restrict_to_indices(a, np.flatnonzero(interior))
        assert np.allclose(sub.toarray(), fd_poisson_5pt(3).toarray(), atol=1e-13)

    def test_assembly_sums_to_matrix(self):
        a, asm = fe_jump_coefficient(4, 1e-3)
        assert np.abs(asm.assemble().toarray() - a.toarray()).max() <= 1e-13
        assert asm.verts.shape == (50, 3) and asm.blocks.shape == (50, 3, 3)
        assert np.linalg.eigvalsh(asm.blocks).min() >= -1e-13

    def test_checkerboard_strength_components(self):
        from amgforge import strength

        a, _ = fe_jump_coefficient(8, 1e-3)
        s = strength.strength_matrix(a, strength.StrengthConfig("classical_sym", 0.25))
        labels = sparse.connected_components(s.graph)
        assert labels.max() + 1 >= 2

    def test_single_element_assembly(self):
        block = problems._triangle_stiffness([(0, 0), (1, 0), (0, 1)], 1.0)
        asm = ElementAssembly(3, [(0, 1, 2)], block[None])
        assert np.array_equal(asm.assemble().toarray(), block)

    def test_generation_holds_no_per_element_objects(self):
        # the elements are two arrays, E x 3 vertices and E x 3 x 3 blocks:
        # fe_jump 64 traces a 3.4 MB peak, against 8.2 MB with one Python
        # (vertex tuple, block) pair per element
        tracemalloc.start()
        try:
            fe_jump_coefficient(64, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_vertex_outside_range_names_the_element(self, bad):
        asm = ElementAssembly(3, [(0, 1, bad)], np.eye(3)[None])
        with pytest.raises(ValueError, match=rf"^element 0 holds index {bad}, outside \[0, 3\)$"):
            asm.assemble()


class TestSpectrum:
    def test_n2_exact_values(self):
        assert np.allclose(exact_spectrum_5pt(2), [2, 4, 4, 6], atol=0)

    def test_n1(self):
        assert exact_spectrum_5pt(1)[0] == pytest.approx(4.0, abs=1e-14)

    def test_against_dense_eigensolver(self):
        for n in (2, 5, 10, 12):
            lam = scipy.linalg.eigh(fd_poisson_5pt(n).toarray(), eigvals_only=True)
            assert np.abs(lam - exact_spectrum_5pt(n)).max() <= 1e-10

    def test_weyl_interval(self):
        n = 10
        lam = exact_spectrum_5pt(n)
        k = np.arange(1, n * n + 1)
        ratios = lam * (n * n / k)
        assert ratios.max() / ratios.min() <= 6.0


class TestRigidBody:
    def test_single_origin_point(self):
        _, _, z3 = rigid_body_vectors([(0.0, 0.0)])
        assert np.array_equal(z3, [0.0, 0.0])

    def test_two_points(self):
        _, _, z3 = rigid_body_vectors([(1.0, 0.0), (0.0, 1.0)])
        assert np.array_equal(z3, [0.0, 1.0, -1.0, 0.0])

    def test_independence(self):
        z = np.column_stack(rigid_body_vectors([(0, 0), (1, 0), (0, 1)]))
        assert np.linalg.matrix_rank(z) == 3

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            rigid_body_vectors([(np.inf, 0.0)])


class TestProblemSpec:
    def test_build_dispatch(self):
        a = problems.build(ProblemSpec("fd5", 2))
        assert a.n_rows == 4
        g = problems.build(ProblemSpec("graph_laplacian", 5))
        assert np.abs(g.mat @ np.ones(5)).max() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec("fd5", 0)
        with pytest.raises(ValueError):
            ProblemSpec("fd5", 2, epsilon=-1.0)
        with pytest.raises(ValueError):
            ProblemSpec("fd5", 2, bc="periodic")

    def test_checkerboard_predicate(self):
        assert checkerboard(0.25, 0.75)
        assert not checkerboard(0.25, 0.25)


# np.savez_compressed of golden_entries(), run against the generators that
# preceded the 1-D-operator constructions (separate Kronecker blocks per
# stencil and a per-element fe_jump loop, commit 867437c).
GOLDEN = Path(__file__).parent / "data" / "problems_reference.npz"
GOLDEN_N = (1, 2, 3, 4, 7, 16)
GOLDEN_EPS = (1.0, 1e-3, 1e-6)


def _csr_entries(key, a):
    return {f"{key}/indptr": a.mat.indptr, f"{key}/indices": a.mat.indices,
            f"{key}/data": a.mat.data}


def golden_entries():
    out = {}
    for n in GOLDEN_N:
        for bc in ("dirichlet", "neumann"):
            out.update(_csr_entries(f"fd5_{bc}_{n}", fd_poisson_5pt(n, bc)))
            out.update(_csr_entries(f"laplace_1d_{bc}_{n}", problems.laplace_1d(n, bc)))
            for eps in GOLDEN_EPS:
                out.update(_csr_entries(f"fe_aniso_{bc}_{eps:g}_{n}",
                                        fe_anisotropic(n, eps, bc)))
        out.update(_csr_entries(f"fd9_{n}", fd_poisson_9pt(n)))
        out[f"spectrum_5pt_{n}"] = exact_spectrum_5pt(n)
        for eps in GOLDEN_EPS:
            out[f"spectrum_aniso_{eps:g}_{n}"] = exact_spectrum_anisotropic(n, eps)
    for n, eps in ((1, 1e-3), (3, 1.0), (8, 1e-6)):
        a, asm = fe_jump_coefficient(n, eps)
        key = f"fe_jump_{eps:g}_{n}"
        out.update(_csr_entries(key, a))
        out[f"{key}/verts"] = asm.verts
        out[f"{key}/blocks"] = asm.blocks
        out[f"{key}/coords"] = asm.coords
    return out


def test_generators_match_golden():
    got = golden_entries()
    with np.load(GOLDEN) as ref:
        assert set(ref.files) == set(got)
        for key, value in got.items():
            assert ref[key].dtype == value.dtype, key
            assert np.array_equal(ref[key], value), key
