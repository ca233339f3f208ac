"""The size-grouped local dense algebra against the per-block code it
replaced: the bootstrap least-squares fit and the energy-min operator's
local factors."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amgforge import coarsening, problems, sparse
from amgforge.adaptive import bootstrap_setup, ls_fit_prolongation
from amgforge.interpolation import (SupportSet, energy_min_prolongation,
                                    spectral_amge_coarse_space, supports_from_aggregates)
from amgforge.linalg import _stack_by_size
from amgforge.problems import ElementAssembly
from amgforge.smoothers import BlockGaussSeidel, SingularSmootherError, SubspaceCorrection
from amgforge.strength import StrengthConfig, strength_matrix

BOOTSTRAP_SEEDS = (0, 1, 2)
ENERGY_MIN_CASES = {
    "fd5_64": lambda: problems.fd_poisson_5pt(64),
    "fe_aniso_20": lambda: problems.fe_anisotropic(20, 1e-3),
}


def bootstrap_ps(seed):
    """Every level's P of the jump_bootstrap setup on fe_jump 62 (eps 1e-6)."""
    a, _ = problems.fe_jump_coefficient(62, 1e-6)
    h, _ = bootstrap_setup(a, smoother="gs", m0=8, q=4, n0=50, delta0=0.7,
                           max_rounds=3, restrict="bamg", seed=seed)
    return {f"bootstrap/{seed}/{k}": lvl.p.matrix.mat
            for k, lvl in enumerate(h.levels[:-1])}


def energy_min_p(case):
    a = ENERGY_MIN_CASES[case]()
    s = strength_matrix(a, StrengthConfig())
    supports = supports_from_aggregates(coarsening.greedy_aggregate(s), s)
    return energy_min_prolongation(a, supports).matrix.mat


def reference_arrays():
    """CSR arrays ("<key>/{data,indices,indptr,shape}") of every reference P."""
    mats = {}
    for seed in BOOTSTRAP_SEEDS:
        mats.update(bootstrap_ps(seed))
    for case in ENERGY_MIN_CASES:
        mats[f"energymin/{case}"] = energy_min_p(case)
    return {f"{key}/{part}": np.asarray(getattr(m, part) if part != "shape" else m.shape,
                                        dtype=None if part == "data" else np.int64)
            for key, m in mats.items() for part in ("data", "indices", "indptr", "shape")}


# written by reference_arrays() with the per-row lstsq fit and the
# per-support cho_factor operator that preceded the stacked code
REFERENCE = Path(__file__).parent / "data" / "stacked_local_reference.npz"


def assert_matches(ref, key, got, tol):
    assert tuple(ref[key + "/shape"]) == got.shape, key
    assert np.array_equal(ref[key + "/indptr"], got.indptr), key
    assert np.array_equal(ref[key + "/indices"], got.indices), key
    assert np.abs(ref[key + "/data"] - got.data).max() <= tol, key


@pytest.mark.parametrize("seed", BOOTSTRAP_SEEDS)
def test_bootstrap_p_matches_reference(seed):
    with np.load(REFERENCE) as ref:
        got = bootstrap_ps(seed)
        assert sorted(got) == sorted({k.rsplit("/", 1)[0] for k in ref.files
                                      if k.startswith(f"bootstrap/{seed}/")})
        for key, mat in got.items():
            assert_matches(ref, key, mat, 1e-12)


@pytest.mark.parametrize("case", sorted(ENERGY_MIN_CASES))
def test_energy_min_p_matches_reference(case):
    with np.load(REFERENCE) as ref:
        assert_matches(ref, f"energymin/{case}", energy_min_p(case), 1e-12)


def lstsq_row_fit(psi_fine, psi_coarse, pattern, s_max, eps_fit, candidate_order):
    """The per-row ``np.linalg.lstsq`` fit: dense P, the mask of each row's
    final allowed indices and the count of rank-deficient fits."""
    p = np.zeros((psi_fine.shape[0], psi_coarse.shape[0]))
    mask = np.zeros(p.shape, dtype=bool)
    deficient = 0
    for i, row in enumerate(psi_fine):
        allowed = list(pattern[i])
        extra = [c for c in candidate_order[i] if c not in allowed]
        while True:
            basis = psi_coarse[allowed].T
            p_row, _, rank, _ = np.linalg.lstsq(basis, row, rcond=None)
            deficient += rank < len(allowed)
            if (np.linalg.norm(basis @ p_row - row) <= eps_fit or len(allowed) >= s_max
                    or not extra):
                break
            allowed.append(extra.pop(0))
        np.add.at(p[i], allowed, p_row)
        mask[i, allowed] = True
    return p, mask, deficient


def fit_warnings(fit):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fit()
    counts = [int(str(w.message).split()[0]) for w in caught
              if "rank-deficient" in str(w.message)]
    return out, sum(counts)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 7), st.integers(1, 14),
       st.integers(1, 5), st.sampled_from([1e-8, 0.3, np.inf]))
def test_ls_fit_matches_per_row_lstsq(seed, m, n_c, n, s_max, eps_fit):
    rng = np.random.default_rng(seed)
    psi_coarse = rng.standard_normal((n_c, m))
    # 0: random, 1: a copy of coarse vector 0, 2: zero, 3: vector 0 times
    # 10**u, 4: vector 0 plus 1e-10 noise (full rank, condition ~1e10)
    kind = rng.integers(0, 5, n_c)
    psi_coarse[kind == 1] = psi_coarse[0]
    psi_coarse[kind == 2] = 0.0
    scaled, near = kind == 3, kind == 4
    psi_coarse[scaled] = psi_coarse[0] * 10.0 ** rng.integers(-4, 5, (scaled.sum(), 1))
    psi_coarse[near] = psi_coarse[0] + 1e-10 * rng.standard_normal((near.sum(), m))
    psi_fine = rng.standard_normal((n, m))
    psi_fine[: n // 2] = rng.standard_normal((n // 2, n_c)) @ psi_coarse  # exact fits
    # patterns of up to n_c entries, so also wider than s_max
    pattern = [rng.choice(n_c, rng.integers(0, n_c + 1), replace=False).tolist()
               for _ in range(n)]
    order = [rng.integers(0, n_c, rng.integers(0, 5)).tolist() for _ in range(n)]
    want, allowed, want_deficient = lstsq_row_fit(psi_fine, psi_coarse, pattern, s_max,
                                                  eps_fit, order)
    got, got_deficient = fit_warnings(lambda: ls_fit_prolongation(
        psi_fine, psi_coarse, pattern, s_max=s_max, eps_fit=eps_fit, candidate_order=order))
    got = got.toarray()
    assert got_deficient == want_deficient
    # a fit over a near-dependent copy is defined only to about cond * eps
    # ~ 1e-6, by lstsq as by any other solver, so its values are not compared
    far = ~allowed[:, near].any(axis=1)
    tol = 1e-10 * max(1.0, np.abs(want[far]).max(initial=0.0))
    # the same grown patterns; a coefficient that is zero in exact arithmetic
    # (a zero coarse vector's) may come out as 0 or as rounding in either fit
    assert not (got != 0.0)[~allowed].any()
    assert not ((got == 0.0) & (np.abs(want) > tol))[far].any()
    assert np.abs(got - want)[far].max(initial=0.0) <= tol


def test_subspace_correction_names_first_singular_subspace():
    # subspaces of sizes 3, 1, 2, 1: the singular 2-block (2) comes before
    # the singular 1-block (3), though the 1-blocks are factored first
    a = sparse.from_dense(np.diag([1.0, 1.0, 1.0, 0.0, 1.0, 1.0]) + np.block([
        [np.zeros((4, 4)), np.zeros((4, 2))],
        [np.zeros((2, 4)), np.array([[0.0, 1.0], [1.0, 0.0]])]]), sparse.SYMMETRIC)
    subspaces = [[0, 1, 2], [1], [4, 5], [3]]
    with pytest.raises(SingularSmootherError, match="subspace 2 "):
        SubspaceCorrection(a, subspaces)
    with pytest.raises(SingularSmootherError, match="subspace 1 "):
        SubspaceCorrection(a, [[0, 1, 2], [3], [4, 5], [1]])


_RNG = np.random.default_rng(0)
_PSI, _PSI_C = _RNG.standard_normal((3, 2)), _RNG.standard_normal((4, 2))
_FOUR = problems.laplace_1d(4)
_BUILD_FROM = {  # each local index set's constructor, over index range [0, 4)
    "pattern row": lambda lists: ls_fit_prolongation(_PSI, _PSI_C, lists),
    "candidate_order row":
        lambda lists: ls_fit_prolongation(_PSI, _PSI_C, [[0]] * 3, candidate_order=lists),
    "support": lambda lists: SupportSet(tuple(map(np.array, lists))).validate(4),
    "subspace": lambda lists: SubspaceCorrection(_FOUR, lists),
    "block": lambda lists: BlockGaussSeidel(_FOUR, lists),
    # elements all have one width: each list repeated to two vertices
    "element": lambda lists: spectral_amge_coarse_space(
        ElementAssembly(4, [(v * 2)[:2] for v in lists], np.tile(np.eye(2), (len(lists), 1, 1))),
        np.zeros(3, dtype=int), 1),
}


@pytest.mark.parametrize("bad", [-1, 4])
@pytest.mark.parametrize("what", list(_BUILD_FROM))
def test_index_outside_range_refused_by_name(what, bad):
    # every local index set goes through one range check, which names the
    # first list holding an index outside [0, 4); a negative one never wraps
    with pytest.raises(ValueError, match=rf"^{what} 2 holds index {bad}, outside \[0, 4\)$"):
        _BUILD_FROM[what]([[0, 1], [2, 3], [bad]])


def test_stacks_are_bounded_by_block_entries():
    # a stack holds at most 1,024 positions and 1e5 entries of its k x k
    # blocks, and at least one position: 1,024 rows of size 8, 444 of size 15
    # (1e5 // 225) and one of size 400
    sizes = np.array([15] * 1000 + [8] * 3000 + [400] * 2)
    chunks = [(k, pos.size) for pos, k in _stack_by_size(sizes)]
    assert chunks == [(8, 1024), (8, 1024), (8, 952), (15, 444), (15, 444), (15, 112),
                      (400, 1), (400, 1)]
    got = np.concatenate([pos for pos, _ in _stack_by_size(sizes)])
    assert np.array_equal(np.sort(got), np.arange(sizes.size))
