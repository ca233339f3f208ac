# Model problems and their spectra
#
# Every matrix the toolkit studies comes from a deterministic generator:
# finite-difference Poisson stencils, anisotropic and jump-coefficient
# finite element assemblies, and graph Laplacians.  This script builds a few
# of them and checks the closed-form eigenvalues against a dense solver.

import numpy as np
import scipy.linalg

from amgforge import problems

# The 5-point Laplacian on a 2x2 interior grid is small enough to print.
a = problems.fd_poisson_5pt(2)
print("5-point matrix, n=2:")
print(a.toarray())

# Its eigenvalues have a closed form; at n=2 they are exactly {2, 4, 4, 6}.
print("closed-form spectrum:", problems.exact_spectrum_5pt(2))

# For larger grids the formula still matches a dense eigensolver to 1e-10.
n = 10
dense = scipy.linalg.eigh(problems.fd_poisson_5pt(n).toarray(), eigvals_only=True)
exact = problems.exact_spectrum_5pt(n)
print(f"n={n}: max |dense - closed form| = {np.abs(dense - exact).max():.2e}")

# The discrete Weyl law: eigenvalues grow like (k/N)^(2/d).  The scaled
# spectrum stays inside a narrow band.
k = np.arange(1, n * n + 1)
ratios = exact * (n * n / k)
print(f"Weyl band: [{ratios.min():.2f}, {ratios.max():.2f}], "
      f"spread {ratios.max() / ratios.min():.2f} (<= 6)")

# Anisotropic stencil: strong couplings along x, weak (epsilon) along y.
eps = 0.01
an = problems.fe_anisotropic(2, eps)
print(f"\nanisotropic stencil at eps={eps}:")
print(an.toarray())

# Jump-coefficient finite element assembly on the checkerboard pattern.
# The assembly keeps the element vertex and stiffness-block arrays (used by
# spectral AMGe), and the blocks' zero-extensions sum to the assembled matrix
# exactly.
jump, assembly = problems.fe_jump_coefficient(4, 1e-3)
defect = np.abs(assembly.assemble().toarray() - jump.toarray()).max()
print(f"\njump problem: {jump.n_rows} nodes, {len(assembly.verts)} elements, "
      f"assembly defect {defect:.1e}")
print("kernel check (row sums):", np.abs(jump.mat @ np.ones(jump.n_rows)).max())
