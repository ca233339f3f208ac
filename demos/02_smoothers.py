# Smoothers and the smoothing property
#
# Jacobi and Gauss-Seidel converge fast on algebraically high-frequency
# error and crawl on the low end: that separation is the reason multigrid
# exists.  The symmetrization Rbar = R' + R - R'AR defines the inner product
# in which all the two-level theory is stated.

import numpy as np
import scipy.linalg

from amgforge import problems, smoothers
from amgforge.analysis import materialize

a = problems.fd_poisson_5pt(15)
n = a.n_rows
w, v = scipy.linalg.eigh(a.toarray())
a_norm = lambda x: np.sqrt(x @ (a.mat @ x))

gs = smoothers.GaussSeidel(a)
jac = smoothers.Jacobi(a)  # damped by 1/rho(D^{-1}A), estimated internally
print(f"default Jacobi damping: omega = {jac.omega:.3f}")

for name, s in (("gauss-seidel", gs), ("damped jacobi", jac)):
    low = a_norm(s.error_propagation(v[:, 0])) / a_norm(v[:, 0])
    high = a_norm(s.error_propagation(v[:, -1])) / a_norm(v[:, -1])
    print(f"{name:>14}: contraction on lowest mode {low:.3f}, highest {high:.3f}")

# The symmetrized Gauss-Seidel iterator has the closed form
# (D+U)^{-1} D (D+L)^{-1}; two half-sweeps realize it matrix-free.
a2 = problems.laplace_1d(2)
rbar = materialize(smoothers.symmetrize(smoothers.GaussSeidel(a2)).action, 2)
print("\nsymmetrized GS on tridiag(-1,2,-1)_2:")
print(rbar, "(= [[5/8, 1/4], [1/4, 1/2]])")

# Jacobi and Gauss-Seidel are the two extreme subspace-correction methods:
# additive (parallel) and successive corrections over the coordinate axes.
# Successive subspace correction is BlockGaussSeidel on the same subspaces.
t = problems.laplace_1d(5)
axes = [[i] for i in range(5)]
psc = smoothers.SubspaceCorrection(t, axes)
ssc = smoothers.BlockGaussSeidel(t, axes)
print("\nPSC == Jacobi:",
      np.allclose(materialize(psc.action, 5), np.diag(1.0 / t.diagonal())))
print("SSC == forward GS:",
      np.allclose(materialize(ssc.action, 5),
                  materialize(smoothers.GaussSeidel(t).action, 5)))

# Anisotropic problems defeat point smoothing; line blocks along the strong
# direction restore it.
an = problems.fe_anisotropic(15, 1e-4)
s = np.sin(np.pi * np.arange(1, 16) / 16)
smooth_mode = np.kron(s, s)
line = smoothers.BlockGaussSeidel(an, smoothers.block_partition_lines(15, "x"))
point = smoothers.GaussSeidel(an)
an_norm = lambda x: np.sqrt(x @ (an.mat @ x))
print(f"\nanisotropic smooth mode, one sweep reduction: "
      f"point {an_norm(smooth_mode) / an_norm(point.error_propagation(smooth_mode)):.2f}x, "
      f"line {an_norm(smooth_mode) / an_norm(line.error_propagation(smooth_mode)):.0f}x")
