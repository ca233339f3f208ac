# Robustness to anisotropy and coefficient jumps
#
# The strength filter is what keeps classical AMG uniform when the operator
# degenerates: anisotropy turns into semicoarsening, jumps split the strength
# graph along the interfaces.  Exact two-level rates stay bounded over six
# orders of magnitude in the coefficient.

import numpy as np

from amgforge import analysis, coarsening, interpolation, problems, smoothers, strength

theta = strength.StrengthConfig("classical_sym", 0.25)

print("anisotropic problem, exact two-level rate:")
for eps in (1.0, 1e-2, 1e-4, 1e-6):
    a = problems.fe_anisotropic(31, eps)
    s = strength.strength_matrix(a, theta)
    p = interpolation.standard_interpolation(a, coarsening.mis(s), s)
    rate = analysis.two_level_error_norm(a, smoothers.GaussSeidel(a), p)
    print(f"  eps = {eps:<8g} |E|_A = {rate:.4f}")

print("\ncheckerboard jump problem, exact two-level rate:")
for eps in (1.0, 1e-3, 1e-6):
    a, _ = problems.fe_jump_coefficient(16, eps)
    s = strength.strength_matrix(a, theta)
    p = interpolation.standard_interpolation(a, coarsening.mis(s), s)
    rate = analysis.two_level_error_norm(a, smoothers.GaussSeidel(a), p,
                                         kernel=np.ones((a.n_rows, 1)))
    print(f"  eps = {eps:<8g} |E|_A = {rate:.4f}")
