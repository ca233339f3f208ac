"""amgforge: an algebraic multigrid toolkit with a dense analysis laboratory.

Subpackage map:

- ``sparse``         CSR kernels, graphs, M-matrix relatives
- ``io_mm``          Matrix Market reader/writer
- ``problems``       deterministic model matrices and closed-form spectra
- ``smoothers``      Jacobi/Gauss-Seidel/block relaxation, symmetrization, PSC/SSC
- ``strength``       strength-of-connection measures and path powers
- ``coarsening``     MIS, greedy/pairwise aggregation, aggressive coarsening, CR
- ``interpolation``  ideal/direct/standard/multipass, UA/SA, energy-min, AMGe
- ``hierarchy``      multilevel setup, V-cycles, PCG
- ``analysis``       exact two-level rate identities and optimal coarse spaces
- ``adaptive``       bootstrap setup, least-squares fitting, MG eigensolver
"""

from . import (adaptive, analysis, coarsening, hierarchy, interpolation,
               io_mm, linalg, problems, smoothers, sparse, strength)

__version__ = "0.1.0"

__all__ = [
    "adaptive", "analysis", "coarsening", "hierarchy", "interpolation",
    "io_mm", "linalg", "problems", "smoothers", "sparse", "strength",
]
