"""Half-line dispersive initial-boundary value solver.

Explicit contour-integral Green and boundary operators built from a
Wiener-Hopf style factorization of the extended symbol, a Picard solver for
the nonlinear Duhamel equation, and an independent method-of-lines
discretization for cross-validation.
"""

from .boundary import BoundaryKernel, gaussian_laplace_moments
from .config import RunConfig
from .contour import (AxisSampling, cauchy_transform, log_graded_nodes,
                      plemelj_limits, symbol_contour, winding_index)
from .green import EMinusLattice, GreenGrids, GreenOperator, fresnel_weights
from .halfline import (PROFILES, HalfLineGrid, Profile, TruncatedWeight,
                       WholeLineGrid, ap_characteristic, convolution_decay,
                       hilbert_whole_line, laplace_matrix, make_profile)
from .mol import MethodOfLines, MolResult
from .solver import (DuhamelPropagator, SpaceTimeSolution, TimeGrid, XNorm,
                     advective_forcing, cross_validate, picard_solve)
from .symbols import (Symbols, admissible_arg, ratio_weight, root_k, root_phi,
                      symbol_K, symbol_K_tilde)

__all__ = [
    "AxisSampling", "BoundaryKernel", "DuhamelPropagator",
    "EMinusLattice", "GreenGrids", "GreenOperator", "HalfLineGrid",
    "MethodOfLines", "MolResult", "PROFILES", "Profile",
    "RunConfig", "SpaceTimeSolution", "Symbols", "TimeGrid",
    "TruncatedWeight", "WholeLineGrid", "XNorm", "admissible_arg",
    "advective_forcing", "ap_characteristic", "cauchy_transform",
    "convolution_decay", "cross_validate", "fresnel_weights",
    "gaussian_laplace_moments", "hilbert_whole_line", "laplace_matrix",
    "log_graded_nodes", "make_profile", "picard_solve", "plemelj_limits",
    "ratio_weight", "root_k", "root_phi", "symbol_K",
    "symbol_K_tilde", "symbol_contour", "winding_index",
]

__version__ = "0.1.0"
