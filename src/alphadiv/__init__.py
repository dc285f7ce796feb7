"""Alpha-divergences on the cone of positive measures and the cone of
positive definite Hermitian operators.

Both cones are flat for every alpha-connection with |alpha| < 1: geodesics
are straight lines in a power-embedding chart.  The package computes the
geodesic-integral divergence int_0^1 t ||gamma_dot(t)||^2 dt by fixed
Gauss-Legendre quadrature alongside the closed-form alpha-divergences, checks
that the two agree, and numerically recovers the metric and the dual pair of
connections from any divergence via finite differences.

Modules
-------
numkit     quadrature, Hermiticity checks, eigendecompositions, stencils
classical  the cone of positive measures (Fisher metric, alpha-geodesics)
quantum    the operator cone (power embedding, WYD metric, transport)
recovery   metric/connection recovery from a two-point contrast function
suites     the seeded invariant suites behind ``alphadiv verify``
cli        the ``alphadiv`` command-line tool
"""

from .classical import (
    alpha_christoffel,
    alpha_divergence_closed,
    alpha_geodesic,
    canonical_divergence_numeric,
    fisher_metric,
    geodesic_velocity,
    kl_extended,
    tsallis_q_divergence,
)
from .numkit import (
    FDConfig,
    NotPositiveDefiniteError,
    NumericalDomainError,
    QuadratureRule,
    SpectralDecomposition,
    gauss_legendre_rule,
    hermitian_eig,
    mixed_partials,
)
from .quantum import (
    PositiveOperator,
    alpha_embedding,
    alpha_geodesic_q,
    alpha_parallel_transport,
    alpha_representation,
    canonical_divergence_numeric_q,
    furuichi_q_divergence,
    quantum_alpha_divergence_closed,
    quantum_q_divergence,
    quantum_relative_entropy,
    wyd_metric,
)
from .recovery import RecoveredStructure, curvature, duality_defect, recover_structure

__version__ = "0.1.0"

__all__ = [
    "FDConfig",
    "NotPositiveDefiniteError",
    "NumericalDomainError",
    "PositiveOperator",
    "QuadratureRule",
    "RecoveredStructure",
    "SpectralDecomposition",
    "alpha_christoffel",
    "alpha_divergence_closed",
    "alpha_embedding",
    "alpha_geodesic",
    "alpha_geodesic_q",
    "alpha_parallel_transport",
    "alpha_representation",
    "canonical_divergence_numeric",
    "canonical_divergence_numeric_q",
    "curvature",
    "duality_defect",
    "fisher_metric",
    "furuichi_q_divergence",
    "gauss_legendre_rule",
    "geodesic_velocity",
    "hermitian_eig",
    "kl_extended",
    "mixed_partials",
    "quantum_alpha_divergence_closed",
    "quantum_q_divergence",
    "quantum_relative_entropy",
    "recover_structure",
    "tsallis_q_divergence",
    "wyd_metric",
]
