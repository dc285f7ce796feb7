"""Numerical recovery of the dualistic structure encoded by a divergence.

A two-point contrast function D determines a metric and a pair of affine
connections through its mixed derivatives on the diagonal:

    g_ij      = -d_i d'_j D          (metric)
    Gamma_ijk = -d_i d_j d'_k D      (lowered connection)
    Gamma*_ijk= -d'_i d'_j d_k D     (lowered dual connection)

where unprimed derivatives act on the first argument and primed ones on the
second, everything evaluated at p = q.  This module estimates those objects
with numkit's one central-difference stencil, checks the duality identity
d_k g_ij = Gamma_kij + Gamma*_kji, and returns the whole curvature tensor of
the raised connection at the recovery point, so a check can compare it with
a reference tensor rather than only its largest component.  Each point is
recovered once: :func:`duality_defect` and :func:`curvature` read the
structure that :func:`recover_structure` returned and add only their own
stencil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import FDConfig, NotPositiveDefiniteError, mixed_partials, stencil_gradient

__all__ = [
    "DEFAULT_CFG",
    "RecoveredStructure",
    "curvature",
    "duality_defect",
    "half_squared_distance",
    "recover_structure",
]

# Stencils: the metric's default, then the fixed connection and curvature ones
# (step 1e-2 against roundoff, which grows as one over step cubed for the
# connection's third derivatives and to the fourth for curvature's "ppqq"
# block; the connection's fourth order keeps its truncation bias near 1e-7,
# out of second-order nesting's reach).
DEFAULT_CFG = FDConfig(step=1e-3, order=4)
_CONNECTION_CFG = FDConfig(step=1e-2, order=4)
_CURVATURE_CFG = FDConfig(step=1e-2, order=2)

# The curvature check is refused above this many coordinates (its cost grows
# with the fourth power), and a residual up to the bound counts as flat.
CURVATURE_MAX_DIM = 4
FLATNESS_BOUND = 1e-3

# A recovered metric whose smallest eigenvalue falls below this floor
# (relative to its largest entry) is indistinguishable from stencil noise and
# is rejected as degenerate.
_METRIC_FLOOR = 1e-6


def half_squared_distance(p, q) -> float:
    """Reference contrast function: half the squared Euclidean distance."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * float(np.sum((p - q) ** 2))


@dataclass(frozen=True)
class RecoveredStructure:
    """Metric and lowered connection coefficients recovered at a point.

    ``christoffel[i, j, k]`` holds Gamma_ijk = g(nabla_i d_j, d_k) and
    ``christoffel_dual`` its dual counterpart.
    """

    metric: np.ndarray
    christoffel: np.ndarray
    christoffel_dual: np.ndarray
    point: np.ndarray


def _checked_metric(divergence, point, cfg: FDConfig) -> np.ndarray:
    """Recovered metric -d_i d'_j D at the point, checked and symmetrized.

    The raw stencil metric must be symmetric within stencil accuracy and its
    symmetric part, which is returned, positive definite above the
    stencil-noise floor.
    """
    g = -mixed_partials(divergence, point, point, "pq", cfg)
    asym = float(np.max(np.abs(g - g.T)))
    scale = max(1.0, float(np.max(np.abs(g))))
    if asym > 10.0 * cfg.step**2 * scale:
        raise ValueError(
            f"recovered metric is not symmetric within stencil accuracy "
            f"(asymmetry {asym:.3e})"
        )
    g = 0.5 * (g + g.T)
    eigs = np.linalg.eigvalsh(g)
    floor = _METRIC_FLOOR * scale
    if eigs[0] <= floor:
        raise NotPositiveDefiniteError(
            f"recovered metric is not positive definite: smallest eigenvalue "
            f"{eigs[0]:.6e} is below the stencil-noise floor {floor:.1e}",
            smallest=float(eigs[0]),
        )
    return g


def recover_structure(divergence, point, cfg: FDConfig = DEFAULT_CFG) -> RecoveredStructure:
    """Recover (metric, connection, dual connection) from a divergence.

    ``divergence`` is a real function of two coordinate vectors, smooth near
    (point, point) and vanishing on the diagonal.  ``cfg`` is the metric's
    stencil; the connection coefficients use the module's fixed one.

    Raises :class:`NotPositiveDefiniteError` when the recovered metric is
    degenerate at stencil resolution, and ValueError when D(point, point) is
    not numerically zero (NaN included).  A ValueError of the divergence at
    the point itself propagates; on the stencil it is a NumericalDomainError.
    """
    point = np.asarray(point, dtype=float)
    at_diag = float(divergence(point, point))
    if not abs(at_diag) <= 1e-10:
        raise ValueError(
            f"divergence must vanish on the diagonal, got D(p, p) = {at_diag!r}"
        )
    metric = _checked_metric(divergence, point, cfg)
    gamma = -mixed_partials(divergence, point, point, "ppq", _CONNECTION_CFG)
    gamma_dual = -mixed_partials(divergence, point, point, "qqp", _CONNECTION_CFG)
    return RecoveredStructure(
        metric=metric,
        christoffel=gamma,
        christoffel_dual=gamma_dual,
        point=point,
    )


def _metric_gradient(structure: RecoveredStructure) -> np.ndarray:
    """d_k g_ij = Gamma_kij + Gamma*_kji, an identity of D's derivatives on the diagonal."""
    return structure.christoffel + np.swapaxes(structure.christoffel_dual, 1, 2)


def duality_defect(structure: RecoveredStructure, divergence, cfg: FDConfig = DEFAULT_CFG) -> float:
    """Worst violation of d_k g_ij = Gamma_kij + Gamma*_kji at the point.

    The metric gradient comes from finite differences of recovered metrics at
    shifted base points, each checked like the metric of
    :func:`recover_structure`, so the returned number measures pure
    finite-difference noise for any smooth contrast function.
    """
    dg = stencil_gradient(
        lambda x: _checked_metric(divergence, x, cfg), structure.point, _CONNECTION_CFG
    )
    return float(np.max(np.abs(dg - _metric_gradient(structure))))


def curvature(structure: RecoveredStructure, divergence) -> np.ndarray:
    """Curvature tensor R[i, j, k, l] = R^l_ijk of the recovered connection.

    R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik with
    G = g^{-1} Gamma from ``structure``, which :func:`recover_structure`
    returned for the same divergence; the point is ``structure.point``.  The
    derivative of G comes from one fourth-order block P = d_a d_b d'_c d'_d D:

        d_i G^l_jk = -g^{ls} P_jkis - g^{la} d_i g_ab G^b_jk
                     - g^{ls} d_i d_j d_k d'_s D,

    with d_i g_ab read from the connections as in :func:`duality_defect`.
    The last term is symmetric in (i, j), so it cancels in R and is never
    formed.  P is the only stencil evaluated here, at the module's fixed
    curvature stencil, and the contrast runs once per distinct point of its
    16 n**4 entries, where that point first appears (361 of 1,296 at three
    coordinates; rounding decides which shifts coincide); repeats reuse the
    value.  Supported for up to ``CURVATURE_MAX_DIM`` coordinates; above that
    raises ValueError.  A stencil point off the contrast's domain raises as
    in :func:`recover_structure`, at its first appearance.

    On a sum over components (the classical alpha-divergences in measure
    coordinates) and in the quantum alpha-chart, each of the three terms of R
    is symmetric in (i, j) by itself, so R is zero whatever the formula does
    with them: there max|R| detects a NaN or a stencil failure, not an error
    in the curvature formula.  A contrast that couples its coordinates, such
    as the alpha-divergence restricted to the probability simplex, has a
    known nonzero tensor to compare whole.
    """
    point = structure.point
    n = point.size
    if n > CURVATURE_MAX_DIM:
        raise ValueError(
            f"curvature check is limited to dimension <= {CURVATURE_MAX_DIM}, got {n}"
        )
    g_inv = np.linalg.inv(structure.metric)
    gamma_up = np.einsum("lm,ijm->ijl", g_inv, structure.christoffel)
    values = {}

    def once(x, y):
        key = (x.tobytes(), y.tobytes())
        if key not in values:
            values[key] = divergence(x, y)
        return values[key]

    fourth = mixed_partials(once, point, point, "ppqq", _CURVATURE_CFG)
    # d_gamma[i, j, k, l] = d_i G^l_jk, less the term symmetric in (i, j)
    d_gamma = -np.einsum("ls,jkis->ijkl", g_inv, fourth) - np.einsum(
        "la,iab,jkb->ijkl", g_inv, _metric_gradient(structure), gamma_up
    )
    quad = np.einsum("iml,jkm->ijkl", gamma_up, gamma_up)
    return d_gamma - np.swapaxes(d_gamma, 0, 1) + quad - np.swapaxes(quad, 0, 1)
