"""Numerical recovery of the dualistic structure encoded by a divergence.

A two-point contrast function D determines a metric and a pair of affine
connections through its mixed derivatives on the diagonal:

    g_ij      = -d_i d'_j D          (metric)
    Gamma_ijk = -d_i d_j d'_k D      (lowered connection)
    Gamma*_ijk= -d'_i d'_j d_k D     (lowered dual connection)

where unprimed derivatives act on the first argument and primed ones on the
second, everything evaluated at p = q.  This module estimates those objects
with central-difference stencils, checks the duality identity
d_k g_ij = Gamma_kij + Gamma*_kji, and measures the curvature of the raised
connection at the recovery point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import FDConfig, NotPositiveDefiniteError, mixed_partials

__all__ = [
    "RecoveredStructure",
    "curvature_max",
    "duality_defect",
    "half_squared_distance",
    "recover_structure",
]

# Default stencils: fourth-order composites keep the truncation bias of the
# third derivatives near 1e-7 at step 1e-2, which second-order nesting cannot
# reach for non-polynomial divergences.
_DEFAULT_CFG = FDConfig(step=1e-3, order=4)
_DEFAULT_THIRD_CFG = FDConfig(step=1e-2, order=4)

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
    ``christoffel_dual`` its dual counterpart; ``step`` is the metric stencil
    step used.
    """

    metric: np.ndarray
    christoffel: np.ndarray
    christoffel_dual: np.ndarray
    point: np.ndarray
    step: float


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


def recover_structure(
    divergence,
    point,
    cfg: FDConfig = _DEFAULT_CFG,
    third_cfg: FDConfig = _DEFAULT_THIRD_CFG,
) -> RecoveredStructure:
    """Recover (metric, connection, dual connection) from a divergence.

    ``divergence`` is a real function of two coordinate vectors, smooth near
    (point, point) and vanishing on the diagonal.  ``cfg`` controls the
    second-derivative stencil for the metric, ``third_cfg`` the third-order
    stencils for the connection coefficients (which want a larger step, since
    their roundoff error scales as one over step cubed).

    Raises :class:`NotPositiveDefiniteError` when the recovered metric is
    degenerate at stencil resolution, and ValueError when D(point, point) is
    not numerically zero.
    """
    point = np.asarray(point, dtype=float)
    at_diag = float(divergence(point, point))
    if abs(at_diag) > 1e-10:
        raise ValueError(
            f"divergence must vanish on the diagonal, got D(p, p) = {at_diag!r}"
        )
    metric = _checked_metric(divergence, point, cfg)
    gamma = -mixed_partials(divergence, point, point, "ppq", third_cfg)
    gamma_dual = -mixed_partials(divergence, point, point, "qqp", third_cfg)
    return RecoveredStructure(
        metric=metric,
        christoffel=gamma,
        christoffel_dual=gamma_dual,
        point=point,
        step=cfg.step,
    )


def _gradient(field, point, outer: FDConfig) -> np.ndarray:
    """grad[k] = d_k field at the point, by the outer stencil over shifted points."""
    offsets, coeffs = outer.stencil
    grad = []
    for k in range(point.size):
        acc = 0.0
        for off, c in zip(offsets, coeffs):
            shifted = point.copy()
            shifted[k] += off * outer.step
            acc = acc + c * field(shifted)
        grad.append(acc / outer.step)
    return np.array(grad)


def duality_defect(
    structure: RecoveredStructure,
    divergence,
    cfg: FDConfig = _DEFAULT_CFG,
    third_cfg: FDConfig = _DEFAULT_THIRD_CFG,
) -> float:
    """Worst violation of d_k g_ij = Gamma_kij + Gamma*_kji at the point.

    The metric gradient comes from finite differences of recovered metrics at
    shifted base points, each checked like the metric of
    :func:`recover_structure`, so the returned number measures pure
    finite-difference noise for any smooth contrast function.
    """
    dg = _gradient(lambda x: _checked_metric(divergence, x, cfg), structure.point, third_cfg)
    paired = structure.christoffel + np.swapaxes(structure.christoffel_dual, 1, 2)
    return float(np.max(np.abs(dg - paired)))


def _raised_christoffel(divergence, point, cfg: FDConfig, third_cfg: FDConfig):
    """Gamma^l_ij = g^{lm} Gamma_ijm at the point, with the checked metric."""
    g = _checked_metric(divergence, point, cfg)
    gamma = -mixed_partials(divergence, point, point, "ppq", third_cfg)
    return np.einsum("lm,ijm->ijl", np.linalg.inv(g), gamma)


def curvature_max(
    divergence,
    point,
    cfg: FDConfig = _DEFAULT_CFG,
    third_cfg: FDConfig = _DEFAULT_THIRD_CFG,
) -> float:
    """Max-abs component of the curvature of the recovered connection.

    R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik with
    G^l = g^{-1} Gamma recovered at stencil-shifted points.  Supported for
    up to four coordinates (the cost grows with the fourth power of the
    dimension).
    """
    point = np.asarray(point, dtype=float)
    n = point.size
    if n > 4:
        raise ValueError(
            f"curvature check is limited to dimension <= 4, got {n}"
        )
    gamma_up = _raised_christoffel(divergence, point, cfg, third_cfg)
    # d_gamma[i, j, k, l] = d_i G^l_jk
    d_gamma = _gradient(
        lambda x: _raised_christoffel(divergence, x, cfg, third_cfg),
        point,
        FDConfig(step=third_cfg.step, order=2),
    )

    quad = np.einsum("iml,jkm->ijkl", gamma_up, gamma_up)
    riemann = (
        d_gamma
        - np.swapaxes(d_gamma, 0, 1)
        + quad
        - np.swapaxes(quad, 0, 1)
    )
    return float(np.max(np.abs(riemann)))
