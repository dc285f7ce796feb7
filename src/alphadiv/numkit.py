"""Shared numerical kernels.

Gauss-Legendre quadrature on [0, 1], the Hermiticity and positivity checks,
Hermitian eigendecompositions, divided-difference derivatives of matrix power
functions, and central-difference stencils for mixed partial derivatives.

Every function here is a pure function of its inputs and deterministic for
identical inputs, so results are safe to share between threads.  Reductions
(quadrature sums, traces) use numpy's fixed pairwise order, which is
deterministic for a given input shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_RULE",
    "DEGENERACY_RTOL",
    "FDConfig",
    "HERMITICITY_RTOL",
    "NotPositiveDefiniteError",
    "NumericalDomainError",
    "POSITIVITY_RTOL",
    "QuadratureRule",
    "SpectralDecomposition",
    "as_hermitian",
    "check_alpha",
    "check_t",
    "frechet_from_decomposition",
    "gauss_legendre_rule",
    "hermitian_eig",
    "hermitian_part",
    "mixed_partials",
    "power_divided_differences",
    "quadrature_sum",
]

# Smallest eigenvalue must exceed this fraction of the largest one for an
# operator to count as positive definite; keeps negative fractional powers
# bounded.
POSITIVITY_RTOL = 1e-12

# Relative eigenvalue gap below which divided differences switch to the
# derivative form.  Balances cancellation error in the secant against the
# linearization error of the confluent limit at double precision.
DEGENERACY_RTOL = 1e-8

# A matrix counts as Hermitian when ||m - m^dagger||_F is at most this
# fraction of ||m||_F; relative, so the verdict does not depend on the scale.
HERMITICITY_RTOL = 1e-12


class NumericalDomainError(ArithmeticError):
    """A computation left its numeric domain (non-finite value, bad trace)."""


class NotPositiveDefiniteError(NumericalDomainError):
    """An operator required to be positive definite is not.

    Carries the offending smallest eigenvalue in ``smallest``.
    """

    def __init__(self, message, smallest=None):
        super().__init__(message)
        self.smallest = smallest


def check_alpha(alpha, geodesic=False):
    """Validate the interpolation parameter alpha and return it as a float.

    Divergence evaluations require alpha strictly inside (-1, 1); the limits
    have dedicated entropy operations and silently clamping would mask the
    2/(1 - alpha) singularity.  Geodesic-side operations (``geodesic=True``)
    additionally accept the mixture endpoint alpha = -1, where every formula
    stays regular.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    low_ok = alpha >= -1.0 if geodesic else alpha > -1.0
    if not (low_ok and alpha < 1.0):
        if geodesic:
            raise ValueError(
                f"alpha must lie in [-1, 1) for geodesic operations, got {alpha}"
            )
        raise ValueError(
            f"alpha must lie strictly inside (-1, 1), got {alpha}; "
            "use the dedicated entropy operations for the limits"
        )
    return alpha


def check_t(t) -> float:
    """Validate a curve parameter t in [0, 1] and return it as a float."""
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"curve parameter t must lie in [0, 1], got {t}")
    return t


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a quadrature rule normalized to [0, 1].

    Nodes are strictly increasing inside the open interval and the weights
    are positive and sum to one (within 1e-14).
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float)).copy()
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float)).copy()
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ValueError("nodes and weights must be equal-length 1-D vectors")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("nodes and weights must be finite")
        if np.any(nodes <= 0.0) or np.any(nodes >= 1.0):
            raise ValueError("nodes must lie in the open interval (0, 1)")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        total = weights.sum()
        if abs(total - 1.0) > 1e-14:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.nodes.size


def gauss_legendre_rule(n) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [0, 1], exact through degree 2n - 1."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"quadrature order must be a positive integer, got {n!r}")
    x, w = np.polynomial.legendre.leggauss(int(n))
    return QuadratureRule(nodes=0.5 * (x + 1.0), weights=0.5 * w)


# The default rule of every geodesic-integral divergence.  The integrands are
# analytic on [0, 1] (the interpolants stay bounded away from the cone
# boundary), so Gauss-Legendre converges geometrically and 64 nodes sit far
# past the double-precision accuracy floor.
DEFAULT_RULE = gauss_legendre_rule(64)


def quadrature_sum(rule: QuadratureRule, values) -> float:
    """Weighted sum of precomputed integrand values at the rule's nodes."""
    values = np.asarray(values, dtype=float)
    if values.shape != rule.nodes.shape:
        raise ValueError("one integrand value per node is required")
    bad = ~np.isfinite(values)
    if bad.any():
        t = float(rule.nodes[bad][0])
        raise NumericalDomainError(f"integrand is not finite at node t={t!r}")
    return float(rule.weights @ values)


# ---------------------------------------------------------------------------
# Hermitian validation and eigendecomposition
# ---------------------------------------------------------------------------

def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger)/2."""
    return 0.5 * (m + m.conj().T)


def as_hermitian(m) -> np.ndarray:
    """Validate a Hermitian matrix and return its symmetrized complex copy.

    The matrix must be square and finite with ||m - m^dagger||_F <=
    HERMITICITY_RTOL * ||m||_F; the zero matrix passes.  Both norms are taken
    on m divided by a power of two near max|m_ij|, which is exact, so the
    squares inside the norms cannot overflow and the verdict is that of m.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    peak = float(abs(m).max(initial=0.0))
    unit = math.ldexp(0.5, math.frexp(peak)[1])  # a power of two in (peak/2, peak]
    scaled = m / unit
    scale = float(np.linalg.norm(scaled))
    defect = float(np.linalg.norm(scaled - scaled.conj().T))
    if defect > HERMITICITY_RTOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: ||m - m^dagger||_F = {defect * unit:.3e} "
            f"exceeds {HERMITICITY_RTOL:g} * ||m||_F = {HERMITICITY_RTOL * scale * unit:.3e}"
        )
    return hermitian_part(m)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and the unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.eigenvalues, dtype=float)).copy()
        u = np.asarray(self.eigenvectors).copy()
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] != w.size:
            raise ValueError("eigenvector matrix must be square and match eigenvalues")
        if (w[1:] < w[:-1]).any():
            raise ValueError("eigenvalues must be ascending")
        w.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", u)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def matrix_function(self, fn) -> np.ndarray:
        """U diag(fn(eigenvalues)) U^dagger, hermitized."""
        vals = np.asarray(fn(self.eigenvalues))
        u = self.eigenvectors
        return hermitian_part((u * vals) @ u.conj().T)


def hermitian_eig(h) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The input is validated and symmetrized by :func:`as_hermitian` before
    the decomposition, so the reconstruction U diag(w) U^dagger reproduces
    the symmetrized input to roundoff.
    """
    w, u = np.linalg.eigh(as_hermitian(h))
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


def require_positive(spectral: SpectralDecomposition) -> SpectralDecomposition:
    """Gate a decomposition on positive definiteness of its spectrum."""
    w = spectral.eigenvalues
    smallest, largest = float(w[0]), float(w[-1])
    if largest <= 0.0 or smallest <= POSITIVITY_RTOL * largest:
        raise NotPositiveDefiniteError(
            f"operator is not positive definite: smallest eigenvalue {smallest:.6e} "
            f"(largest {largest:.6e})",
            smallest=smallest,
        )
    return spectral


def power_divided_differences(eigenvalues, s) -> np.ndarray:
    """First divided differences of x**s on a positive eigenvalue grid.

    Entry (i, j) is (w_i**s - w_j**s)/(w_i - w_j) where the gap is resolved,
    and the derivative s * mean**(s-1) evaluated at the pair mean where
    |w_i - w_j| <= DEGENERACY_RTOL * max(w_i, w_j).
    """
    w = np.asarray(eigenvalues, dtype=float)
    li = w[..., :, None]
    lj = w[..., None, :]
    diff = li - lj
    near = np.abs(diff) <= DEGENERACY_RTOL * np.maximum(li, lj)
    safe = np.where(near, 1.0, diff)
    s = float(s)
    return np.where(near, s * (0.5 * (li + lj)) ** (s - 1.0), (li**s - lj**s) / safe)


def frechet_from_decomposition(spectral: SpectralDecomposition, s, x) -> np.ndarray:
    """Directional derivative of rho -> rho**s given rho's decomposition.

    In the eigenbasis the derivative acts entrywise through the divided
    differences of x**s, so the result for a Hermitian direction is Hermitian.
    """
    u = spectral.eigenvectors
    xt = u.conj().T @ x @ u
    table = power_divided_differences(spectral.eigenvalues, s)
    return hermitian_part(u @ (table * xt) @ u.conj().T)


# ---------------------------------------------------------------------------
# Finite-difference stencils
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FDConfig:
    """Step size and accuracy order of the first-derivative central stencils.

    Mixed partials are built by composing one first-derivative stencil per
    requested index; ``order`` 2 is the classic 2-point stencil, 4 the
    5-point one with O(step**4) truncation error.
    """

    step: float = 1e-3
    order: int = 2

    def __post_init__(self):
        if not (1e-6 <= self.step <= 1e-1):
            raise ValueError(f"step must lie in [1e-6, 1e-1], got {self.step!r}")
        if self.order not in (2, 4):
            raise ValueError(f"stencil order must be 2 or 4, got {self.order!r}")

    @property
    def stencil(self):
        """(offsets in steps, weights per step) of the first-derivative stencil."""
        return _STENCILS[self.order]


_STENCILS = {
    2: ((1, -1), (0.5, -0.5)),
    4: ((-2, -1, 1, 2), (1.0 / 12.0, -2.0 / 3.0, 2.0 / 3.0, -1.0 / 12.0)),
}


def mixed_partials(f, p, q, pattern, cfg: FDConfig | None = None) -> np.ndarray:
    """Central-difference estimate of a mixed partial derivative of f(p, q).

    ``pattern`` is a string over {'p', 'q'} with one character per derivative;
    axis k of the result indexes the coordinate that the k-th derivative acts
    on.  "pq" gives the matrix d^2 f / dp_i dq_j, "ppq" the rank-3 array
    d^3 f / dp_i dp_j dq_k, and "qqp" its primed-block mirror.  Evaluating the
    same block twice (p == q is the standard use) is supported.

    A non-finite value of f anywhere on the stencil raises
    :class:`NumericalDomainError`.
    """
    cfg = cfg if cfg is not None else FDConfig()
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or q.ndim != 1:
        raise ValueError("coordinate blocks must be 1-D vectors")
    if not (1 <= len(pattern) <= 3) or any(c not in "pq" for c in pattern):
        raise ValueError(f"pattern must be 1-3 characters over 'p'/'q', got {pattern!r}")
    offsets, coeffs = cfg.stencil
    h = cfg.step
    shape = tuple(p.size if c == "p" else q.size for c in pattern)
    out = np.empty(shape)
    for idx in np.ndindex(*shape):
        out[idx] = _stencil_entry(f, p, q, pattern, idx, 0, h, offsets, coeffs)
    return out


def _stencil_entry(f, p, q, pattern, idx, k, h, offsets, coeffs):
    if k == len(pattern):
        value = float(f(p, q))
        if not np.isfinite(value):
            raise NumericalDomainError(
                f"function value is not finite on the stencil at p={p!r}, q={q!r}"
            )
        return value
    total = 0.0
    for off, c in zip(offsets, coeffs):
        if pattern[k] == "p":
            p2 = p.copy()
            p2[idx[k]] += off * h
            total += c * _stencil_entry(f, p2, q, pattern, idx, k + 1, h, offsets, coeffs)
        else:
            q2 = q.copy()
            q2[idx[k]] += off * h
            total += c * _stencil_entry(f, p, q2, pattern, idx, k + 1, h, offsets, coeffs)
    return total / h
