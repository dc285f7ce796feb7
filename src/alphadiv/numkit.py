"""Shared numerical kernels.

Gauss-Legendre quadrature on [0, 1] and the node blocks its integrands run
in, the Hermiticity check and the one positivity gate, Hermitian
eigendecompositions, divided-difference derivatives of matrix power
functions, and one central-difference gradient that mixed partials fold; a
contrast's ValueError on a stencil is a numerical-domain error.

Every function here is a pure function of its inputs and deterministic for
identical inputs, so results are safe to share between threads.  Reductions
(quadrature sums, traces) use numpy's fixed pairwise order, which is
deterministic for a given input shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "DEFAULT_RULE",
    "DEGENERACY_RTOL",
    "FDConfig",
    "HERMITICITY_RTOL",
    "MAX_NODES",
    "NotPositiveDefiniteError",
    "NumericalDomainError",
    "POSITIVITY_RTOL",
    "QuadratureRule",
    "SpectralDecomposition",
    "as_hermitian",
    "blockwise",
    "chart_exponent",
    "check_alpha",
    "check_q",
    "check_t",
    "frechet_from_decomposition",
    "gauss_legendre_rule",
    "hermitian_eig",
    "hermitian_part",
    "mixed_partials",
    "power_divided_differences",
    "quadrature_sum",
    "stencil_gradient",
]

# Smallest eigenvalue must exceed this fraction of the largest one for an
# operator to count as positive definite; keeps negative fractional powers
# bounded.  require_positive is the one gate that reads it.
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


def chart_exponent(alpha, geodesic=False) -> float:
    """beta = (1 - alpha)/2 of the flat chart x -> x**beta / beta, alpha as in check_alpha."""
    return 0.5 * (1.0 - check_alpha(alpha, geodesic))


def check_q(q) -> float:
    """Validate a Tsallis parameter q strictly inside (0, 1), returned as a float."""
    q = float(q)
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie strictly inside (0, 1), got {q}")
    return q


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


# Most nodes a Gauss-Legendre rule may have.  The nodes come from an n x n
# eigenproblem, n**3 in time and n**2 in memory: building the 1024-node rule
# takes about 0.15 s and raises peak RSS by about 16 MB (8 MB of it numpy
# arrays), while 100,000 nodes would ask for some 80 GB.  The integrands add
# little to that, since they run blockwise.
MAX_NODES = 1024


def gauss_legendre_rule(n) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [0, 1], exact through degree 2n - 1, n <= MAX_NODES."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"quadrature order must be a positive integer, got {n!r}")
    if n > MAX_NODES:
        raise ValueError(f"quadrature order must be at most {MAX_NODES}, got {n!r}")
    x, w = np.polynomial.legendre.leggauss(int(n))
    return QuadratureRule(nodes=0.5 * (x + 1.0), weights=0.5 * w)


# The default rule of every geodesic-integral divergence.  The integrands are
# analytic on [0, 1] (the interpolants stay bounded away from the cone
# boundary), so Gauss-Legendre converges geometrically and 64 nodes sit far
# past the double-precision accuracy floor.
DEFAULT_RULE = gauss_legendre_rule(64)


# Bytes that each temporary of one block of integrand nodes may hold: blocks
# this small stay in the core's cache, and an integrand's memory does not grow
# with the node count.
_BLOCK_BYTES = 128 * 1024


def blockwise(f, ts, bytes_per_node):
    """The values f(t) over consecutive blocks t of the nodes ts, in node order.

    f maps a block of nodes to its values, with temporaries of about
    bytes_per_node a node.  A block holds as many nodes as _BLOCK_BYTES allows
    at bytes_per_node, rounded down to a multiple of four and at least four.
    The last block takes the rest, so it holds up to three nodes more, and
    never fewer than four unless it is the only one.  BLAS matrix-vector
    kernels (OpenBLAS's among them) sum a matrix's rows in groups of four and
    a product of one or two rows another way, so blocks like these sum each
    row, single-threaded, bit for bit as one product over all the nodes would.
    """
    step = 4 * max(1, _BLOCK_BYTES // (4 * bytes_per_node))
    cuts = [0, *range(step, ts.size - 3, step), ts.size]
    values = np.empty_like(ts)
    for lo, hi in zip(cuts, cuts[1:]):
        values[lo:hi] = f(ts[lo:hi])
    return values


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
    """m/2 + m^dagger/2, halved before the sum so that finite input stays finite."""
    return 0.5 * m + 0.5 * m.conj().T


def as_hermitian(m) -> np.ndarray:
    """Validate a Hermitian matrix and return its symmetrized complex copy.

    The matrix must be square, non-empty and finite with ||m - m^dagger||_F <=
    HERMITICITY_RTOL * ||m||_F; the zero matrix passes.  Both norms are taken
    on m divided by a power of two near max|m_ij|, which is exact, so the
    squares inside the norms cannot overflow and the verdict is that of m.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    peak = float(abs(m).max())
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


def require_positive(spectrum, what="operator"):
    """The one positivity gate, on a SpectralDecomposition or ascending eigenvalues
    (a batch of spectra along the first axis); returns its argument.

    Each spectrum needs largest > 0 and smallest > POSITIVITY_RTOL * largest,
    so a NaN one is refused; the error reports the first refused spectrum.
    """
    w = np.atleast_2d(getattr(spectrum, "eigenvalues", spectrum))
    for smallest, largest in zip(w[:, 0].tolist(), w[:, -1].tolist()):
        if not (largest > 0.0 and smallest > POSITIVITY_RTOL * largest):
            raise NotPositiveDefiniteError(
                f"{what} is not positive definite: smallest eigenvalue {smallest:.6e} "
                f"(largest {largest:.6e})",
                smallest=smallest,
            )
    return spectrum


def power_divided_differences(eigenvalues, s) -> np.ndarray:
    """First divided differences of x**s on a positive eigenvalue grid.

    Entry (i, j) is (w_i**s - w_j**s)/(w_i - w_j) where the gap is resolved,
    and the derivative s * mean**(s-1) evaluated at the pair mean where
    |w_i - w_j| <= DEGENERACY_RTOL * max(w_i, w_j).
    """
    w = np.asarray(eigenvalues, dtype=float)
    s = float(s)
    li = w[..., :, None]
    lj = w[..., None, :]
    diff = li - lj
    near = np.abs(diff) <= DEGENERACY_RTOL * np.maximum(li, lj)
    ws = w**s
    table = (ws[..., :, None] - ws[..., None, :]) / np.where(near, 1.0, diff)
    # the derivative only where it is used: the diagonal and near pairs
    table[near] = s * (0.5 * (li + lj)[near]) ** (s - 1.0)
    return table


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


# order -> (offsets in steps, weights per step) of the first-derivative stencil
_STENCILS = {
    2: ((1, -1), (0.5, -0.5)),
    4: ((-2, -1, 1, 2), (1.0 / 12.0, -2.0 / 3.0, 2.0 / 3.0, -1.0 / 12.0)),
}


def stencil_gradient(field, x, cfg: FDConfig) -> np.ndarray:
    """``out[k] = sum_o c_o field(x + o step e_k) / step`` at a float vector x.

    The one reader of the stencil table; field may be array-valued.
    """
    offsets, coeffs = _STENCILS[cfg.order]
    grad = []
    for k in range(x.size):
        acc = 0.0
        for off, c in zip(offsets, coeffs):
            shifted = x.copy()
            shifted[k] += off * cfg.step
            acc = acc + c * field(shifted)
        grad.append(acc / cfg.step)
    return np.array(grad)


def mixed_partials(f, p, q, pattern, cfg: FDConfig | None = None) -> np.ndarray:
    """Central-difference estimate of a mixed partial derivative of f(p, q).

    ``pattern`` is a string of 1-4 characters over {'p', 'q'}, one per
    derivative; axis k of the result indexes the coordinate that the k-th
    derivative acts on.  "pq" gives the matrix d^2 f / dp_i dq_j, "ppq" the
    rank-3 array d^3 f / dp_i dp_j dq_k, "qqp" its primed-block mirror, and
    "ppqq" the rank-4 array of the curvature check.  Evaluating the same block
    twice (p == q is the standard use) is supported.  Each character wraps f
    in one more :func:`stencil_gradient`, the last innermost, so a pattern of
    k characters over n coordinates evaluates f (n * len(stencil))**k times.

    A non-finite value of f on the stencil, or a ValueError f raises there (a
    point off its domain), raises :class:`NumericalDomainError` naming the point.
    """
    cfg = cfg if cfg is not None else FDConfig()
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or q.ndim != 1:
        raise ValueError("coordinate blocks must be 1-D vectors")
    if not (1 <= len(pattern) <= 4) or any(c not in "pq" for c in pattern):
        raise ValueError(f"pattern must be 1-4 characters over 'p'/'q', got {pattern!r}")

    def value(p, q):
        try:
            v = float(f(p, q))
        except ValueError as exc:
            raise NumericalDomainError(
                f"function is undefined on the stencil at p={p!r}, q={q!r}: {exc}"
            ) from exc
        if not math.isfinite(v):
            raise NumericalDomainError(
                f"function value is not finite on the stencil at p={p!r}, q={q!r}"
            )
        return v

    def partial(field, block):  # field(p, q) -> its gradient over one block
        if block == "p":
            return lambda p, q: stencil_gradient(lambda x: field(x, q), p, cfg)
        return lambda p, q: stencil_gradient(lambda x: field(p, x), q, cfg)

    # an empty block yields a 1-D empty gradient; the reshape restores every axis
    shape = tuple(p.size if c == "p" else q.size for c in pattern)
    return reduce(partial, reversed(pattern), value)(p, q).reshape(shape)
