"""Shared numerical kernels.

Gauss-Legendre quadrature on [0, 1] and the node blocks its integrands run
in, the one gate of each parameter (alpha in :func:`chart_exponent`, q in
:func:`check_q`, t in :func:`check_t`), the Hermiticity check and the one
positivity gate, Hermitian eigendecompositions, divided-difference
derivatives of matrix power functions (one formula through log1p and expm1
of the eigenvalue ratio, which subtracts no two powers, and the derivative
s * w**(s-1) only at exactly repeated eigenvalues), and central-difference
mixed partials and gradients, which build each block's stencil rows once and
evaluate the function over the product of two row lists; a contrast's
ValueError on a stencil is a numerical-domain error.

Every function here is a pure function of its inputs and deterministic for
identical inputs, so results are safe to share between threads: a
decomposition forms its adjoint eigenbasis on first read, and threads that
race to that read get the same bytes, whichever of them forms it.  Reductions
(quadrature sums, traces) use numpy's fixed pairwise order, which is
deterministic for a given input shape.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_RULE",
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


def chart_exponent(alpha, geodesic=False) -> float:
    """beta = (1 - alpha)/2 of the flat chart x -> x**beta / beta, alpha validated.

    Divergence evaluations require alpha strictly inside (-1, 1); the limits
    have dedicated entropy operations and silently clamping would mask the
    2/(1 - alpha) singularity.  Geodesic-side operations (``geodesic=True``)
    additionally accept the mixture endpoint alpha = -1 (beta = 1), where
    every formula stays regular.
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
    return 0.5 * (1.0 - alpha)


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

@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of a quadrature rule normalized to [0, 1].

    Nodes are strictly increasing inside the open interval and the weights
    are positive and sum to one (within 1e-14).  Rules compare and hash by
    identity, as arrays have no truth value to compare fields by.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float)).copy()
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float)).copy()
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ValueError("nodes and weights must be equal-length 1-D vectors")
        if np.count_nonzero(np.isfinite(nodes) & np.isfinite(weights)) != nodes.size:
            raise ValueError("nodes and weights must be finite")
        if np.count_nonzero(nodes <= 0.0) or np.count_nonzero(nodes >= 1.0):
            raise ValueError("nodes must lie in the open interval (0, 1)")
        if np.count_nonzero(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.count_nonzero(weights <= 0.0):
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
    if np.count_nonzero(bad):
        t = float(rule.nodes[bad][0])
        raise NumericalDomainError(f"integrand is not finite at node t={t!r}")
    return float(rule.weights.dot(values))


# ---------------------------------------------------------------------------
# Hermitian validation and eigendecomposition
# ---------------------------------------------------------------------------

def hermitian_part(m: np.ndarray) -> np.ndarray:
    """m/2 + m^dagger/2, halved before the sum so that finite input stays finite."""
    return 0.5 * m + 0.5 * m.conj().T


def _frobenius(x) -> float:
    """||x||_F of a complex array: np.linalg.norm(x)'s sum, bit for bit, without its dispatch."""
    x = x.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def as_hermitian(m) -> np.ndarray:
    """Validate a Hermitian matrix and return its symmetrized complex copy.

    The matrix must be square, non-empty and finite with ||m - m^dagger||_F <=
    HERMITICITY_RTOL * ||m||_F; the zero matrix passes.  Both norms are taken
    on m divided by a power of two near max|m_ij|, which is exact, so the
    squares inside the norms cannot overflow and the verdict is that of m.
    That power is at least the smallest normal float: numpy's complex
    division takes its reciprocal, which would overflow below it.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise ValueError("matrix entries must be finite")
    peak = float(np.maximum.reduce(abs(m), axis=None))
    # a power of two in (peak/2, peak], or the smallest normal float
    unit = max(math.ldexp(0.5, math.frexp(peak)[1]), sys.float_info.min)
    scaled = m / unit
    scale = _frobenius(scaled)
    defect = _frobenius(scaled - scaled.conj().T)
    if defect > HERMITICITY_RTOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: ||m - m^dagger||_F = {defect * unit:.3e} "
            f"exceeds {HERMITICITY_RTOL:g} * ||m||_F = {HERMITICITY_RTOL * scale * unit:.3e}"
        )
    return hermitian_part(m)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues and the unitary matrix of column eigenvectors.

    The adjoint U^dagger is formed on first read, as a C-contiguous read-only
    array in ``_adjoint``, which every product with U^dagger reads; a product
    with it is the same bits as one with ``eigenvectors.conj().T``, and a
    decomposition whose adjoint nothing reads never forms it.  Products are
    ``ndarray.dot``, the BLAS call of ``@`` without matmul's dispatch.
    Decompositions compare and hash by identity, as rules do.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.eigenvalues, dtype=float)).copy()
        u = np.asarray(self.eigenvectors).copy()
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] != w.size:
            raise ValueError("eigenvector matrix must be square and match eigenvalues")
        if np.count_nonzero(w[1:] < w[:-1]):
            raise ValueError("eigenvalues must be ascending")
        for name, array in (("eigenvalues", w), ("eigenvectors", u)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @functools.cached_property
    def _adjoint(self) -> np.ndarray:
        """U^dagger, C-contiguous and read-only."""
        adjoint = np.ascontiguousarray(self.eigenvectors.conj().T)
        adjoint.setflags(write=False)
        return adjoint

    def matrix_function(self, fn) -> np.ndarray:
        """U diag(fn(eigenvalues)) U^dagger, hermitized."""
        vals = np.asarray(fn(self.eigenvalues))
        return hermitian_part((self.eigenvectors * vals).dot(self._adjoint))


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

    Entry (i, j) is (w_i**s - w_j**s)/(w_i - w_j), and its limit s * w**(s-1)
    where w_i == w_j exactly.  With lo < hi the pair and P the larger of its
    two powers, it is sign(s) * P * (-expm1(-|s| log1p((hi - lo)/lo))/(hi - lo))
    (Higham & Lin, SIAM J. Matrix Anal. Appl. 32, 2011).  No two powers are
    subtracted, so nothing cancels however close the pair: an entry is within
    a few ulps of the exact value wherever |s| log1p((hi - lo)/lo) is a normal
    float.  The -expm1 term lies in [0, 1] and its quotient by hi - lo is at
    most |s|/lo, so an entry is finite wherever P and |s|/lo are.
    """
    w = np.asarray(eigenvalues, dtype=float)
    s = float(s)
    lo = np.minimum(w[..., :, None], w[..., None, :])
    gap = np.maximum(w[..., :, None], w[..., None, :]) - lo
    ws = w**s
    same = gap == 0.0
    quotient = np.expm1(np.log1p(gap / lo) * -abs(s)) / np.where(same, 1.0, gap)
    table = np.maximum(ws[..., :, None], ws[..., None, :]) * quotient * -math.copysign(1.0, s)
    table[same] = s * lo[same] ** (s - 1.0)
    return table


def frechet_from_decomposition(spectral: SpectralDecomposition, s, x) -> np.ndarray:
    """Directional derivative of rho -> rho**s given rho's decomposition.

    In the eigenbasis the derivative acts entrywise through the divided
    differences of x**s, so the result for a Hermitian direction is Hermitian.
    """
    u, adjoint = spectral.eigenvectors, spectral._adjoint
    xt = adjoint.dot(x).dot(u)
    table = power_divided_differences(spectral.eigenvalues, s)
    return hermitian_part(u.dot(table * xt).dot(adjoint))


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


def _stencil_derivative(evaluate, p, q, axes, cfg: FDConfig) -> np.ndarray:
    """Nested stencils of evaluate(p, q), one derivative per entry of axes (0 for p, 1 for q).

    Each block's derivatives must be adjacent in axes.  A block's stencil rows
    are built once: the block itself, then, for each derivative on it in
    turn, each row so far plus shift o at coordinate i for every (i, o) in C
    order, n * m rows per row (n the block's size, m = len(stencil)), added in
    derivative order as nested stencils add them.  evaluate runs once per
    pair in the product of the two row lists, the first derivative's block's
    rows outer and the other block's inner: that is the C order of the grid
    (n_0, m, n_1, m, ...), derivative j on axes 2j and 2j + 1, and so the
    order nested stencils call it in.  Axis j of the result indexes the
    coordinate that derivative j acts on; trailing axes are those of
    evaluate's value.  The offset axes are reduced innermost first with
    nested stencils' arithmetic, acc = acc + c * v and then acc / step, over
    all other axes at once.  The one reader of the stencil table.
    """
    offsets, coeffs = _STENCILS[cfg.order]
    shifts = [off * cfg.step for off in offsets]
    m, shape = len(shifts), ()
    rows = [np.asarray(x, dtype=float)[None] for x in (p, q)]
    if any(pts.ndim != 2 for pts in rows):
        raise ValueError("coordinate blocks must be 1-D vectors")
    for axis in axes:
        pts, n = rows[axis], rows[axis].shape[1]
        shape += (n, m)
        stepped = np.broadcast_to(pts[:, None, None, :], (len(pts), n, m, n)).copy()
        for k in range(n):
            stepped[:, k, :, k] += shifts
        # explicit sizes: a -1 cannot be worked out for an empty block
        rows[axis] = stepped.reshape(len(pts) * n * m, n)
    ps, qs = list(rows[0]), list(rows[1])
    if axes[0]:
        values = np.array([evaluate(x, y) for y in qs for x in ps])
    else:
        values = np.array([evaluate(x, y) for x in ps for y in qs])
    values = values.reshape(shape + values.shape[1:])
    for axis in range(2 * len(axes) - 1, 0, -2):
        acc = 0.0
        for o, c in enumerate(coeffs):
            acc = acc + c * values.take(o, axis=axis)
        values = acc / cfg.step
    return values


def stencil_gradient(field, x, cfg: FDConfig) -> np.ndarray:
    """``out[k] = sum_o c_o field(x + o step e_k) / step`` at a float vector x.

    field may be array-valued, and a ValueError it raises propagates as it is.
    """
    return _stencil_derivative(lambda x, _: field(x), x, (), (0,), cfg)


def mixed_partials(f, p, q, pattern, cfg: FDConfig) -> np.ndarray:
    """Central-difference estimate of a mixed partial derivative of f(p, q).

    ``pattern`` is a string of 1-4 characters over {'p', 'q'}, one per
    derivative, with each block's derivatives adjacent; axis k of the result
    indexes the coordinate that the k-th derivative acts on.  "pq" gives the
    matrix d^2 f / dp_i dq_j, "ppq" the rank-3 array d^3 f / dp_i dp_j dq_k,
    "qqp" its primed-block mirror, and "ppqq" the rank-4 array of the
    curvature check.  Evaluating the same block twice (p == q is the standard
    use) is supported.  An interleaved pattern such as "pqp" is refused:
    mixed partials commute, so take the grouped pattern and move its axes,
    np.moveaxis(mixed_partials(f, p, q, "ppq", cfg), 2, 1) for "pqp".  The
    stencil is cfg's, which has no default.  The estimate nests one
    first-derivative stencil per character, the first outermost: a pattern of
    k characters over n coordinates evaluates f (n * len(stencil))**k times,
    in the order nested stencils would, and with their arithmetic.

    A non-finite value of f on the stencil, or a ValueError f raises there (a
    point off its domain), raises :class:`NumericalDomainError` naming the
    first such point in that order.
    """
    if not (1 <= len(pattern) <= 4) or any(c not in "pq" for c in pattern):
        raise ValueError(f"pattern must be 1-4 characters over 'p'/'q', got {pattern!r}")
    if "pq" in pattern and "qp" in pattern:
        raise ValueError(f"pattern must keep each block's derivatives adjacent, got {pattern!r}")

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

    return _stencil_derivative(value, p, q, ["pq".index(c) for c in pattern], cfg)
