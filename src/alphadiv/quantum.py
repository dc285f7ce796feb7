"""Geometry of the cone of positive definite Hermitian operators.

The flat chart is the power embedding rho -> (2/(1-alpha)) rho**((1-alpha)/2),
under which the alpha-geodesics are straight operator lines.  Tangent vectors
are pushed forward by the derivative of the embedding (a divided-difference
operation in the eigenbasis of the base point), the Wigner-Yanase-Dyson metric
pairs the (+alpha) and (-alpha) pushforwards under the trace, and the
geodesic-integral divergence reproduces the closed-form quantum
alpha-divergence.

Operators are wrapped in :class:`PositiveOperator`, which validates
Hermiticity and positivity once and caches the spectral decomposition, whose
adjoint eigenbasis U^dagger is formed on first read.  Powers are taken through
that cache, and the closed forms are sums over the Nussbaum-Szkola pair built
from two cached eigensystems (its exact zeros dropped; with none, which two
counts decide, no mask or copy is made), and each is a classical kernel:
Furuichi's is the q-divergence plus Tr(rho1 - rho2), and the relative entropy
is the extended one.  A product of two matrices is ndarray.dot, the BLAS call
of @ without matmul's dispatch; @ stays where it runs over a stack of matrices
(the quadrature's batched interpolant, the metric components' rotated basis).
The inverse of the flat chart (geodesic points, :func:`operator_from_chart`)
decomposes the chart matrix once, as it is, and keeps its eigenbasis: the
package builds that matrix exactly Hermitian, so only its finiteness is
checked before the decomposition.  :func:`operator_from_chart` keeps the last
160 points it built, the working set of an operator-dim-2 recovery: a repeated
chart point returns the one shared immutable instance built for it first, and
only a build gates alpha.  Its one caller is :func:`alpha_chart_contrast`,
which returns the chart point of an operator and the quantum alpha-divergence
between chart points, the contrast from which recovery differentiates the flat
alpha-geometry.  The quadrature integrand alone decomposes the geodesic
interpolant, in batches, one block of nodes at a time
(:func:`numkit.blockwise`); at a node t it is t * wyd_metric(gamma(t), v, v,
alpha), v the transport from the identity to gamma(t) of (rho2**beta -
rho1**beta)/beta.  Instances are immutable and safe to share between threads.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from .classical import _bregman_power_sum, _kl_sum, _tsallis_sum
from .numkit import (
    DEFAULT_RULE,
    NumericalDomainError,
    QuadratureRule,
    SpectralDecomposition,
    _frobenius,
    as_hermitian,
    blockwise,
    chart_exponent,
    check_t,
    frechet_from_decomposition,
    hermitian_eig,
    hermitian_part,
    power_divided_differences,
    quadrature_sum,
    require_positive,
)

__all__ = [
    "PositiveOperator",
    "alpha_chart_contrast",
    "alpha_embedding",
    "alpha_geodesic_q",
    "alpha_parallel_transport",
    "alpha_representation",
    "as_positive",
    "canonical_divergence_numeric_q",
    "furuichi_q_divergence",
    "hermitian_basis",
    "operator_from_chart",
    "operator_from_theta",
    "quantum_alpha_divergence_closed",
    "quantum_q_divergence",
    "quantum_relative_entropy",
    "random_hermitian",
    "random_positive_operator",
    "theta_coordinates",
    "wyd_components_theta",
    "wyd_metric",
]

# Traces of Hermitian products are real in exact arithmetic; an imaginary
# part beyond this is an internal inconsistency, never silently discarded.
IMAG_RTOL = 1e-10

# Entries of the inverse-chart memo behind operator_from_chart: the working
# set of an operator-dim-2 recovery, so that each of its chart points is built
# once.  recover_structure and duality_defect look up 25,090 points there,
# 403-420 of them distinct (8 seeded operators x alpha in {-0.5, 0, 0.5} and
# three of the benchmark's, 4th-order stencil at step 1e-3); they build up to
# 284 points more than that at 64 entries, 120 at 128, 48 at 144 and none from
# 148 on.  At dim 3, recover_structure alone looks up 189,218 points, 689-704
# distinct, which no memo this small holds.  An entry holds its chart point, a
# reference to the basis bytes it shares with the others, and one operator:
# about 1.3 KB at dim 2 (tracemalloc), some 210 KB for the full memo.  A
# process that imports the package again, as the benchmark does each pass,
# keeps a dropped module's memo until a cyclic garbage collection, so its
# peak RSS can grow by more than one memo.
CHART_MEMO_SIZE = 160

RANDOM_SPECTRUM = (0.2, 4.0)  # eigenvalue range of the seeded random operators


def _require_real(z, context):
    """Re z, refusing |Im z| > IMAG_RTOL (1 + |Re z|) (Frobenius norms on arrays)."""
    z = np.asarray(z)
    residue, scale = _frobenius(z.imag), _frobenius(z.real)
    if residue > IMAG_RTOL * (1.0 + scale):
        raise NumericalDomainError(
            f"{context}: imaginary residue {residue:.3e} exceeds {IMAG_RTOL:g} * (1 + {scale:.3e})"
        )
    return z.real


class PositiveOperator:
    """A positive definite Hermitian operator with its cached eigensystem.

    Validation happens once at construction, through
    :func:`numkit.hermitian_eig` and :func:`numkit.require_positive`: the
    matrix must be Hermitian relative to its Frobenius norm, its spectrum must
    satisfy largest > 0 and smallest > 1e-12 * largest (NaN fails), and the
    stored symmetrized matrix is frozen.  The inverse of the flat chart,
    :meth:`_from_chart`, decomposes the chart matrix, which the package
    builds exactly Hermitian, without the Hermiticity check, keeps its
    eigenbasis, and passes the same finiteness and positivity checks.
    """

    def __init__(self, matrix):
        self._spectral = require_positive(hermitian_eig(matrix))
        m = hermitian_part(np.asarray(matrix, dtype=complex))
        m.setflags(write=False)
        self._matrix = m

    @staticmethod
    def _from_chart(m, beta) -> PositiveOperator:
        """The operator whose beta-th power is the Hermitian matrix m, beta > 0.

        Both callers build m exactly Hermitian (a Hermitian part times a real
        number, or a real combination of two), on which
        :func:`numkit.as_hermitian` would return the same bits, so m is only
        checked finite before it is decomposed as it is.  With m = U diag(w)
        U^dagger positive-gated, stores the matrix that
        ``PositiveOperator(U diag(w**(1/beta)) U^dagger)`` would store but
        keeps (w**(1/beta), U) as its spectrum.  Refuses a largest power above
        float max / 4, below which no entry of the matrix can overflow.
        """
        if np.count_nonzero(np.isfinite(m)) != m.size:
            raise ValueError("matrix entries must be finite")
        w, u = np.linalg.eigh(m)
        require_positive(w)
        if not float(w[-1]) <= (sys.float_info.max / 4) ** beta:
            raise ValueError("matrix entries must be finite")
        power = SpectralDecomposition(w ** (1.0 / beta), u)
        matrix = power.matrix_function(lambda w: w)
        matrix.setflags(write=False)
        op = object.__new__(PositiveOperator)
        op._spectral = require_positive(power)
        op._matrix = matrix
        return op

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def spectral(self) -> SpectralDecomposition:
        return self._spectral

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectral.eigenvalues

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self._matrix).real)

    def power(self, s) -> np.ndarray:
        """rho**s through the cached decomposition."""
        s = float(s)
        return self._spectral.matrix_function(lambda w: w**s)

    def __repr__(self):
        return f"PositiveOperator(dim={self.dim}, trace={self.trace:.6g})"


def as_positive(rho) -> PositiveOperator:
    return rho if isinstance(rho, PositiveOperator) else PositiveOperator(rho)


def _positive_pair(rho1, rho2):
    rho1 = as_positive(rho1)
    rho2 = as_positive(rho2)
    if rho1._matrix.shape != rho2._matrix.shape:
        raise ValueError(f"operators must share a dimension, got {rho1.dim} and {rho2.dim}")
    return rho1, rho2


def _tangent_at(rho: PositiveOperator, x) -> np.ndarray:
    x = as_hermitian(x)
    if x.shape != rho.matrix.shape:
        raise ValueError("tangent vector must match the base operator's shape")
    return x


def _spectral_pair(rho1: PositiveOperator, rho2: PositiveOperator):
    """Nussbaum-Szkola pair p_ij = l_i |<u_i|v_j>|^2, q_ij = m_j |<u_i|v_j>|^2.

    Entries where p or q is an exact zero (orthogonal eigenvectors, or a
    product that underflows) are dropped and the rest kept in row-major
    order; when nothing is dropped, which two nonzero counts decide, the
    pair is the two flattened tables, no mask or copy made.  Identical
    operators give (l, l), one array twice, on which the shared kernels
    return exactly 0.0.
    """
    s1 = rho1._spectral
    # the same stored matrix (shapes already match); -0.0 equals 0.0
    if rho1 is rho2 or not np.count_nonzero(rho1._matrix != rho2._matrix):
        return s1.eigenvalues, s1.eigenvalues
    s2 = rho2._spectral
    overlap = np.abs(s1._adjoint.dot(s2.eigenvectors)) ** 2
    p = s1.eigenvalues[:, None] * overlap
    q = s2.eigenvalues * overlap
    if np.count_nonzero(p) + np.count_nonzero(q) == 2 * p.size:
        return p.ravel(), q.ravel()
    keep = np.logical_and(p, q)
    return p[keep], q[keep]


# ---------------------------------------------------------------------------
# Embedding, representations, transport, geodesics
# ---------------------------------------------------------------------------

def alpha_embedding(rho, alpha) -> np.ndarray:
    """Flat-chart image (2/(1-alpha)) rho**((1-alpha)/2) of the operator."""
    rho = as_positive(rho)
    beta = chart_exponent(alpha, geodesic=True)
    return (1.0 / beta) * rho.power(beta)


def alpha_representation(rho, x, alpha) -> np.ndarray:
    """Pushforward of the tangent vector x under the flat chart.

    (2/(1-alpha)) times the derivative of rho**((1-alpha)/2) in the
    direction x; at rho = I this is x itself for every alpha.
    """
    rho = as_positive(rho)
    x = _tangent_at(rho, x)
    beta = chart_exponent(alpha, geodesic=True)
    return (1.0 / beta) * frechet_from_decomposition(rho.spectral, beta, x)


def alpha_parallel_transport(rho1, rho2, x, alpha) -> np.ndarray:
    """Transport x from rho1 to rho2 keeping its chart image fixed.

    Returns the unique Hermitian y at rho2 whose pushforward equals the
    pushforward of x at rho1; path independent because the chart is global.
    """
    rho1, rho2 = _positive_pair(rho1, rho2)
    x = _tangent_at(rho1, x)
    beta = chart_exponent(alpha, geodesic=True)
    image = frechet_from_decomposition(rho1.spectral, beta, x)
    u, adjoint = rho2.spectral.eigenvectors, rho2.spectral._adjoint
    table = power_divided_differences(rho2.eigenvalues, beta)
    y = u.dot(adjoint.dot(image).dot(u) / table).dot(adjoint)
    return hermitian_part(y)


def alpha_geodesic_q(rho1, rho2, alpha, t) -> PositiveOperator:
    """Point at parameter t of the alpha-geodesic from rho1 to rho2.

    The straight line between the chart images, mapped back with the inverse
    power; endpoints are returned exactly.
    """
    rho1, rho2 = _positive_pair(rho1, rho2)
    beta = chart_exponent(alpha, geodesic=True)
    t = check_t(t)
    if t == 0.0:
        return rho1
    if t == 1.0:
        return rho2
    return PositiveOperator._from_chart((1.0 - t) * rho1.power(beta) + t * rho2.power(beta), beta)


def _divergence_integrand(a, b, beta, ts):
    """t * Tr(v_alpha v_dual) at the nodes, one numkit.blockwise block of
    nodes at a time (an n x n complex matrix a node); nonnegative, as
    x**((1-beta)/beta) increases.  With M(t) = (1-t)A + tB = U diag(w)
    U^dagger, v_alpha = (B - A)/beta and v_dual the dual chart's derivative
    along the curve, the pairing weighs |U^dagger (B - A) U|^2 by the divided
    differences of x**((1-beta)/beta) on w, each w positivity-gated."""

    def block(t):
        m = (1.0 - t)[:, None, None] * a[None] + t[:, None, None] * b[None]
        evals, vecs = np.linalg.eigh(m)
        require_positive(evals, "geodesic interpolant")
        wt = np.swapaxes(vecs.conj(), 1, 2) @ (b - a)[None] @ vecs
        tables = power_divided_differences(evals, (1.0 - beta) / beta)
        pair = np.einsum("tij,tij->t", tables, np.abs(wt) ** 2)
        return t * pair / (beta * (1.0 - beta))

    return blockwise(block, ts, a.nbytes)


def canonical_divergence_numeric_q(rho1, rho2, alpha, rule: QuadratureRule = DEFAULT_RULE) -> float:
    """Geodesic-integral divergence int_0^1 t ||gamma_dot(t)||^2 dt.

    The norm is the Wigner-Yanase-Dyson pairing of the two chart pushforwards
    of the velocity; the integral is evaluated with the given quadrature rule
    (64-node Gauss-Legendre by default).  Nonnegative, and in exact
    arithmetic equal to :func:`quantum_alpha_divergence_closed`.
    """
    rho1, rho2 = _positive_pair(rho1, rho2)
    beta = chart_exponent(alpha)
    values = _divergence_integrand(rho1.power(beta), rho2.power(beta), beta, rule.nodes)
    return quadrature_sum(rule, values)


# ---------------------------------------------------------------------------
# Metric
# ---------------------------------------------------------------------------

def wyd_metric(rho, x, y, alpha) -> float:
    """Wigner-Yanase-Dyson inner product Tr(x^(+alpha) y^(-alpha)) at rho.

    Real by construction (the imaginary residue is checked, not discarded),
    symmetric in (x, y), and equal to the Fisher metric on the spectrum for
    commuting diagonal data.
    """
    rho = as_positive(rho)
    value = np.einsum(
        "ij,ji->",
        alpha_representation(rho, x, alpha),
        alpha_representation(rho, y, -alpha),
    )
    return float(_require_real(value, "wyd_metric trace"))


def hermitian_basis(n) -> np.ndarray:
    """Orthonormal Hermitian basis of the n x n operators, shape (n*n, n, n).

    Generalized Gell-Mann construction: symmetric and antisymmetric
    off-diagonal pairs, traceless diagonal ladder, scaled identity last;
    orthonormal under Tr(A_i A_j) = delta_ij.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    basis = []
    for j in range(n):
        for k in range(j + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            basis.append(sym)
            skew = np.zeros((n, n), dtype=complex)
            skew[j, k] = -1j / np.sqrt(2.0)
            skew[k, j] = 1j / np.sqrt(2.0)
            basis.append(skew)
    for l in range(1, n):
        diag = np.zeros(n)
        diag[:l] = 1.0
        diag[l] = -float(l)
        basis.append(np.diag(diag).astype(complex) / np.sqrt(l * (l + 1.0)))
    basis.append(np.eye(n, dtype=complex) / np.sqrt(float(n)))
    return np.stack(basis)


def theta_coordinates(h, basis) -> np.ndarray:
    """Coefficients Tr(A_k h) of the Hermitian matrix h in the orthonormal basis.

    Real for a Hermitian basis; an imaginary residue is refused, not discarded.
    """
    h = as_hermitian(h)
    return _require_real(np.einsum("kij,ji->k", basis, h), "theta coordinates")


def operator_from_theta(theta, basis) -> np.ndarray:
    """Hermitian matrix with the given basis coefficients."""
    theta = np.asarray(theta, dtype=float)
    return hermitian_part(np.einsum("k,kij->ij", theta, basis))


def operator_from_chart(theta, basis, alpha) -> PositiveOperator:
    """Invert the flat chart at the given basis coefficients.

    The coefficients describe the chart image (2/(1-alpha)) rho**((1-alpha)/2)
    in the basis; the image must be positive definite for the point to lie on
    the cone, otherwise :class:`NotPositiveDefiniteError` is raised.

    The last CHART_MEMO_SIZE results are kept, keyed on the bytes, shapes and
    dtypes of theta and basis and on float(alpha): a call that repeats a
    point returns the shared immutable instance built for it first, which the
    computation without the memo reproduces bit for bit, and runs no alpha
    gate; only a build gates alpha (:func:`numkit.chart_exponent`).  Refusals
    are not kept, so a refused alpha is refused on every call.
    """
    theta = np.asarray(theta, dtype=float)
    basis = np.asarray(basis)
    key = theta.tobytes(), theta.shape, _shared(basis.tobytes()), basis.shape, basis.dtype
    return _chart_operator(*key, float(alpha))


@functools.lru_cache(maxsize=1)
def _shared(data):
    """The bytes object first seen with this content, so that memo entries on
    one basis hold one copy of it (n**4 complex entries) instead of 64."""
    return data


@functools.lru_cache(maxsize=CHART_MEMO_SIZE)
def _chart_operator(theta_bytes, theta_shape, basis_bytes, basis_shape, basis_dtype, alpha):
    """The inverse chart at the point the key spells out, rebuilt from its bytes;
    alpha is gated here, so only a build runs the gate and a refusal is not kept."""
    beta = chart_exponent(alpha, geodesic=True)
    theta = np.frombuffer(theta_bytes).reshape(theta_shape)
    basis = np.frombuffer(basis_bytes, dtype=basis_dtype).reshape(basis_shape)
    return PositiveOperator._from_chart(beta * operator_from_theta(theta, basis), beta)


def alpha_chart_contrast(rho, alpha):
    """The alpha-chart contrast at rho, as (point, contrast).

    point holds the coefficients of the chart image (2/(1-alpha))
    rho**((1-alpha)/2) in ``hermitian_basis(rho.dim)``, and contrast(x, y) is
    the closed-form quantum alpha-divergence of the two operators whose chart
    images have coefficients x and y, built by :func:`operator_from_chart`:
    the contrast whose recovered structure is the flat alpha-geometry of the
    cone in its affine chart.  A coefficient vector off the cone raises
    :class:`NotPositiveDefiniteError`.
    """
    rho = as_positive(rho)
    basis = hermitian_basis(rho.dim)
    point = theta_coordinates(alpha_embedding(rho, alpha), basis)

    def contrast(x, y):
        r1 = operator_from_chart(x, basis, alpha)
        r2 = operator_from_chart(y, basis, alpha)
        return quantum_alpha_divergence_closed(r1, r2, alpha)

    return point, contrast


def wyd_components_theta(rho, alpha) -> np.ndarray:
    """Metric components in the flat-chart coordinates over a fixed basis.

    g_ij is the Wigner-Yanase-Dyson pairing of the tangent vectors whose
    (+alpha) chart images are the orthonormal Hermitian basis elements A_i.
    In the eigenbasis of rho (eigenvalues l, A~ = U^dagger A U) that is

        g_ij = sum_ab conj(A~_i)_ab (A~_j)_ab T_ab,
        T = [D(l**(1-beta)) / (1-beta)] / [D(l**beta) / beta],

    with beta = (1-alpha)/2 and D the first divided differences.  The array
    is real in exact arithmetic (its imaginary residue is checked, not
    discarded) and the returned matrix is its symmetric real part.  Positive
    definite for positive definite rho, and the identity matrix at rho = I.
    """
    rho = as_positive(rho)
    beta = chart_exponent(alpha)
    rotated = rho.spectral._adjoint @ hermitian_basis(rho.dim) @ rho.spectral.eigenvectors
    kernel = (beta / (1.0 - beta)) * (
        power_divided_differences(rho.eigenvalues, 1.0 - beta)
        / power_divided_differences(rho.eigenvalues, beta)
    )
    raw = np.einsum("iab,jab,ab->ij", rotated.conj(), rotated, kernel)
    return hermitian_part(_require_real(raw, "metric component array"))


# ---------------------------------------------------------------------------
# Closed-form divergences
# ---------------------------------------------------------------------------

def quantum_alpha_divergence_closed(rho1, rho2, alpha) -> float:
    """Closed-form quantum alpha-divergence on positive definite operators.

    (4/(1-alpha^2)) Tr( ((1-alpha)/2) rho1 + ((1+alpha)/2) rho2
                        - rho1**((1-alpha)/2) rho2**((1+alpha)/2) ).

    Rejects alpha = +-1; the limits are the (extended) quantum relative
    entropy and its reverse.  Returns exactly 0.0 for identical operators.
    """
    pair = _spectral_pair(*_positive_pair(rho1, rho2))
    beta = chart_exponent(alpha)
    return _bregman_power_sum(*pair, beta) / (1.0 - beta)


def quantum_relative_entropy(rho1, rho2) -> float:
    """Tr(rho2 - rho1 + rho1 log rho1 - rho1 log rho2) on the Nussbaum-Szkola pair.

    The extended quantum relative entropy, the alpha -> -1 limit of the
    quantum alpha-divergence on the whole positive cone; on density operators
    it is Tr(rho1 (log rho1 - log rho2)).  Summed by the classical kernel of
    :func:`classical.kl_extended`, so it returns exactly 0.0 for identical
    operators.
    """
    return _kl_sum(*_spectral_pair(*_positive_pair(rho1, rho2)))


def quantum_q_divergence(rho1, rho2, qparam) -> float:
    """(1/(1-q)) Tr(q rho1 + (1-q) rho2 - rho1**q rho2**(1-q)), 0 < q < 1.

    Coincides with ((1-alpha)/2) times the quantum alpha-divergence at
    alpha = 1 - 2q.
    """
    return _tsallis_sum(*_spectral_pair(*_positive_pair(rho1, rho2)), qparam)


def furuichi_q_divergence(rho1, rho2, qparam) -> float:
    """(Tr rho1 - Tr(rho1**q rho2**(1-q))) / (1 - q), 0 < q < 1.

    Computed as the identity quantum_q_divergence(rho1, rho2, q) +
    Tr(rho1 - rho2), with no power sum of its own; the trace gap is taken
    from the difference of the stored matrices, which near the diagonal
    rounds less than the difference of their traces.  Exactly 0.0 for
    identical operators.  Reduces to the Tsallis relative entropy on density
    operators, where the trace gap is zero.
    """
    r1, r2 = _positive_pair(rho1, rho2)
    return quantum_q_divergence(r1, r2, qparam) + float(np.trace(r1.matrix - r2.matrix).real)


# ---------------------------------------------------------------------------
# Seeded random operators (verification plumbing)
# ---------------------------------------------------------------------------

def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def random_hermitian(rng: np.random.Generator, dim) -> np.ndarray:
    """Seeded Hermitian matrix: symmetrized complex Gaussian entries."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(g)


def random_positive_operator(rng: np.random.Generator, dim) -> PositiveOperator:
    """Seeded positive operator: uniform RANDOM_SPECTRUM draw conjugated by a QR unitary."""
    lam = rng.uniform(*RANDOM_SPECTRUM, size=dim)
    u = _random_unitary(rng, dim)
    return PositiveOperator((u * lam).dot(u.conj().T))
