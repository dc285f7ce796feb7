"""Geometry of the cone of positive definite Hermitian operators.

The flat chart is the power embedding rho -> (2/(1-alpha)) rho**((1-alpha)/2),
under which the alpha-geodesics are straight operator lines.  Tangent vectors
are pushed forward by the derivative of the embedding (a divided-difference
operation in the eigenbasis of the base point), the Wigner-Yanase-Dyson metric
pairs the (+alpha) and (-alpha) pushforwards under the trace, and the
geodesic-integral divergence reproduces the closed-form quantum
alpha-divergence.

Operators are wrapped in :class:`PositiveOperator`, which validates
Hermiticity and positivity once and caches the spectral decomposition; all
powers and logarithms are taken through that cache.  An operator that is a
power of an already decomposed matrix (a geodesic point, the inverse of the
flat chart) is built from that decomposition, not decomposed again.
Instances are immutable and safe to share between threads.
"""

from __future__ import annotations

import numpy as np

from .numkit import (
    DEFAULT_RULE,
    NotPositiveDefiniteError,
    NumericalDomainError,
    POSITIVITY_RTOL,
    QuadratureRule,
    SpectralDecomposition,
    as_hermitian,
    check_alpha,
    check_t,
    frechet_from_decomposition,
    hermitian_eig,
    hermitian_part,
    power_divided_differences,
    quadrature_sum,
    require_positive,
)

__all__ = [
    "DensityOperator",
    "PositiveOperator",
    "alpha_embedding",
    "alpha_geodesic_q",
    "alpha_parallel_transport",
    "alpha_representation",
    "as_positive",
    "canonical_divergence_numeric_q",
    "density_alpha_divergence",
    "furuichi_q_divergence",
    "hermitian_basis",
    "operator_from_chart",
    "operator_from_theta",
    "quantum_alpha_divergence_closed",
    "quantum_q_divergence",
    "quantum_relative_entropy",
    "random_density_operator",
    "random_hermitian",
    "random_positive_operator",
    "theta_coordinates",
    "velocity_representations",
    "wyd_components_theta",
    "wyd_metric",
]

# Traces of Hermitian products are real in exact arithmetic; an imaginary
# part beyond this is an internal inconsistency, never silently discarded.
IMAG_RTOL = 1e-10


def _require_real(z, context) -> float:
    z = complex(z)
    if abs(z.imag) > IMAG_RTOL * (1.0 + abs(z.real)):
        raise NumericalDomainError(
            f"{context}: imaginary residue {z.imag:.3e} exceeds "
            f"{IMAG_RTOL:g} * (1 + |{z.real:.3e}|)"
        )
    return z.real


class PositiveOperator:
    """A positive definite Hermitian operator with its cached eigensystem.

    Validation happens once at construction, through
    :func:`numkit.hermitian_eig` and :func:`numkit.require_positive`: the
    matrix must be Hermitian relative to its Frobenius norm, its spectrum must
    satisfy smallest > 1e-12 * largest, and the stored symmetrized matrix is
    frozen.  Fractional powers and logarithms always go through the cached
    decomposition.  Operators built by this module from a known spectrum
    (:func:`alpha_geodesic_q`, :func:`operator_from_chart`) skip the second
    decomposition and keep the eigenvectors they were built from; they pass
    the same finiteness and positivity checks.
    """

    def __init__(self, matrix):
        self._spectral = require_positive(hermitian_eig(matrix))
        m = hermitian_part(np.asarray(matrix, dtype=complex))
        m.setflags(write=False)
        self._matrix = m

    @staticmethod
    def _from_spectrum(spectral: SpectralDecomposition, s) -> PositiveOperator:
        """U diag(w**s) U^dagger from a positive-gated decomposition (w, U), s > 0.

        Stores the matrix that ``PositiveOperator(spectral.matrix_function(
        lambda w: w**s))`` would store and refuses it on the same terms, but
        keeps (w**s, U) as its spectrum instead of decomposing it again.
        """
        power = SpectralDecomposition(
            eigenvalues=spectral.eigenvalues**s, eigenvectors=spectral.eigenvectors
        )
        m = power.matrix_function(lambda w: w)
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        m.setflags(write=False)
        op = object.__new__(PositiveOperator)
        op._spectral = require_positive(power)
        op._matrix = m
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
        if s == 0.0:
            return np.eye(self.dim, dtype=complex)
        return self._spectral.matrix_function(lambda w: w**s)

    def log(self) -> np.ndarray:
        """Matrix logarithm through the cached decomposition."""
        return self._spectral.matrix_function(np.log)

    def __repr__(self):
        return f"PositiveOperator(dim={self.dim}, trace={self.trace:.6g})"


class DensityOperator(PositiveOperator):
    """A positive operator with unit trace (within 1e-12)."""

    def __init__(self, matrix):
        super().__init__(matrix)
        if abs(self.trace - 1.0) > 1e-12:
            raise ValueError(f"density operator must have unit trace, got {self.trace!r}")


def as_positive(rho) -> PositiveOperator:
    return rho if isinstance(rho, PositiveOperator) else PositiveOperator(rho)


def _positive_pair(rho1, rho2):
    rho1 = as_positive(rho1)
    rho2 = as_positive(rho2)
    if rho1.dim != rho2.dim:
        raise ValueError(f"operators must share a dimension, got {rho1.dim} and {rho2.dim}")
    return rho1, rho2


def _tangent_at(rho: PositiveOperator, x) -> np.ndarray:
    x = as_hermitian(x)
    if x.shape != rho.matrix.shape:
        raise ValueError("tangent vector must match the base operator's shape")
    return x


def _same_operator(rho1: PositiveOperator, rho2: PositiveOperator) -> bool:
    return rho1 is rho2 or np.array_equal(rho1.matrix, rho2.matrix)


# ---------------------------------------------------------------------------
# Embedding, representations, transport, geodesics
# ---------------------------------------------------------------------------

def alpha_embedding(rho, alpha) -> np.ndarray:
    """Flat-chart image (2/(1-alpha)) rho**((1-alpha)/2) of the operator."""
    rho = as_positive(rho)
    alpha = check_alpha(alpha, geodesic=True)
    beta = 0.5 * (1.0 - alpha)
    return (1.0 / beta) * rho.power(beta)


def alpha_representation(rho, x, alpha) -> np.ndarray:
    """Pushforward of the tangent vector x under the flat chart.

    (2/(1-alpha)) times the derivative of rho**((1-alpha)/2) in the
    direction x; at rho = I this is x itself for every alpha.
    """
    rho = as_positive(rho)
    x = _tangent_at(rho, x)
    alpha = check_alpha(alpha, geodesic=True)
    beta = 0.5 * (1.0 - alpha)
    return (1.0 / beta) * frechet_from_decomposition(rho.spectral, beta, x)


def alpha_parallel_transport(rho1, rho2, x, alpha) -> np.ndarray:
    """Transport x from rho1 to rho2 keeping its chart image fixed.

    Returns the unique Hermitian y at rho2 whose pushforward equals the
    pushforward of x at rho1; path independent because the chart is global.
    """
    rho1, rho2 = _positive_pair(rho1, rho2)
    x = _tangent_at(rho1, x)
    alpha = check_alpha(alpha, geodesic=True)
    beta = 0.5 * (1.0 - alpha)
    image = frechet_from_decomposition(rho1.spectral, beta, x)
    u = rho2.spectral.eigenvectors
    table = power_divided_differences(rho2.eigenvalues, beta)
    y = u @ ((u.conj().T @ image @ u) / table) @ u.conj().T
    return hermitian_part(y)


def alpha_geodesic_q(rho1, rho2, alpha, t) -> PositiveOperator:
    """Point at parameter t of the alpha-geodesic from rho1 to rho2.

    The straight line between the chart images, mapped back with the inverse
    power; endpoints are returned exactly.
    """
    rho1, rho2 = _positive_pair(rho1, rho2)
    alpha = check_alpha(alpha, geodesic=True)
    t = check_t(t)
    if t == 0.0:
        return rho1
    if t == 1.0:
        return rho2
    beta = 0.5 * (1.0 - alpha)
    m = (1.0 - t) * rho1.power(beta) + t * rho2.power(beta)
    return PositiveOperator._from_spectrum(require_positive(hermitian_eig(m)), 1.0 / beta)


def velocity_representations(rho1, rho2, alpha, t):
    """(+alpha) and (-alpha) chart pushforwards of the geodesic velocity.

    With A = rho1**beta, B = rho2**beta and M(t) their interpolant, the
    (+alpha) image is the constant (2/(1-alpha)) (B - A); the (-alpha) image
    is the derivative of the dual chart along the curve, computed through the
    divided differences of x**((1+alpha)/(1-alpha)) at M(t).  Their trace
    pairing is the integrand of the geodesic-integral divergence (up to the
    factor t).
    """
    rho1, rho2 = _positive_pair(rho1, rho2)
    alpha = check_alpha(alpha)
    t = check_t(t)
    beta = 0.5 * (1.0 - alpha)
    a = rho1.power(beta)
    b = rho2.power(beta)
    v_alpha = (1.0 / beta) * (b - a)
    m = hermitian_eig((1.0 - t) * a + t * b)
    mexp = (1.0 - beta) / beta  # (1 + alpha)/(1 - alpha)
    # dual-chart pushforward: the derivative of x**mexp taken at the chart
    # image (1/beta) M(t); rescaling it to M(t) collapses the chart constants
    # to beta/(1 - beta)
    image = frechet_from_decomposition(m, mexp, v_alpha)
    v_dual = (beta / (1.0 - beta)) * image
    return v_alpha, v_dual


def _divergence_integrand(a, b, alpha, ts):
    """t * Tr(velocity (+a) image . velocity (-a) image) batched over nodes.

    Evaluated in the eigenbasis of M(t) = (1-t)A + tB through the divided
    differences of x**((1+alpha)/(1-alpha)); manifestly real and nonnegative
    because that power function is increasing on the positive axis.
    """
    beta = 0.5 * (1.0 - alpha)
    w = b - a
    m = (1.0 - ts)[:, None, None] * a[None] + ts[:, None, None] * b[None]
    evals, vecs = np.linalg.eigh(m)
    if np.any(evals[:, 0] <= POSITIVITY_RTOL * evals[:, -1]):
        raise NotPositiveDefiniteError(
            "geodesic interpolant lost positive definiteness",
            smallest=float(evals[:, 0].min()),
        )
    wt = np.swapaxes(vecs.conj(), 1, 2) @ w[None] @ vecs
    mexp = (1.0 - beta) / beta
    tables = power_divided_differences(evals, mexp)
    pair = np.einsum("tij,tij->t", tables, np.abs(wt) ** 2)
    return ts * pair / (beta * (1.0 - beta))


def canonical_divergence_numeric_q(rho1, rho2, alpha, rule: QuadratureRule = DEFAULT_RULE) -> float:
    """Geodesic-integral divergence int_0^1 t ||gamma_dot(t)||^2 dt.

    The norm is the Wigner-Yanase-Dyson pairing of the two chart pushforwards
    of the velocity; the integral is evaluated with the given quadrature rule
    (64-node Gauss-Legendre by default).  Nonnegative, and in exact
    arithmetic equal to :func:`quantum_alpha_divergence_closed`.
    """
    rho1, rho2 = _positive_pair(rho1, rho2)
    alpha = check_alpha(alpha)
    beta = 0.5 * (1.0 - alpha)
    values = _divergence_integrand(rho1.power(beta), rho2.power(beta), alpha, rule.nodes)
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
    return _require_real(value, "wyd_metric trace")


def hermitian_basis(n) -> np.ndarray:
    """Orthonormal Hermitian basis of the n x n operators, shape (n*n, n, n).

    Generalized Gell-Mann construction: symmetric and antisymmetric
    off-diagonal pairs, traceless diagonal ladder, scaled identity last;
    orthonormal under Tr(A_i A_j) = delta_ij.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
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
    """Coefficients of the Hermitian matrix h in the orthonormal basis."""
    h = as_hermitian(h)
    return np.einsum("kij,ji->k", basis, h).real


def operator_from_theta(theta, basis) -> np.ndarray:
    """Hermitian matrix with the given basis coefficients."""
    theta = np.asarray(theta, dtype=float)
    return hermitian_part(np.einsum("k,kij->ij", theta, basis))


def operator_from_chart(theta, basis, alpha) -> PositiveOperator:
    """Invert the flat chart at the given basis coefficients.

    The coefficients describe the chart image (2/(1-alpha)) rho**((1-alpha)/2)
    in the basis; the image must be positive definite for the point to lie on
    the cone, otherwise :class:`NotPositiveDefiniteError` is raised.
    """
    alpha = check_alpha(alpha, geodesic=True)
    beta = 0.5 * (1.0 - alpha)
    chart = beta * operator_from_theta(theta, basis)
    spectral = require_positive(hermitian_eig(chart))
    return PositiveOperator._from_spectrum(spectral, 1.0 / beta)


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
    alpha = check_alpha(alpha)
    beta = 0.5 * (1.0 - alpha)
    u = rho.spectral.eigenvectors
    rotated = u.conj().T @ hermitian_basis(rho.dim) @ u
    kernel = (beta / (1.0 - beta)) * (
        power_divided_differences(rho.eigenvalues, 1.0 - beta)
        / power_divided_differences(rho.eigenvalues, beta)
    )
    raw = np.einsum("iab,jab,ab->ij", rotated.conj(), rotated, kernel)
    residue = float(np.linalg.norm(raw.imag))
    if residue > IMAG_RTOL * (1.0 + float(np.linalg.norm(raw))):
        raise NumericalDomainError(
            f"metric component array has imaginary residue {residue:.3e}"
        )
    return hermitian_part(raw).real


# ---------------------------------------------------------------------------
# Closed-form divergences
# ---------------------------------------------------------------------------

def _mixed_power_trace(rho1: PositiveOperator, rho2: PositiveOperator, beta) -> float:
    """Tr(rho1**beta rho2**(1-beta)) as a checked real number."""
    value = np.einsum("ij,ji->", rho1.power(beta), rho2.power(1.0 - beta))
    return _require_real(value, "mixed power trace")


def quantum_alpha_divergence_closed(rho1, rho2, alpha) -> float:
    """Closed-form quantum alpha-divergence on positive definite operators.

    (4/(1-alpha^2)) Tr( ((1-alpha)/2) rho1 + ((1+alpha)/2) rho2
                        - rho1**((1-alpha)/2) rho2**((1+alpha)/2) ).

    Rejects alpha = +-1; the limits are the (extended) quantum relative
    entropy and its reverse.  Returns exactly 0.0 for identical operators.
    """
    rho1, rho2 = _positive_pair(rho1, rho2)
    alpha = check_alpha(alpha)
    if _same_operator(rho1, rho2):
        return 0.0
    beta = 0.5 * (1.0 - alpha)
    core = beta * rho1.trace + (1.0 - beta) * rho2.trace - _mixed_power_trace(rho1, rho2, beta)
    return core / (beta * (1.0 - beta))


def quantum_relative_entropy(rho1, rho2, extended=False) -> float:
    """Tr(rho1 (log rho1 - log rho2)) via spectral logarithms.

    With ``extended=True`` the positive-measure form
    Tr(rho2 - rho1 + rho1 log rho1 - rho1 log rho2) is returned, which is the
    alpha -> -1 limit of the quantum alpha-divergence on non-normalized
    operators; the two forms coincide on density operators.
    """
    rho1, rho2 = _positive_pair(rho1, rho2)
    value = _require_real(
        np.einsum("ij,ji->", rho1.matrix, rho1.log() - rho2.log()),
        "relative entropy trace",
    )
    if extended:
        value += rho2.trace - rho1.trace
    return value


def quantum_q_divergence(rho1, rho2, qparam) -> float:
    """(1/(1-q)) Tr(q rho1 + (1-q) rho2 - rho1**q rho2**(1-q)), 0 < q < 1.

    Coincides with ((1-alpha)/2) times the quantum alpha-divergence at
    alpha = 1 - 2q.
    """
    rho1, rho2 = _positive_pair(rho1, rho2)
    qparam = float(qparam)
    if not (0.0 < qparam < 1.0):
        raise ValueError(f"q must lie strictly inside (0, 1), got {qparam}")
    if _same_operator(rho1, rho2):
        return 0.0
    core = (
        qparam * rho1.trace
        + (1.0 - qparam) * rho2.trace
        - _mixed_power_trace(rho1, rho2, qparam)
    )
    return core / (1.0 - qparam)


def furuichi_q_divergence(rho1, rho2, qparam) -> float:
    """(Tr rho1 - Tr(rho1**q rho2**(1-q))) / (1 - q), 0 <= q < 1.

    Reduces to the Tsallis relative entropy on density operators, where it
    agrees with :func:`quantum_q_divergence`; on non-normalized operators the
    two differ by Tr(rho2 - rho1).
    """
    rho1, rho2 = _positive_pair(rho1, rho2)
    qparam = float(qparam)
    if not (0.0 <= qparam < 1.0):
        raise ValueError(f"q must lie in [0, 1), got {qparam}")
    if _same_operator(rho1, rho2):
        return 0.0
    return (rho1.trace - _mixed_power_trace(rho1, rho2, qparam)) / (1.0 - qparam)


def density_alpha_divergence(rho1, rho2, alpha) -> float:
    """Alpha-divergence restricted to density operators.

    (4/(1-alpha^2)) (1 - Tr(rho1**((1-alpha)/2) rho2**((1+alpha)/2))).
    Both arguments must have unit trace within 1e-12.
    """
    rho1, rho2 = _positive_pair(rho1, rho2)
    alpha = check_alpha(alpha)
    for name, op in (("first", rho1), ("second", rho2)):
        if abs(op.trace - 1.0) > 1e-12:
            raise ValueError(
                f"{name} argument must be a density operator (unit trace), "
                f"got trace {op.trace!r}"
            )
    if _same_operator(rho1, rho2):
        return 0.0
    beta = 0.5 * (1.0 - alpha)
    return (1.0 - _mixed_power_trace(rho1, rho2, beta)) / (beta * (1.0 - beta))


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


def random_positive_operator(rng: np.random.Generator, dim, spectrum=(0.2, 4.0)) -> PositiveOperator:
    """Seeded positive operator: uniform spectrum conjugated by a QR unitary."""
    lam = rng.uniform(spectrum[0], spectrum[1], size=dim)
    u = _random_unitary(rng, dim)
    return PositiveOperator((u * lam) @ u.conj().T)


def random_density_operator(rng: np.random.Generator, dim, spectrum=(0.2, 4.0)) -> DensityOperator:
    """Seeded density operator: normalized uniform spectrum, QR unitary."""
    lam = rng.uniform(spectrum[0], spectrum[1], size=dim)
    lam = lam / lam.sum()
    u = _random_unitary(rng, dim)
    return DensityOperator((u * lam) @ u.conj().T)
