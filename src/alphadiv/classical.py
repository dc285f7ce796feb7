"""Geometry of the cone of strictly positive measures on {1, ..., n}.

Points are positive vectors p = (p_1, ..., p_n).  The cone carries the Fisher
metric g(X, Y) = sum_i X_i Y_i / p_i and the one-parameter family of flat
alpha-connections that interpolates the mixture (alpha = -1) and exponential
(alpha = +1) connections.  For |alpha| < 1 the alpha-geodesics are straight
lines in the coordinates p_i -> p_i**((1-alpha)/2), which makes the geodesic
integral of t ||gamma_dot(t)||^2 computable by fixed Gauss-Legendre quadrature
and equal, in exact arithmetic, to the closed-form alpha-divergence.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .numkit import (
    DEFAULT_RULE, QuadratureRule, blockwise, chart_exponent, check_q, check_t, quadrature_sum,
)

__all__ = [
    "alpha_christoffel",
    "alpha_coordinates",
    "alpha_divergence_closed",
    "alpha_geodesic",
    "alpha_pushforward",
    "as_measure",
    "as_tangent",
    "canonical_divergence_numeric",
    "fisher_metric",
    "geodesic_ode_residual",
    "geodesic_velocity",
    "kl_extended",
    "tsallis_q_divergence",
]


# Longest vector that as_measure checks, and _bregman_power_sum evaluates, in
# plain Python rather than numpy.  A passing check costs about 1.0 us at 4
# entries and 3.6 us at 32 in Python, against 4.4-5.7 us at any size through
# numpy; the two meet near 48 entries.  The kernel alone meets numpy near
# 24-28 entries.  A whole alpha_divergence_closed call at 16 / 24 entries
# takes 18 / 22 us with the Python kernel against 24 / 25 us with numpy's;
# at 32 it takes 29 us against 27 us, and 32 us with both on numpy, which is
# what a lower cutoff would give it.  quantum_alpha_divergence_closed at dim 5
# (25 pair entries) is even, 26 us either way.  (Medians of interleaved runs,
# numpy 2.4, Python 3.11, 2-vCPU Xeon VM.)
_SMALL = 32


def as_measure(p) -> np.ndarray:
    """Validate and return a strictly positive measure as a float vector."""
    p = np.asarray(p, dtype=float)
    # each entry is compared on its own, so a NaN fails here (a min or max over
    # the entries can skip one); a vector that fails goes on to the numpy
    # checks, which name what is wrong with it
    if p.ndim == 1 and 0 < p.size <= _SMALL and all(0.0 < x < math.inf for x in p.tolist()):
        return p
    if p.ndim != 1 or p.size == 0:
        raise ValueError("a measure must be a nonempty 1-D vector")
    if not np.isfinite(p).all():
        raise ValueError("measure entries must be finite")
    if (p <= 0.0).any():
        raise ValueError(f"measure entries must be strictly positive, got {p!r}")
    return p


def as_tangent(x, n) -> np.ndarray:
    """Validate a tangent vector against the dimension of its base point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"tangent vector must have shape ({n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("tangent entries must be finite")
    return x


def _measure_pair(p, q):
    p = as_measure(p)
    q = as_measure(q)
    if p.shape != q.shape:
        raise ValueError(f"measures must share a dimension, got {p.size} and {q.size}")
    return p, q


def fisher_metric(p, x, y) -> float:
    """Fisher inner product sum_i x_i y_i / p_i at the point p."""
    p = as_measure(p)
    x = as_tangent(x, p.size)
    y = as_tangent(y, p.size)
    return float(np.sum(x * y / p))


def alpha_christoffel(p, alpha) -> np.ndarray:
    """Connection coefficients of the alpha-connection in measure coordinates.

    Returns the array G with G[i, j, k] = Gamma^k_{ij}; the only nonzero
    entries are G[i, i, i] = -((1 + alpha)/2) / p_i.  Regular for every real
    alpha, including the mixture (-1, identically zero) and exponential (+1)
    endpoints.
    """
    p = as_measure(p)
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    n = p.size
    gamma = np.zeros((n, n, n))
    idx = np.arange(n)
    gamma[idx, idx, idx] = -0.5 * (1.0 + alpha) / p
    return gamma


def _interpolant(p, q, beta, t):
    """(1 - t) p**beta + t q**beta."""
    return (1.0 - t) * p**beta + t * q**beta


def alpha_geodesic(p, q, alpha, t) -> np.ndarray:
    """Point at parameter t of the alpha-geodesic from p to q.

    Componentwise ((1-t) p_i**beta + t q_i**beta)**(1/beta) with
    beta = (1 - alpha)/2; the straight line in the alpha-embedding
    coordinates mapped back to the cone.  Endpoints are returned exactly.
    """
    p, q = _measure_pair(p, q)
    beta = chart_exponent(alpha, geodesic=True)
    t = check_t(t)
    if t == 0.0:
        return p.copy()
    if t == 1.0:
        return q.copy()
    return _interpolant(p, q, beta, t) ** (1.0 / beta)


def geodesic_velocity(p, q, alpha, t) -> np.ndarray:
    """Analytic derivative d/dt of the alpha-geodesic at parameter t."""
    p, q = _measure_pair(p, q)
    beta = chart_exponent(alpha, geodesic=True)
    t = check_t(t)
    delta = q**beta - p**beta
    return (1.0 / beta) * _interpolant(p, q, beta, t) ** ((1.0 - beta) / beta) * delta


def geodesic_ode_residual(p, q, alpha, t) -> float:
    """Max-abs residual of the geodesic equation along the closed-form curve.

    The alpha-geodesic satisfies gamma_ddot_i = ((1+alpha)/2) gamma_dot_i^2 /
    gamma_i componentwise; this evaluates both sides from the analytic first
    and second derivatives and returns max_i of the difference.
    """
    p, q = _measure_pair(p, q)
    beta = chart_exponent(alpha, geodesic=True)
    t = check_t(t)
    delta = q**beta - p**beta
    m = _interpolant(p, q, beta, t)
    gamma = m ** (1.0 / beta)
    vel = (1.0 / beta) * m ** ((1.0 - beta) / beta) * delta
    acc = ((1.0 - beta) / beta**2) * m ** ((1.0 - 2.0 * beta) / beta) * delta**2
    return float(np.max(np.abs(acc - (1.0 - beta) * vel**2 / gamma)))


def alpha_coordinates(p, alpha) -> np.ndarray:
    """Flat-chart image (2/(1-alpha)) p**((1-alpha)/2) of the point p."""
    p = as_measure(p)
    beta = chart_exponent(alpha, geodesic=True)
    return (1.0 / beta) * p**beta


def alpha_pushforward(p, x, alpha) -> np.ndarray:
    """Tangent image of x under the flat chart: x_i * p_i**(-(1+alpha)/2)."""
    p = as_measure(p)
    x = as_tangent(x, p.size)
    beta = chart_exponent(alpha, geodesic=True)
    return x * p ** (beta - 1.0)


def _integrand_values(p, q, beta, ts):
    """t * ||gamma_dot(t)||^2 in the Fisher norm at the nodes, vectorized over
    one numkit.blockwise block (n floats a node) at a time."""
    a = p**beta
    b = q**beta
    delta2 = (b - a) ** 2
    c = (1.0 - 2.0 * beta) / beta

    def block(t):
        m = (1.0 - t)[:, None] * a + t[:, None] * b
        return t * ((m**c) @ delta2) / beta**2

    return blockwise(block, ts, a.nbytes)


def canonical_divergence_numeric(p, q, alpha, rule: QuadratureRule = DEFAULT_RULE) -> float:
    """Geodesic-integral divergence int_0^1 t ||gamma_dot(t)||^2 dt.

    The curve is the alpha-geodesic from p to q and the norm is the Fisher
    norm at the moving point; the integral is evaluated with the given
    quadrature rule (64-node Gauss-Legendre by default).  Nonnegative, and in
    exact arithmetic equal to :func:`alpha_divergence_closed`.
    """
    p, q = _measure_pair(p, q)
    beta = chart_exponent(alpha)
    return quadrature_sum(rule, _integrand_values(p, q, beta, rule.nodes))


def _bregman_power_sum(p, q, beta):
    """Sum of Bregman divergences of x**(1/beta) between p**beta and q**beta.

    Algebraically, (beta/(1-beta)) times this sum is the Tsallis form and
    1/(1-beta) times it the alpha-divergence; grouping the terms this way
    returns exactly 0.0 at p == q and keeps each summand nonnegative up to
    roundoff.  Takes validated arrays; the quantum closed forms share it.
    """
    mexp = 1.0 / beta
    mm1 = (1.0 - beta) / beta
    # up to _SMALL entries in Python floats, same grouping, summed left to
    # right; a Python power raises OverflowError where numpy's returns inf, so
    # such a vector goes on to the numpy lines and its sum is inf
    if p.size <= _SMALL:
        try:
            total = 0.0
            for x, y in zip(p.tolist(), q.tolist()):
                a = x**beta
                b = y**beta
                total += a**mexp - b**mexp - mexp * b**mm1 * (a - b)
            return total
        except OverflowError:
            pass
    a = p**beta
    b = q**beta
    bregman = a**mexp - b**mexp - mexp * b**mm1 * (a - b)
    return float(bregman.sum())


def alpha_divergence_closed(p, q, alpha) -> float:
    """Closed-form alpha-divergence on positive measures.

    sum_i ( (2/(1-alpha)) q_i + (2/(1+alpha)) p_i
            - (4/(1-alpha^2)) q_i**((1+alpha)/2) p_i**((1-alpha)/2) ).

    Nonnegative, zero exactly when p == q.  Rejects alpha = +-1; the limits
    are kl_extended(p, q) (alpha -> -1) and kl_extended(q, p) (alpha -> +1).
    """
    p, q = _measure_pair(p, q)
    beta = chart_exponent(alpha)
    return _bregman_power_sum(p, q, beta) / (1.0 - beta)


def _kl_sum(p, q):
    """sum_i (q_i - p_i - p_i log(q_i/p_i)); exactly 0.0 at p == q."""
    return float(np.sum(q - p - p * np.log(q / p)))


def kl_extended(p, q) -> float:
    """Kullback-Leibler divergence extended to positive measures.

    sum_i (q_i - p_i - p_i log(q_i/p_i)); the alpha -> -1 limit of the
    alpha-divergence.  On the simplex it reduces to sum_i p_i log(p_i/q_i).
    """
    p, q = _measure_pair(p, q)
    return _kl_sum(p, q)


def tsallis_q_divergence(p, q, qparam) -> float:
    """Tsallis q-divergence on positive measures, 0 < q < 1.

    (1/(1-q)) sum_i (q p_i + (1-q) q_i - p_i**q q_i**(1-q)).  Coincides with
    ((1-alpha)/2) times the alpha-divergence at alpha = 1 - 2q.
    """
    p, q = _measure_pair(p, q)
    qparam = check_q(qparam)
    return qparam * _bregman_power_sum(p, q, qparam) / (1.0 - qparam)
