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


# Longest vector checked, and evaluated, in plain Python rather than numpy.
# It is read by _short_pair, the one short-vector acceptance, which checks
# both measures of a pair in one pass (_measure_pair) and one measure as the
# pair (p, p) (as_measure), and by _bregman_power_sum.  A passing check of
# one measure (smallest entry positive, sum finite) costs about 1.5 us at 4
# entries and 2.3 us at 32 in Python, against 6-8 us at 33-64 entries through
# numpy; the two meet near 64-96 entries.  A pair's one pass takes 1.2 us at
# 3 entries and 3.1 us at 32, against 1.6 / 3.5 us for its two measures
# checked apart; one measure checked as (p, p) takes 1.1 / 3.0 us, against
# 0.7 / 1.6 us alone.  The kernel alone meets numpy near 24-28 entries.  A
# whole alpha_divergence_closed call at 16 / 24 entries takes 18 / 22 us with
# the Python kernel against 24 / 25 us with numpy's; at 32 it takes 29 us
# against 27 us, and 32 us with both on numpy, which is what a lower cutoff
# would give it.  quantum_alpha_divergence_closed at dim 5 (25 pair entries)
# is even, 26 us either way.  (Medians of interleaved runs, numpy 2.4, Python
# 3.11, 2-vCPU Xeon VM; the checks' figures are best of seven or nine timeit
# runs.)
_SMALL = 32


def _short_pair(p, q) -> bool:
    """True when the float arrays p and q are 1-D, share a shape of at most
    _SMALL entries, and pass both measure checks in plain Python."""
    # one list of all the entries: a min can skip a NaN, but a sum cannot; a
    # NaN or an infinity makes the sum fail, and so does an overflow of finite
    # entries.  A pair that fails goes on to the numpy checks, which accept it
    # or name what is wrong.
    if p.ndim == q.ndim == 1 and 0 < p.size == q.size <= _SMALL:
        entries = p.tolist() + q.tolist()
        return 0.0 < min(entries) and sum(entries) < math.inf
    return False


def as_measure(p) -> np.ndarray:
    """Validate and return a strictly positive measure as a float vector."""
    p = np.asarray(p, dtype=float)
    if _short_pair(p, p):
        return p
    if p.ndim != 1 or p.size == 0:
        raise ValueError("a measure must be a nonempty 1-D vector")
    if np.count_nonzero(np.isfinite(p)) != p.size:
        raise ValueError("measure entries must be finite")
    if np.count_nonzero(p <= 0.0):
        raise ValueError(f"measure entries must be strictly positive, got {p!r}")
    return p


def as_tangent(x, n) -> np.ndarray:
    """Validate a tangent vector against the dimension of its base point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"tangent vector must have shape ({n},), got {x.shape}")
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise ValueError("tangent entries must be finite")
    return x


def _measure_pair(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if _short_pair(p, q):
        return p, q
    # every other pair: each measure apart, then the shapes, so a refusal
    # names the first thing wrong in that order
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


def _chart_line(p, q, alpha, t):
    """The validated pair, beta, t, the chart line m = (1 - t) p**beta + t q**beta
    and its direction delta = q**beta - p**beta, from one pair of powers."""
    p, q = _measure_pair(p, q)
    beta = chart_exponent(alpha, geodesic=True)
    t = check_t(t)
    a = p**beta
    b = q**beta
    return p, q, beta, t, (1.0 - t) * a + t * b, b - a


def _velocity(beta, m, delta):
    """d/dt of m(t)**(1/beta) along the chart line, m' = delta."""
    return (1.0 / beta) * m ** ((1.0 - beta) / beta) * delta


def alpha_geodesic(p, q, alpha, t) -> np.ndarray:
    """Point at parameter t of the alpha-geodesic from p to q.

    Componentwise ((1-t) p_i**beta + t q_i**beta)**(1/beta) with
    beta = (1 - alpha)/2; the straight line in the alpha-embedding
    coordinates mapped back to the cone.  Endpoints are returned exactly.
    """
    p, q, beta, t, m, _ = _chart_line(p, q, alpha, t)
    if t == 0.0:
        return p.copy()
    if t == 1.0:
        return q.copy()
    return m ** (1.0 / beta)


def geodesic_velocity(p, q, alpha, t) -> np.ndarray:
    """Analytic derivative d/dt of the alpha-geodesic at parameter t."""
    _, _, beta, _, m, delta = _chart_line(p, q, alpha, t)
    return _velocity(beta, m, delta)


def geodesic_ode_residual(p, q, alpha, t) -> float:
    """Max-abs residual of the geodesic equation along the closed-form curve.

    The alpha-geodesic satisfies gamma_ddot_i = ((1+alpha)/2) gamma_dot_i^2 /
    gamma_i componentwise; this evaluates both sides from the analytic first
    and second derivatives and returns max_i of the difference.
    """
    _, _, beta, _, m, delta = _chart_line(p, q, alpha, t)
    vel = _velocity(beta, m, delta)
    acc = ((1.0 - beta) / beta**2) * m ** ((1.0 - 2.0 * beta) / beta) * delta**2
    return float(np.max(np.abs(acc - (1.0 - beta) * vel**2 / m ** (1.0 / beta))))


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
        return t * (m**c).dot(delta2) / beta**2

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


def _tsallis_sum(p, q, qparam):
    """(q/(1-q)) times the shared kernel at beta = q: the Tsallis q-divergence
    of a validated pair, q checked here.  The quantum q-divergence shares it."""
    qparam = check_q(qparam)
    return qparam * _bregman_power_sum(p, q, qparam) / (1.0 - qparam)


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
    return _tsallis_sum(*_measure_pair(p, q), qparam)
