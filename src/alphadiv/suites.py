"""Seeded verification suites behind the command-line ``verify`` subcommand.

Each suite runs a fixed set of invariant checks with reproducible random
inputs and returns one record per check: name, measured worst-case error,
tolerance, and pass flag.  Randomness is fully determined by the seed.
"""

from __future__ import annotations

import math

import numpy as np

from . import classical, quantum, recovery
from .numkit import NotPositiveDefiniteError, chart_exponent

__all__ = [
    "ALPHA_GRID",
    "SUITE_TOLERANCES",
    "gate_error",
    "quadrature_gap",
    "random_measure",
    "run_suite",
    "spectral_reduction_gap",
    "structure_errors",
    "tsallis_gap",
]

ALPHA_GRID = (-0.9, -0.5, 0.0, 0.5, 0.9)

# q values of the suites' Tsallis scaling checks
_QPARAMS = (0.25, 0.3, 0.5, 0.7, 0.75)

SUITE_TOLERANCES = {"classical": 1e-9, "quantum": 1e-8, "recovery": 1e-4}


def _worst(errors, start=0.0):
    """max(start, *errors), except that one NaN error makes the result NaN.

    The builtin max keeps its running value against a NaN (every comparison
    with NaN is false), which would read a NaN error as a pass.  Every error
    is consumed, so a NaN does not change which inputs a suite draws.
    """
    worst = start
    for error in errors:
        if error > worst or math.isnan(error):
            worst = error
    return worst


def _check(name, error, tolerance):
    return {
        "check": name,
        "max_error": float(error),
        "tolerance": float(tolerance),
        "pass": bool(error <= tolerance),
    }


def _negativity(values):
    """-min(0.0, *values), NaN when a value is NaN."""
    return _worst((-v for v in values), start=-0.0)


def random_measure(rng, dim, lo=0.1, hi=5.0):
    """A measure with dim components drawn uniformly from [lo, hi)."""
    return rng.uniform(lo, hi, size=dim)


def gate_error(value, reference):
    """|value - reference| / (1 + |reference|): the error the quadrature gates bound."""
    return abs(value - reference) / (1.0 + abs(reference))


def quadrature_gap(pairs, closed, quadrature):
    """Worst gate_error of quadrature against closed over pairs and ALPHA_GRID."""
    return _worst(
        gate_error(quadrature(x, y, a), closed(x, y, a)) for x, y in pairs for a in ALPHA_GRID
    )


def tsallis_gap(pairs, tsallis, closed, qparams):
    """Worst |D_q - ((1 - alpha)/2) D_alpha| at alpha = 1 - 2q over pairs and q."""
    gaps = []
    for x, y in pairs:
        for qp in qparams:
            a = 1.0 - 2.0 * qp
            lhs = tsallis(x, y, qp)
            rhs = chart_exponent(a) * closed(x, y, a)
            gaps.append(abs(lhs - rhs))
    return _worst(gaps)


def _limit_check(closed, x, y, limit):
    """Record whether |closed(x, y, alpha) - limit| shrinks as alpha = -1 + 10**-k, k = 2..6."""
    gaps = [abs(closed(x, y, -1.0 + 10.0**-k) - limit) for k in range(2, 7)]
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    return _check("limit approach is monotone", 0.0 if monotone else 1.0, 0.5)


def structure_errors(points, alphas):
    """Worst recovery errors of the classical alpha-divergences over points x alphas.

    Returns (metric error relative to the largest Fisher entry, connection
    error against the library's alpha-connection lowered by the Fisher metric,
    duality defect, structures), where ``structures[i][a]`` is the structure
    recovered at ``points[i]`` for alpha ``a``, for checks that read it further.
    """
    metric_errs, christoffel_errs, defects, structures = [], [], [], []
    for p in points:
        basis = np.eye(p.size)
        fisher = np.array([[classical.fisher_metric(p, x, y) for y in basis] for x in basis])
        structures.append({})
        for a in alphas:
            div = lambda x, y, a=a: classical.alpha_divergence_closed(x, y, a)
            structure = structures[-1][a] = recovery.recover_structure(div, p)
            metric_errs.append(
                float(np.max(np.abs(structure.metric - fisher)) / np.max(np.abs(fisher)))
            )
            # Gamma_ijk = Gamma^k_ij g_kk, the Fisher metric being diag(1/p)
            expected = classical.alpha_christoffel(p, a) / p
            christoffel_errs.append(float(np.max(np.abs(structure.christoffel - expected))))
            defects.append(recovery.duality_defect(structure, div))
    return _worst(metric_errs), _worst(christoffel_errs), _worst(defects), structures


def spectral_reduction_gap(p, q):
    """Worst gap between divergences of diag(p), diag(q) and their classical forms.

    Alpha (closed form and quadrature, over ALPHA_GRID), extended relative
    entropy against extended KL, and Tsallis at q = 0.3.
    """
    d1, d2 = quantum.PositiveOperator(np.diag(p)), quantum.PositiveOperator(np.diag(q))
    gaps = []
    for a in ALPHA_GRID:
        gaps += [
            abs(
                quantum.quantum_alpha_divergence_closed(d1, d2, a)
                - classical.alpha_divergence_closed(p, q, a)
            ),
            abs(
                quantum.canonical_divergence_numeric_q(d1, d2, a)
                - classical.canonical_divergence_numeric(p, q, a)
            ),
        ]
    gaps.append(abs(quantum.quantum_relative_entropy(d1, d2) - classical.kl_extended(p, q)))
    gaps.append(
        abs(quantum.quantum_q_divergence(d1, d2, 0.3) - classical.tsallis_q_divergence(p, q, 0.3))
    )
    return _worst(gaps)


def run_classical_suite(trials, seed, tol):
    rng = np.random.default_rng(seed)
    checks = []

    pairs = []
    for _ in range(trials):
        dim = int(rng.integers(1, 7))
        pairs.append((random_measure(rng, dim), random_measure(rng, dim)))

    worst = quadrature_gap(
        pairs, classical.alpha_divergence_closed, classical.canonical_divergence_numeric
    )
    checks.append(_check("quadrature matches closed form", worst, tol))

    worst = _worst(
        gate_error(
            classical.canonical_divergence_numeric(p, q, -a),
            classical.canonical_divergence_numeric(q, p, a),
        )
        for p, q in pairs[:25]
        for a in ALPHA_GRID
    )
    checks.append(_check("dual equals argument swap", worst, 1e-9))

    worst = _worst(
        classical.geodesic_ode_residual(p, q, a, t)
        for p, q in pairs[:10]
        for a in ALPHA_GRID
        for t in np.linspace(0.1, 0.9, 9)
    )
    checks.append(_check("geodesic equation residual", worst, 1e-10))

    values, ondiag = [], []
    for p, q in pairs:
        for a in ALPHA_GRID:
            values.append(classical.alpha_divergence_closed(p, q, a))
            ondiag.append(abs(classical.alpha_divergence_closed(p, p, a)))
        values += [classical.kl_extended(p, q), classical.kl_extended(q, p)]
        ondiag.append(abs(classical.kl_extended(p, p)))
    checks.append(_check("divergences nonnegative", _negativity(values), 1e-12))
    checks.append(_check("divergences vanish on the diagonal", _worst(ondiag), 1e-14))

    worst = tsallis_gap(
        pairs[:20], classical.tsallis_q_divergence, classical.alpha_divergence_closed, _QPARAMS
    )
    checks.append(_check("Tsallis scaling identity", worst, 1e-13))

    p = np.array([2.0, 1.0])
    q = np.array([1.0, 1.0])
    limit = classical.kl_extended(p, q)
    checks.append(_limit_check(classical.alpha_divergence_closed, p, q, limit))

    gaps = []
    for p, q in pairs[:10]:
        for a in ALPHA_GRID:
            for t in (0.25, 0.5, 0.75):
                lhs = t * (classical.alpha_coordinates(q, a) - classical.alpha_coordinates(p, a))
                mid = classical.alpha_geodesic(p, q, a, t)
                vel = classical.geodesic_velocity(p, q, a, t)
                rhs = classical.alpha_pushforward(mid, t * vel, a)
                gaps.append(float(np.max(np.abs(lhs - rhs))))
    checks.append(_check("transported inverse exponential identity", _worst(gaps), 1e-12))

    return checks


def run_quantum_suite(trials, seed, tol):
    rng = np.random.default_rng(seed)
    checks = []

    pairs = []
    for _ in range(trials):
        dim = int(rng.integers(2, 7))
        pairs.append(
            (
                quantum.random_positive_operator(rng, dim),
                quantum.random_positive_operator(rng, dim),
            )
        )

    worst = quadrature_gap(
        pairs, quantum.quantum_alpha_divergence_closed, quantum.canonical_divergence_numeric_q
    )
    checks.append(_check("quadrature matches closed form", worst, tol))

    gaps = []
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        p = random_measure(rng, dim, *quantum.RANDOM_SPECTRUM)
        q = random_measure(rng, dim, *quantum.RANDOM_SPECTRUM)
        gaps.append(spectral_reduction_gap(p, q))
    checks.append(_check("spectral reduction to the classical cone", _worst(gaps), 1e-12))

    gaps = []
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        ops = [quantum.random_positive_operator(rng, dim) for _ in range(3)]
        x = quantum.random_hermitian(rng, dim)
        for a in (-0.5, 0.0, 0.5):
            y = quantum.alpha_parallel_transport(ops[0], ops[1], x, a)
            y = quantum.alpha_parallel_transport(ops[1], ops[2], y, a)
            y = quantum.alpha_parallel_transport(ops[2], ops[0], y, a)
            gaps.append(float(np.max(np.abs(y - x))))
    checks.append(_check("parallel transport around a loop", _worst(gaps), 1e-10))

    gaps = []
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        rho = quantum.random_positive_operator(rng, dim)
        x = quantum.random_hermitian(rng, dim)
        y = quantum.random_hermitian(rng, dim)
        for a in (-0.5, 0.0, 0.5):
            gaps.append(abs(quantum.wyd_metric(rho, x, y, a) - quantum.wyd_metric(rho, y, x, a)))
            gaps.append(abs(quantum.wyd_metric(rho, x, y, a) - quantum.wyd_metric(rho, y, x, -a)))
    checks.append(_check("metric pairing symmetry and duality", _worst(gaps), 1e-12))

    values = []
    for r1, r2 in pairs:
        for a in ALPHA_GRID:
            values.append(quantum.quantum_alpha_divergence_closed(r1, r2, a))
        values.append(quantum.quantum_relative_entropy(r1, r2))
        values.append(quantum.quantum_q_divergence(r1, r2, 0.4))
    checks.append(_check("divergences nonnegative", _negativity(values), 1e-12))

    worst = tsallis_gap(
        pairs[:20], quantum.quantum_q_divergence, quantum.quantum_alpha_divergence_closed, _QPARAMS
    )
    checks.append(_check("Tsallis scaling identity", worst, 1e-13))

    r1 = quantum.PositiveOperator(np.array([[2.0, 1.0], [1.0, 2.0]]))
    r2 = quantum.PositiveOperator(np.diag([1.0, 2.0]))
    ref = quantum.quantum_relative_entropy(r1, r2)
    checks.append(_limit_check(quantum.quantum_alpha_divergence_closed, r1, r2, ref))

    gaps = []
    for r1, r2 in pairs[:10]:
        for a in ALPHA_GRID:
            e1, e2 = quantum.alpha_embedding(r1, a), quantum.alpha_embedding(r2, a)
            for t in (0.25, 0.5, 0.75):
                mid = quantum.alpha_embedding(quantum.alpha_geodesic_q(r1, r2, a, t), a)
                gaps.append(float(np.max(np.abs(mid - ((1.0 - t) * e1 + t * e2)))))
    checks.append(_check("alpha-geodesic is the straight chart line", _worst(gaps), 1e-12))

    return checks


def run_recovery_suite(trials, seed, tol):
    rng = np.random.default_rng(seed)
    checks = []

    points = []
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        points.append(rng.uniform(0.5, 3.0, size=dim))
    metric_err, christoffel_err, defect_err, structures = structure_errors(
        points, (-0.5, 0.0, 0.5)
    )
    checks.append(_check("Fisher metric recovery (relative)", metric_err, 1e-5))
    checks.append(_check("connection coefficient recovery", christoffel_err, tol))
    checks.append(_check("duality defect", defect_err, tol))

    # R vanishes term by term on these sums over components: this check
    # detects a NaN or a stencil failure, not a wrong curvature formula
    curv = _worst(
        float(np.max(np.abs(recovery.curvature(
            recovered[a], lambda x, y, a=a: classical.alpha_divergence_closed(x, y, a)
        ))))
        for recovered in structures[:2]
        for a in (0.0, 0.5)
    )
    checks.append(_check("flatness (curvature residual)", curv, recovery.FLATNESS_BOUND))

    p0 = np.array([1.0, 1.0])
    structure = recovery.recover_structure(recovery.half_squared_distance, p0)
    euclid_err = _worst(
        [
            float(np.max(np.abs(structure.metric - np.eye(2)))),
            float(np.max(np.abs(structure.christoffel))),
            float(np.max(np.abs(structure.christoffel_dual))),
        ]
    )
    checks.append(_check("Euclidean reference structure", euclid_err, 1e-5))
    checks.append(
        _check(
            "Euclidean reference defect",
            recovery.duality_defect(structure, recovery.half_squared_distance),
            1e-5,
        )
    )

    def quartic(x, y):
        return float(np.sum((x - y) ** 4))

    try:
        recovery.recover_structure(quartic, np.array([1.0, 2.0]))
        degenerate_rejected = False
    except NotPositiveDefiniteError:
        degenerate_rejected = True
    checks.append(
        _check("degenerate contrast rejected", 0.0 if degenerate_rejected else 1.0, 0.5)
    )

    div_closed = lambda x, y: classical.alpha_divergence_closed(x, y, 0.5)
    div_numeric = lambda x, y: classical.canonical_divergence_numeric(x, y, 0.5)

    p = np.array([1.0, 2.0])
    s_closed = recovery.recover_structure(div_closed, p)
    s_numeric = recovery.recover_structure(div_numeric, p)
    agree = _worst(
        [
            float(np.max(np.abs(s_closed.metric - s_numeric.metric))),
            float(np.max(np.abs(s_closed.christoffel - s_numeric.christoffel))),
        ]
    )
    checks.append(_check("quadrature path recovers the same structure", agree, tol))

    return checks


_RUNNERS = {
    "classical": run_classical_suite,
    "quantum": run_quantum_suite,
    "recovery": run_recovery_suite,
}


def run_suite(name, trials, seed, tolerance=None):
    """Run one named suite (or 'all') and return its check records."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if name != "all" and name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}")
    records = []
    for key in _RUNNERS if name == "all" else (name,):
        tol = SUITE_TOLERANCES[key] if tolerance is None else tolerance
        records.extend({**record, "suite": key} for record in _RUNNERS[key](trials, seed, tol))
    return records
