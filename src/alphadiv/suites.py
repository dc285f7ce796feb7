"""Seeded verification suites behind the command-line ``verify`` subcommand.

Each suite runs a fixed set of invariant checks with reproducible random
inputs and returns one record per check: name, measured worst-case error,
tolerance, and pass flag.  Randomness is fully determined by the seed.
"""

from __future__ import annotations

import numpy as np

from . import classical, quantum, recovery
from .numkit import NotPositiveDefiniteError

__all__ = [
    "ALPHA_GRID",
    "SUITE_TOLERANCES",
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


def _check(name, error, tolerance):
    return {
        "check": name,
        "max_error": float(error),
        "tolerance": float(tolerance),
        "pass": bool(error <= tolerance),
    }


def random_measure(rng, dim, lo=0.1, hi=5.0):
    """A measure with dim components drawn uniformly from [lo, hi)."""
    return rng.uniform(lo, hi, size=dim)


def quadrature_gap(pairs, closed, quadrature):
    """Worst |quadrature - closed| / (1 + |closed|) over pairs and ALPHA_GRID."""
    worst = 0.0
    for x, y in pairs:
        for a in ALPHA_GRID:
            reference = closed(x, y, a)
            numeric = quadrature(x, y, a)
            worst = max(worst, abs(numeric - reference) / (1.0 + abs(reference)))
    return worst


def tsallis_gap(pairs, tsallis, closed, qparams):
    """Worst |D_q - ((1 - alpha)/2) D_alpha| at alpha = 1 - 2q over pairs and q."""
    worst = 0.0
    for x, y in pairs:
        for qp in qparams:
            a = 1.0 - 2.0 * qp
            lhs = tsallis(x, y, qp)
            rhs = 0.5 * (1.0 - a) * closed(x, y, a)
            worst = max(worst, abs(lhs - rhs))
    return worst


def structure_errors(points, alphas):
    """Worst recovery errors of the classical alpha-divergences over points x alphas.

    Returns (metric error relative to the largest Fisher entry, connection
    error against Gamma_iii = -(1 + alpha)/(2 p_i**2), duality defect).
    """
    metric_err = christoffel_err = defect_err = 0.0
    for p in points:
        for a in alphas:
            div = _classical_alpha_div(a)
            structure = recovery.recover_structure(div, p)
            fisher = np.diag(1.0 / p)
            metric_err = max(
                metric_err,
                float(np.max(np.abs(structure.metric - fisher)) / np.max(np.abs(fisher))),
            )
            expected = np.zeros_like(structure.christoffel)
            idx = np.arange(p.size)
            expected[idx, idx, idx] = -0.5 * (1.0 + a) / p**2
            christoffel_err = max(
                christoffel_err, float(np.max(np.abs(structure.christoffel - expected)))
            )
            defect_err = max(defect_err, recovery.duality_defect(structure, div))
    return metric_err, christoffel_err, defect_err


def spectral_reduction_gap(p, q):
    """Worst gap between divergences of diag(p), diag(q) and their classical forms.

    Alpha (closed form and quadrature, over ALPHA_GRID), extended relative
    entropy against extended KL, and Tsallis at q = 0.3.
    """
    d1, d2 = quantum.PositiveOperator(np.diag(p)), quantum.PositiveOperator(np.diag(q))
    worst = 0.0
    for a in ALPHA_GRID:
        worst = max(
            worst,
            abs(
                quantum.quantum_alpha_divergence_closed(d1, d2, a)
                - classical.alpha_divergence_closed(p, q, a)
            ),
            abs(
                quantum.canonical_divergence_numeric_q(d1, d2, a)
                - classical.canonical_divergence_numeric(p, q, a)
            ),
        )
    return max(
        worst,
        abs(quantum.quantum_relative_entropy(d1, d2, extended=True) - classical.kl_extended(p, q)),
        abs(quantum.quantum_q_divergence(d1, d2, 0.3) - classical.tsallis_q_divergence(p, q, 0.3)),
    )


def run_classical_suite(trials, seed, tolerance=None):
    tol = SUITE_TOLERANCES["classical"] if tolerance is None else tolerance
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

    worst = 0.0
    for p, q in pairs[:25]:
        for a in ALPHA_GRID:
            dual = classical.dual_canonical_divergence(p, q, a)
            swapped = classical.canonical_divergence_numeric(q, p, a)
            worst = max(worst, abs(dual - swapped) / (1.0 + abs(swapped)))
    checks.append(_check("dual equals argument swap", worst, 1e-9))

    worst = 0.0
    for p, q in pairs[:10]:
        for a in ALPHA_GRID:
            for t in np.linspace(0.1, 0.9, 9):
                worst = max(worst, classical.geodesic_ode_residual(p, q, a, t))
    checks.append(_check("geodesic equation residual", worst, 1e-10))

    neg = 0.0
    ondiag = 0.0
    for p, q in pairs:
        for a in ALPHA_GRID:
            neg = min(neg, classical.alpha_divergence_closed(p, q, a))
            ondiag = max(ondiag, abs(classical.alpha_divergence_closed(p, p, a)))
        neg = min(neg, classical.kl_extended(p, q), classical.kl_extended_reversed(p, q))
        ondiag = max(ondiag, abs(classical.kl_extended(p, p)))
    checks.append(_check("divergences nonnegative", -neg, 1e-12))
    checks.append(_check("divergences vanish on the diagonal", ondiag, 1e-14))

    worst = tsallis_gap(
        pairs[:20], classical.tsallis_q_divergence, classical.alpha_divergence_closed, _QPARAMS
    )
    checks.append(_check("Tsallis scaling identity", worst, 1e-13))

    p = np.array([2.0, 1.0])
    q = np.array([1.0, 1.0])
    gaps = [
        abs(classical.alpha_divergence_closed(p, q, -1.0 + 10.0**-k) - classical.kl_extended(p, q))
        for k in range(2, 7)
    ]
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    checks.append(_check("limit approach is monotone", 0.0 if monotone else 1.0, 0.5))

    worst = 0.0
    for p, q in pairs[:10]:
        for a in ALPHA_GRID:
            for t in (0.25, 0.5, 0.75):
                lhs = t * (classical.alpha_coordinates(q, a) - classical.alpha_coordinates(p, a))
                mid = classical.alpha_geodesic(p, q, a, t)
                vel = classical.geodesic_velocity(p, q, a, t)
                rhs = classical.alpha_pushforward(mid, t * vel, a)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    checks.append(_check("transported inverse exponential identity", worst, 1e-12))

    return checks


def run_quantum_suite(trials, seed, tolerance=None):
    tol = SUITE_TOLERANCES["quantum"] if tolerance is None else tolerance
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

    worst = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        p = random_measure(rng, dim, 0.2, 4.0)
        q = random_measure(rng, dim, 0.2, 4.0)
        worst = max(worst, spectral_reduction_gap(p, q))
    checks.append(_check("spectral reduction to the classical cone", worst, 1e-12))

    worst = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        ops = [quantum.random_positive_operator(rng, dim) for _ in range(3)]
        x = quantum.random_hermitian(rng, dim)
        for a in (-0.5, 0.0, 0.5):
            y = quantum.alpha_parallel_transport(ops[0], ops[1], x, a)
            y = quantum.alpha_parallel_transport(ops[1], ops[2], y, a)
            y = quantum.alpha_parallel_transport(ops[2], ops[0], y, a)
            worst = max(worst, float(np.max(np.abs(y - x))))
    checks.append(_check("parallel transport around a loop", worst, 1e-10))

    worst = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        rho = quantum.random_positive_operator(rng, dim)
        x = quantum.random_hermitian(rng, dim)
        y = quantum.random_hermitian(rng, dim)
        for a in (-0.5, 0.0, 0.5):
            worst = max(
                worst,
                abs(quantum.wyd_metric(rho, x, y, a) - quantum.wyd_metric(rho, y, x, a)),
                abs(quantum.wyd_metric(rho, x, y, a) - quantum.wyd_metric(rho, y, x, -a)),
            )
    checks.append(_check("metric pairing symmetry and duality", worst, 1e-12))

    neg = 0.0
    for r1, r2 in pairs:
        for a in ALPHA_GRID:
            neg = min(neg, quantum.quantum_alpha_divergence_closed(r1, r2, a))
        neg = min(neg, quantum.quantum_relative_entropy(r1, r2, extended=True))
        neg = min(neg, quantum.quantum_q_divergence(r1, r2, 0.4))
    checks.append(_check("divergences nonnegative", -neg, 1e-12))

    worst = tsallis_gap(
        pairs[:20], quantum.quantum_q_divergence, quantum.quantum_alpha_divergence_closed, _QPARAMS
    )
    checks.append(_check("Tsallis scaling identity", worst, 1e-13))

    r1 = quantum.PositiveOperator(np.array([[2.0, 1.0], [1.0, 2.0]]))
    r2 = quantum.PositiveOperator(np.diag([1.0, 2.0]))
    ref = quantum.quantum_relative_entropy(r1, r2, extended=True)
    gaps = [
        abs(quantum.quantum_alpha_divergence_closed(r1, r2, -1.0 + 10.0**-k) - ref)
        for k in range(2, 7)
    ]
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    checks.append(_check("limit approach is monotone", 0.0 if monotone else 1.0, 0.5))

    return checks


def run_recovery_suite(trials, seed, tolerance=None):
    tol = SUITE_TOLERANCES["recovery"] if tolerance is None else tolerance
    rng = np.random.default_rng(seed)
    checks = []

    points = []
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        points.append(rng.uniform(0.5, 3.0, size=dim))
    metric_err, christoffel_err, defect_err = structure_errors(points, (-0.5, 0.0, 0.5))
    checks.append(_check("Fisher metric recovery (relative)", metric_err, 1e-5))
    checks.append(_check("connection coefficient recovery", christoffel_err, tol))
    checks.append(_check("duality defect", defect_err, tol))

    curv = 0.0
    for p in points[:2]:
        for a in (0.0, 0.5):
            curv = max(curv, recovery.curvature_max(_classical_alpha_div(a), p))
    checks.append(_check("flatness (curvature residual)", curv, 1e-3))

    p0 = np.array([1.0, 1.0])
    structure = recovery.recover_structure(recovery.half_squared_distance, p0)
    euclid_err = max(
        float(np.max(np.abs(structure.metric - np.eye(2)))),
        float(np.max(np.abs(structure.christoffel))),
        float(np.max(np.abs(structure.christoffel_dual))),
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

    div_closed = _classical_alpha_div(0.5)

    def div_numeric(x, y):
        return classical.canonical_divergence_numeric(x, y, 0.5)

    p = np.array([1.0, 2.0])
    s_closed = recovery.recover_structure(div_closed, p)
    s_numeric = recovery.recover_structure(div_numeric, p)
    agree = max(
        float(np.max(np.abs(s_closed.metric - s_numeric.metric))),
        float(np.max(np.abs(s_closed.christoffel - s_numeric.christoffel))),
    )
    checks.append(_check("quadrature path recovers the same structure", agree, tol))

    return checks


def _classical_alpha_div(alpha):
    def div(x, y):
        return classical.alpha_divergence_closed(x, y, alpha)

    return div


_RUNNERS = {
    "classical": run_classical_suite,
    "quantum": run_quantum_suite,
    "recovery": run_recovery_suite,
}


def run_suite(name, trials, seed, tolerance=None):
    """Run one named suite (or 'all') and return its check records."""
    if name == "all":
        records = []
        for key in ("classical", "quantum", "recovery"):
            for record in _RUNNERS[key](trials, seed, tolerance):
                records.append({**record, "suite": key})
        return records
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}")
    return [{**record, "suite": name} for record in _RUNNERS[name](trials, seed, tolerance)]
