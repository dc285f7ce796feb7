"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them all).  Every
tolerance is fixed here; nothing is deferred to later calibration.
"""

import time

import numpy as np

from alphadiv import classical as cl
from alphadiv import quantum as qm
from alphadiv import recovery as rc
from alphadiv.suites import (
    quadrature_gap,
    random_measure,
    spectral_reduction_gap,
    structure_errors,
    tsallis_gap,
)

SEED = 20240817


def operator_on(rng, dim, spectrum):
    """random_positive_operator's seeded draw with eigenvalues uniform on ``spectrum``."""
    lam = rng.uniform(*spectrum, size=dim)
    u = qm._random_unitary(rng, dim)
    return qm.PositiveOperator((u * lam) @ u.conj().T)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_classical_theorem_quadrature_equals_closed_form():
    rng = np.random.default_rng(SEED)
    pairs = []
    for _ in range(100):
        dim = int(rng.integers(1, 7))
        pairs.append((random_measure(rng, dim), random_measure(rng, dim)))
    start = time.perf_counter()
    worst = quadrature_gap(pairs, cl.alpha_divergence_closed, cl.canonical_divergence_numeric)
    elapsed = time.perf_counter() - start
    _report(
        "classical theorem (100 pairs, dims 1-6, 5 alphas)",
        worst <= 1e-9 and elapsed < 5.0,
        f"max normalized gap {worst:.3e} (tol 1e-9), {elapsed:.2f}s (< 5s)",
    )


def test_quantum_theorem_quadrature_equals_closed_form():
    rng = np.random.default_rng(SEED + 1)
    pairs = []
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        pairs.append(
            (qm.random_positive_operator(rng, dim), qm.random_positive_operator(rng, dim))
        )
    start = time.perf_counter()
    worst = quadrature_gap(
        pairs, qm.quantum_alpha_divergence_closed, qm.canonical_divergence_numeric_q
    )
    elapsed = time.perf_counter() - start
    _report(
        "quantum theorem (100 PD pairs, dims 2-6, 5 alphas)",
        worst <= 1e-8 and elapsed < 30.0,
        f"max normalized gap {worst:.3e} (tol 1e-8), {elapsed:.2f}s (< 30s)",
    )


def test_worked_constants_by_both_paths():
    p, q = [1.0, 2.0], [2.0, 1.0]
    classical_expected = 12.0 - 8.0 * np.sqrt(2.0)
    c_closed = cl.alpha_divergence_closed(p, q, 0.0)
    c_numeric = cl.canonical_divergence_numeric(p, q, 0.0)

    r1 = qm.PositiveOperator([[2.0, 1.0], [1.0, 2.0]])
    r2 = qm.PositiveOperator(np.diag([1.0, 2.0]))
    quantum_expected = 14.0 - 2.0 * (np.sqrt(3.0) + np.sqrt(6.0) + 1.0 + np.sqrt(2.0))
    q_closed = qm.quantum_alpha_divergence_closed(r1, r2, 0.0)
    q_numeric = qm.canonical_divergence_numeric_q(r1, r2, 0.0)

    ok = (
        abs(c_closed - classical_expected) <= 1e-12
        and abs(c_numeric - classical_expected) <= 1e-10
        and abs(q_closed - quantum_expected) <= 1e-12
        and abs(q_numeric - quantum_expected) <= 1e-9
    )
    _report(
        "worked constants by both paths",
        ok,
        f"classical {c_closed:.10f} vs 12-8*sqrt(2)={classical_expected:.10f}; "
        f"quantum {q_closed:.10f} vs 4*(3.5-(sqrt(3)+1)(1+sqrt(2))/2)={quantum_expected:.10f}",
    )


def test_limits_approach_entropies_monotonically():
    p, q = np.array([2.0, 1.0]), np.array([1.0, 1.0])
    kl = cl.kl_extended(p, q)
    kl_rev = cl.kl_extended(q, p)
    gaps_minus = [
        abs(cl.alpha_divergence_closed(p, q, -1.0 + 10.0**-k) - kl) for k in range(2, 7)
    ]
    gaps_plus = [
        abs(cl.alpha_divergence_closed(p, q, 1.0 - 10.0**-k) - kl_rev) for k in range(2, 7)
    ]

    r1 = qm.PositiveOperator([[2.0, 1.0], [1.0, 2.0]])
    r2 = qm.PositiveOperator(np.diag([1.0, 2.0]))
    qre = qm.quantum_relative_entropy(r1, r2)
    qre_rev = qm.quantum_relative_entropy(r2, r1)
    qgaps_minus = [
        abs(qm.quantum_alpha_divergence_closed(r1, r2, -1.0 + 10.0**-k) - qre)
        for k in range(2, 7)
    ]
    qgaps_plus = [
        abs(qm.quantum_alpha_divergence_closed(r1, r2, 1.0 - 10.0**-k) - qre_rev)
        for k in range(2, 7)
    ]

    def decreasing(seq):
        return all(b < a for a, b in zip(seq, seq[1:]))

    ok = all(map(decreasing, (gaps_minus, gaps_plus, qgaps_minus, qgaps_plus)))
    _report(
        "limits toward the entropies, both signs, k=2..6",
        ok,
        f"classical gaps {gaps_minus[0]:.1e}->{gaps_minus[-1]:.1e} / "
        f"{gaps_plus[0]:.1e}->{gaps_plus[-1]:.1e}; quantum "
        f"{qgaps_minus[0]:.1e}->{qgaps_minus[-1]:.1e} / "
        f"{qgaps_plus[0]:.1e}->{qgaps_plus[-1]:.1e}",
    )


def test_scaling_relations():
    rng = np.random.default_rng(SEED + 2)
    classical_pairs = []
    quantum_pairs = []
    for _ in range(30):
        dim = int(rng.integers(1, 5))
        classical_pairs.append(
            (random_measure(rng, dim, 0.1, 2.0), random_measure(rng, dim, 0.1, 2.0))
        )
        qdim = int(rng.integers(2, 5))
        quantum_pairs.append(
            (
                operator_on(rng, qdim, (0.2, 3.0)),
                operator_on(rng, qdim, (0.2, 3.0)),
            )
        )
    qparams = (0.2, 0.25, 0.3, 0.5, 0.7, 0.75, 0.8)
    worst_c = tsallis_gap(
        classical_pairs, cl.tsallis_q_divergence, cl.alpha_divergence_closed, qparams
    )
    worst_q = tsallis_gap(
        quantum_pairs, qm.quantum_q_divergence, qm.quantum_alpha_divergence_closed, qparams
    )
    ok = worst_c <= 1e-13 and worst_q <= 1e-13
    _report(
        "Tsallis scaling D_q = ((1-alpha)/2) D_alpha at alpha = 1-2q",
        ok,
        f"classical {worst_c:.3e}, quantum {worst_q:.3e} (tol 1e-13)",
    )


def test_structure_recovery():
    rng = np.random.default_rng(SEED + 3)
    points = []
    for _ in range(6):
        dim = int(rng.integers(2, 4))
        points.append(rng.uniform(0.5, 3.0, size=dim))
    metric_rel, christ_abs, defect, structures = structure_errors(points, (-0.5, 0.0, 0.5))
    curvature = 0.0
    for recovered in structures[:2]:
        for a in (0.0, 0.5):
            def div(x, y, _a=a):
                return cl.alpha_divergence_closed(x, y, _a)

            curvature = max(curvature, float(np.max(np.abs(rc.curvature(recovered[a], div)))))
    ok = metric_rel <= 1e-5 and christ_abs <= 1e-4 and defect <= 1e-4 and curvature <= 1e-3
    _report(
        "structure recovery (Fisher metric, connections, duality, flatness)",
        ok,
        f"metric rel {metric_rel:.2e} (1e-5), christoffel {christ_abs:.2e} (1e-4), "
        f"defect {defect:.2e} (1e-4), curvature {curvature:.2e} (1e-3)",
    )


def test_divergence_axioms():
    rng = np.random.default_rng(SEED + 4)
    most_negative = 0.0
    worst_diag = 0.0
    smallest_offdiag = np.inf

    classical_divs = [
        lambda p, q: cl.alpha_divergence_closed(p, q, 0.5),
        lambda p, q: cl.alpha_divergence_closed(p, q, -0.9),
        lambda p, q: cl.canonical_divergence_numeric(p, q, 0.5),
        lambda p, q: cl.canonical_divergence_numeric(p, q, -0.5),
        cl.kl_extended,
        lambda p, q: cl.kl_extended(q, p),
        lambda p, q: cl.tsallis_q_divergence(p, q, 0.3),
    ]
    for _ in range(1000):
        dim = int(rng.integers(1, 7))
        p, q = random_measure(rng, dim), random_measure(rng, dim)
        for div in classical_divs:
            most_negative = min(most_negative, div(p, q))
            smallest_offdiag = min(smallest_offdiag, div(p, q))
            worst_diag = max(worst_diag, abs(div(p, p.copy())))

    quantum_divs = [
        lambda a, b: qm.quantum_alpha_divergence_closed(a, b, 0.5),
        lambda a, b: qm.quantum_alpha_divergence_closed(a, b, -0.9),
        lambda a, b: qm.canonical_divergence_numeric_q(a, b, 0.5),
        qm.quantum_relative_entropy,
        lambda a, b: qm.quantum_q_divergence(a, b, 0.3),
    ]
    density_divs = [
        lambda a, b: qm.furuichi_q_divergence(a, b, 0.3),
        lambda a, b: qm.quantum_alpha_divergence_closed(a, b, 0.5),
        qm.quantum_relative_entropy,
    ]
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        r1 = qm.random_positive_operator(rng, dim)
        r2 = qm.random_positive_operator(rng, dim)
        same = qm.PositiveOperator(r1.matrix)
        for div in quantum_divs:
            most_negative = min(most_negative, div(r1, r2))
            worst_diag = max(worst_diag, abs(div(r1, same)))
        d1, d2 = (qm.random_positive_operator(rng, dim) for _ in range(2))
        d1, d2 = (qm.PositiveOperator(d.matrix / d.trace) for d in (d1, d2))
        same_d = qm.PositiveOperator(d1.matrix)
        for div in density_divs:
            most_negative = min(most_negative, div(d1, d2))
            worst_diag = max(worst_diag, abs(div(d1, same_d)))

    ok = most_negative >= -1e-12 and worst_diag < 1e-14 and smallest_offdiag > 1e-14
    _report(
        "divergence axioms on 1000 seeded pairs per cone",
        ok,
        f"most negative {most_negative:.1e} (>= -1e-12), worst on-diagonal "
        f"{worst_diag:.1e} (< 1e-14), smallest off-diagonal {smallest_offdiag:.2e}",
    )


def test_spectral_reduction():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        p = random_measure(rng, dim, 0.2, 4.0)
        q = random_measure(rng, dim, 0.2, 4.0)
        d1 = qm.PositiveOperator(np.diag(p))
        d2 = qm.PositiveOperator(np.diag(q))
        worst = max(
            worst,
            spectral_reduction_gap(p, q),
            abs(qm.quantum_relative_entropy(d1, d2) - cl.kl_extended(p, q)),
            abs(
                qm.furuichi_q_divergence(d1, d2, 0.3)
                - float((p.sum() - np.sum(p**0.3 * q**0.7)) / 0.7)
            ),
        )
        # density restriction on normalized spectra
        ps, qs = p / p.sum(), q / q.sum()
        dd1 = qm.PositiveOperator(np.diag(ps))
        dd2 = qm.PositiveOperator(np.diag(qs))
        worst = max(
            worst,
            abs(
                qm.quantum_alpha_divergence_closed(dd1, dd2, 0.5)
                - cl.alpha_divergence_closed(ps, qs, 0.5)
            ),
        )
    _report(
        "spectral reduction of every quantum divergence",
        worst <= 1e-12,
        f"max gap to classical counterpart {worst:.3e} (tol 1e-12)",
    )
