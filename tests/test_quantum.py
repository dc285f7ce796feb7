import numpy as np
import pytest

from alphadiv import classical as cl
from alphadiv import quantum as qm
from alphadiv.numkit import (
    NotPositiveDefiniteError,
    hermitian_eig,
    hermitian_part,
    power_divided_differences,
)

ALPHAS = (-0.9, -0.5, 0.0, 0.5, 0.9)

WORKED_PAIR = (
    np.array([[2.0, 1.0], [1.0, 2.0]]),
    np.diag([1.0, 2.0]),
)
# 4 * (3.5 - (sqrt(3)+1)(1+sqrt(2))/2), confirmed against a fine independent
# quadrature of the geodesic integral
WORKED_VALUE = 14.0 - 2.0 * (np.sqrt(3.0) + np.sqrt(6.0) + 1.0 + np.sqrt(2.0))


def rand_pd(rng, dim, spectrum=(0.2, 4.0)):
    return qm.random_positive_operator(rng, dim, spectrum)


class TestOperatorTypes:
    def test_positive_operator_validates(self):
        with pytest.raises(ValueError):
            qm.PositiveOperator([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotPositiveDefiniteError) as info:
            qm.PositiveOperator(np.diag([1.0, -0.5]))
        assert info.value.smallest == pytest.approx(-0.5)

    def test_positivity_threshold_is_relative(self):
        with pytest.raises(NotPositiveDefiniteError):
            qm.PositiveOperator(np.diag([1.0, 1e-14]))

    def test_matrix_is_frozen(self):
        rho = qm.PositiveOperator(np.eye(2))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0

    def test_density_operator_trace(self):
        qm.DensityOperator(np.diag([0.25, 0.75]))
        with pytest.raises(ValueError):
            qm.DensityOperator(np.diag([0.5, 0.75]))

    def test_cached_powers_compose(self):
        rng = np.random.default_rng(0)
        rho = rand_pd(rng, 3)
        assert np.allclose(rho.power(0.37) @ rho.power(0.63), rho.matrix, atol=1e-13)


class TestEmbedding:
    def test_mixture_endpoint_is_identity_map(self):
        rho = qm.PositiveOperator([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(qm.alpha_embedding(rho, -1.0), rho.matrix, atol=1e-14)

    def test_alpha_zero_is_twice_square_root(self):
        out = qm.alpha_embedding(qm.PositiveOperator(np.diag([4.0, 9.0])), 0.0)
        assert np.allclose(out, np.diag([4.0, 6.0]), atol=1e-13)

    def test_commuting_family_acts_on_spectrum(self):
        p = np.array([0.5, 1.5, 3.0])
        out = qm.alpha_embedding(qm.PositiveOperator(np.diag(p)), 0.5)
        assert np.allclose(np.diag(out), cl.alpha_coordinates(p, 0.5), atol=1e-13)


class TestRepresentation:
    def test_identity_base_is_identity_map(self):
        x = qm.random_hermitian(np.random.default_rng(1), 3)
        for a in (-0.9, 0.0, 0.9):
            assert np.allclose(qm.alpha_representation(np.eye(3), x, a), x, atol=1e-13)

    def test_mixture_representation_is_identity(self):
        rng = np.random.default_rng(2)
        rho = rand_pd(rng, 3)
        x = qm.random_hermitian(rng, 3)
        assert np.allclose(qm.alpha_representation(rho, x, -1.0), x, atol=1e-12)

    def test_zero_tangent_accepted(self):
        rng = np.random.default_rng(6)
        rho = rand_pd(rng, 3)
        zero = np.zeros((3, 3))
        assert np.array_equal(qm.alpha_representation(rho, zero, 0.5), zero)
        assert qm.wyd_metric(rho, zero, qm.random_hermitian(rng, 3), 0.5) == 0.0

    def test_divided_difference_example(self):
        # divided difference (2-1)/3, prefactor 2 at alpha = 0
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = qm.alpha_representation(np.diag([1.0, 4.0]), x, 0.0)
        assert np.allclose(out, (2.0 / 3.0) * x, atol=1e-14)


class TestParallelTransport:
    def test_identity_transport(self):
        rng = np.random.default_rng(3)
        rho = rand_pd(rng, 3)
        x = qm.random_hermitian(rng, 3)
        assert np.allclose(qm.alpha_parallel_transport(rho, rho, x, 0.5), x, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        r1, r2 = rand_pd(rng, 4), rand_pd(rng, 4)
        x = qm.random_hermitian(rng, 4)
        for a in (-0.5, 0.0, 0.5):
            y = qm.alpha_parallel_transport(r1, r2, x, a)
            back = qm.alpha_parallel_transport(r2, r1, y, a)
            assert np.max(np.abs(back - x)) <= 1e-10

    def test_loop_recovers_vector(self):
        rng = np.random.default_rng(5)
        ops = [rand_pd(rng, 3) for _ in range(3)]
        x = qm.random_hermitian(rng, 3)
        for a in (-0.5, 0.0, 0.5):
            y = qm.alpha_parallel_transport(ops[0], ops[1], x, a)
            y = qm.alpha_parallel_transport(ops[1], ops[2], y, a)
            y = qm.alpha_parallel_transport(ops[2], ops[0], y, a)
            assert np.max(np.abs(y - x)) <= 1e-10

    def test_commuting_diagonal_ratio(self):
        p1 = np.array([1.0, 2.0])
        p2 = np.array([3.0, 0.5])
        x = np.diag([1.0, -2.0]).astype(complex)
        a = 0.5
        out = qm.alpha_parallel_transport(np.diag(p1), np.diag(p2), x, a)
        expected = np.diag(np.diag(x) * (p2 / p1) ** (0.5 * (1 + a)))
        assert np.allclose(out, expected, atol=1e-12)


class TestGeodesic:
    def test_endpoints_exact(self):
        r1 = qm.PositiveOperator(WORKED_PAIR[0])
        r2 = qm.PositiveOperator(WORKED_PAIR[1])
        assert qm.alpha_geodesic_q(r1, r2, 0.5, 0.0) is r1
        assert qm.alpha_geodesic_q(r1, r2, 0.5, 1.0) is r2

    def test_interior_point_accuracy(self):
        r1 = qm.PositiveOperator(WORKED_PAIR[0])
        r2 = qm.PositiveOperator(WORKED_PAIR[1])
        mid = qm.alpha_geodesic_q(r1, r2, 0.0, 0.5)
        a, b = r1.power(0.5), r2.power(0.5)
        m = 0.5 * (a + b)
        assert np.max(np.abs(mid.matrix - m @ m)) <= 1e-11

    def test_mixture_line(self):
        rng = np.random.default_rng(6)
        r1, r2 = rand_pd(rng, 3), rand_pd(rng, 3)
        for t in (0.25, 0.75):
            out = qm.alpha_geodesic_q(r1, r2, -1.0, t)
            assert np.max(np.abs(out.matrix - ((1 - t) * r1.matrix + t * r2.matrix))) <= 1e-12

    def test_commuting_reduces_to_classical(self):
        p = np.array([0.5, 2.0])
        q = np.array([1.5, 1.0])
        for a in (-0.5, 0.5):
            out = qm.alpha_geodesic_q(np.diag(p), np.diag(q), a, 0.3)
            assert np.allclose(np.diag(out.matrix), cl.alpha_geodesic(p, q, a, 0.3), atol=1e-12)


class TestOperatorsFromKnownSpectrum:
    """Geodesic points and chart inverses reuse the decomposition they computed."""

    @staticmethod
    def count_eigh(monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(m):
            calls.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_chart_inverse_decomposes_once(self, monkeypatch):
        basis = qm.hermitian_basis(2)
        theta = qm.theta_coordinates(np.array([[1.5, 0.2], [0.2, 1.0]]), basis)
        calls = self.count_eigh(monkeypatch)
        qm.operator_from_chart(theta, basis, 0.5)
        assert len(calls) == 1

    def test_geodesic_point_decomposes_once(self, monkeypatch):
        r1 = qm.PositiveOperator(WORKED_PAIR[0])
        r2 = qm.PositiveOperator(WORKED_PAIR[1])
        calls = self.count_eigh(monkeypatch)
        qm.alpha_geodesic_q(r1, r2, 0.5, 0.3)
        assert len(calls) == 1

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_chart_inverse_is_the_power_of_the_chart_spectrum(self, alpha):
        rng = np.random.default_rng(31)
        basis = qm.hermitian_basis(3)
        beta = 0.5 * (1.0 - alpha)
        theta = qm.theta_coordinates(qm.alpha_embedding(rand_pd(rng, 3), alpha), basis)
        chart = hermitian_eig(beta * qm.operator_from_theta(theta, basis))
        rho = qm.operator_from_chart(theta, basis, alpha)
        assert np.array_equal(rho.eigenvalues, chart.eigenvalues ** (1.0 / beta))
        assert np.array_equal(rho.spectral.eigenvectors, chart.eigenvectors)
        # the matrix the constructor would have been handed, bit for bit
        expected = hermitian_part(chart.matrix_function(lambda w: w ** (1.0 / beta)))
        assert np.array_equal(rho.matrix, expected)

    def test_overflowing_power_refused(self):
        # alpha = 0.9 raises the chart eigenvalues to the 20th power
        basis = qm.hermitian_basis(2)
        theta = qm.theta_coordinates(np.diag([1e19, 1e20]) / 0.05, basis)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                qm.operator_from_chart(theta, basis, 0.9)

    def test_non_positive_chart_refused(self):
        basis = qm.hermitian_basis(2)
        theta = qm.theta_coordinates(np.diag([1.0, -1.0]), basis)
        with pytest.raises(NotPositiveDefiniteError):
            qm.operator_from_chart(theta, basis, 0.5)


class TestVelocityRepresentations:
    def test_zero_for_equal_endpoints(self):
        rho = qm.PositiveOperator(WORKED_PAIR[0])
        va, vd = qm.velocity_representations(rho, qm.PositiveOperator(WORKED_PAIR[0]), 0.5, 0.3)
        assert np.max(np.abs(va)) == 0.0
        assert np.max(np.abs(vd)) == 0.0

    def test_near_mixture_velocity_is_difference(self):
        r1 = qm.PositiveOperator(WORKED_PAIR[0])
        r2 = qm.PositiveOperator(WORKED_PAIR[1])
        va, _ = qm.velocity_representations(r1, r2, -1.0 + 1e-9, 0.4)
        assert np.max(np.abs(va - (r2.matrix - r1.matrix))) <= 1e-8

    def test_trace_pairing_reduces_classically(self):
        p = np.array([0.5, 2.0, 1.0])
        q = np.array([1.5, 1.0, 0.3])
        d1, d2 = np.diag(p), np.diag(q)
        for a in (-0.5, 0.5):
            for t in (0.2, 0.7):
                va, vd = qm.velocity_representations(d1, d2, a, t)
                pairing = float(np.trace(va @ vd).real)
                beta = 0.5 * (1.0 - a)
                m = (1 - t) * p**beta + t * q**beta
                classic = float(
                    np.sum(m ** ((1 - 2 * beta) / beta) * (q**beta - p**beta) ** 2) / beta**2
                )
                assert abs(pairing - classic) <= 1e-12 * (1.0 + abs(classic))

    def test_pairing_is_hermitian_pair(self):
        rng = np.random.default_rng(7)
        r1, r2 = rand_pd(rng, 3), rand_pd(rng, 3)
        va, vd = qm.velocity_representations(r1, r2, 0.5, 0.6)
        assert np.max(np.abs(va - va.conj().T)) <= 1e-12
        assert np.max(np.abs(vd - vd.conj().T)) <= 1e-12


class TestWydMetric:
    def test_identity_base_is_plain_trace(self):
        rng = np.random.default_rng(8)
        x = qm.random_hermitian(rng, 3)
        y = qm.random_hermitian(rng, 3)
        for a in (-0.5, 0.0, 0.5):
            value = qm.wyd_metric(np.eye(3), x, y, a)
            assert abs(value - np.trace(x @ y).real) <= 1e-12

    def test_diagonal_fisher_reduction(self):
        p = np.array([0.5, 2.0])
        x = np.diag([1.0, -1.0]).astype(complex)
        for a in (-0.5, 0.0, 0.5):
            value = qm.wyd_metric(np.diag(p), x, x, a)
            assert abs(value - cl.fisher_metric(p, np.diag(x).real, np.diag(x).real)) <= 1e-12

    def test_symmetry_and_duality(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            rho = rand_pd(rng, 3)
            x = qm.random_hermitian(rng, 3)
            y = qm.random_hermitian(rng, 3)
            for a in (-0.7, 0.3):
                g_xy = qm.wyd_metric(rho, x, y, a)
                assert abs(g_xy - qm.wyd_metric(rho, y, x, a)) <= 1e-12
                assert abs(g_xy - qm.wyd_metric(rho, y, x, -a)) <= 1e-12


class TestHermitianBasis:
    def test_orthonormal_and_hermitian(self):
        for n in (2, 3, 4):
            basis = qm.hermitian_basis(n)
            assert basis.shape == (n * n, n, n)
            for a_i in basis:
                assert np.max(np.abs(a_i - a_i.conj().T)) <= 1e-15
            gram = np.einsum("iab,jba->ij", basis, basis).real
            assert np.max(np.abs(gram - np.eye(n * n))) <= 1e-13

    def test_coordinates_round_trip(self):
        rng = np.random.default_rng(10)
        basis = qm.hermitian_basis(3)
        h = qm.random_hermitian(rng, 3)
        theta = qm.theta_coordinates(h, basis)
        assert np.max(np.abs(qm.operator_from_theta(theta, basis) - h)) <= 1e-13


class TestWydComponentsTheta:
    def test_symmetric(self):
        rng = np.random.default_rng(11)
        g = qm.wyd_components_theta(rand_pd(rng, 3), 0.5)
        assert np.max(np.abs(g - g.T)) <= 1e-12

    def test_positive_definite(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = qm.wyd_components_theta(rand_pd(rng, 2), -0.3)
            assert np.linalg.eigvalsh(g)[0] > 0.0

    def test_identity_point_gives_identity_matrix(self):
        for a in (-0.5, 0.0, 0.5):
            g = qm.wyd_components_theta(np.eye(2), a)
            assert np.max(np.abs(g - np.eye(4))) <= 1e-12

    def test_matches_wyd_pairing_of_pulled_back_basis(self):
        # pair the tangents whose (+alpha) chart images are the basis elements
        for dim in (2, 3, 4):
            rng = np.random.default_rng(30 + dim)
            rho = rand_pd(rng, dim, (0.5, 2.0))
            basis = qm.hermitian_basis(dim)
            u = rho.spectral.eigenvectors
            for a in (-0.5, 0.5, 0.9):
                beta = 0.5 * (1.0 - a)
                table = power_divided_differences(rho.eigenvalues, beta) / beta
                tangents = [u @ ((u.conj().T @ b @ u) / table) @ u.conj().T for b in basis]
                expected = np.array(
                    [[qm.wyd_metric(rho, x, y, a) for y in tangents] for x in tangents]
                )
                g = qm.wyd_components_theta(rho, a)
                assert np.max(np.abs(g - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestCanonicalDivergenceQ:
    def test_zero_on_diagonal(self):
        rho = qm.PositiveOperator(WORKED_PAIR[0])
        other = qm.PositiveOperator(WORKED_PAIR[0])
        for a in ALPHAS:
            assert qm.canonical_divergence_numeric_q(rho, other, a) == 0.0

    def test_commuting_matches_classical_value(self):
        value = qm.canonical_divergence_numeric_q(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), 0.0)
        assert abs(value - (12.0 - 8.0 * np.sqrt(2.0))) <= 1e-12

    def test_worked_noncommuting_constant(self):
        numeric = qm.canonical_divergence_numeric_q(*WORKED_PAIR, 0.0)
        closed = qm.quantum_alpha_divergence_closed(*WORKED_PAIR, 0.0)
        assert closed == pytest.approx(WORKED_VALUE, abs=1e-12)
        assert abs(numeric - closed) <= 1e-9

    def test_matches_closed_form_on_random_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            r1, r2 = rand_pd(rng, dim), rand_pd(rng, dim)
            for a in ALPHAS:
                closed = qm.quantum_alpha_divergence_closed(r1, r2, a)
                numeric = qm.canonical_divergence_numeric_q(r1, r2, a)
                assert abs(numeric - closed) <= 1e-8 * (1.0 + abs(closed))


class TestQuantumClosedForm:
    def test_zero_on_diagonal(self):
        rho = qm.PositiveOperator(WORKED_PAIR[0])
        same = qm.PositiveOperator(WORKED_PAIR[0])
        for a in ALPHAS:
            assert qm.quantum_alpha_divergence_closed(rho, same, a) == 0.0

    def test_commuting_equals_classical(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            p = rng.uniform(0.2, 4.0, 3)
            q = rng.uniform(0.2, 4.0, 3)
            for a in ALPHAS:
                quantum = qm.quantum_alpha_divergence_closed(np.diag(p), np.diag(q), a)
                classic = cl.alpha_divergence_closed(p, q, a)
                assert abs(quantum - classic) <= 1e-13 * (1.0 + abs(classic))

    def test_nonnegative(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            r1, r2 = rand_pd(rng, 3), rand_pd(rng, 3)
            for a in ALPHAS:
                assert qm.quantum_alpha_divergence_closed(r1, r2, a) >= -1e-12

    def test_limits_rejected(self):
        for a in (-1.0, 1.0):
            with pytest.raises(ValueError):
                qm.quantum_alpha_divergence_closed(*WORKED_PAIR, a)


class TestQuantumRelativeEntropy:
    def test_zero_on_diagonal(self):
        rho = qm.PositiveOperator(WORKED_PAIR[0])
        same = qm.PositiveOperator(WORKED_PAIR[0])
        assert qm.quantum_relative_entropy(rho, same) == 0.0
        assert qm.quantum_relative_entropy(rho, same, extended=True) == 0.0

    def test_diagonal_reduction(self):
        p = np.array([2.0, 1.0])
        q = np.array([1.0, 1.0])
        extended = qm.quantum_relative_entropy(np.diag(p), np.diag(q), extended=True)
        assert abs(extended - cl.kl_extended(p, q)) <= 1e-13
        plain = qm.quantum_relative_entropy(np.diag(p), np.diag(q))
        assert abs(plain - float(np.sum(p * np.log(p / q)))) <= 1e-13

    def test_alpha_limit_on_densities(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            r1 = qm.random_density_operator(rng, 3)
            r2 = qm.random_density_operator(rng, 3)
            close = qm.quantum_alpha_divergence_closed(r1, r2, -1.0 + 1e-6)
            target = qm.quantum_relative_entropy(r1, r2, extended=True)
            assert abs(close - target) <= 1e-4

    def test_limit_monotone_on_positive_pair(self):
        r1 = qm.PositiveOperator(WORKED_PAIR[0])
        r2 = qm.PositiveOperator(WORKED_PAIR[1])
        ref = qm.quantum_relative_entropy(r1, r2, extended=True)
        gaps = [
            abs(qm.quantum_alpha_divergence_closed(r1, r2, -1.0 + 10.0**-k) - ref)
            for k in range(2, 7)
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_reversed_limit_monotone(self):
        r1 = qm.PositiveOperator(WORKED_PAIR[0])
        r2 = qm.PositiveOperator(WORKED_PAIR[1])
        ref = qm.quantum_relative_entropy(r2, r1, extended=True)
        gaps = [
            abs(qm.quantum_alpha_divergence_closed(r1, r2, 1.0 - 10.0**-k) - ref)
            for k in range(2, 7)
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestQDivergences:
    def test_scaling_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            r1, r2 = rand_pd(rng, 3, (0.2, 3.0)), rand_pd(rng, 3, (0.2, 3.0))
            for qp in (0.25, 0.3, 0.5, 0.7, 0.75):
                a = 1.0 - 2.0 * qp
                lhs = qm.quantum_q_divergence(r1, r2, qp)
                rhs = 0.5 * (1.0 - a) * qm.quantum_alpha_divergence_closed(r1, r2, a)
                assert abs(lhs - rhs) <= 1e-13

    def test_diagonal_reduction_to_tsallis(self):
        p = np.array([0.5, 2.0, 1.5])
        q = np.array([1.0, 1.0, 0.4])
        for qp in (0.3, 0.6):
            quantum = qm.quantum_q_divergence(np.diag(p), np.diag(q), qp)
            assert abs(quantum - cl.tsallis_q_divergence(p, q, qp)) <= 1e-13

    def test_zero_on_diagonal(self):
        rho = qm.PositiveOperator(WORKED_PAIR[0])
        same = qm.PositiveOperator(WORKED_PAIR[0])
        assert qm.quantum_q_divergence(rho, same, 0.4) == 0.0
        assert qm.furuichi_q_divergence(rho, same, 0.4) == 0.0

    def test_q_range_validated(self):
        with pytest.raises(ValueError):
            qm.quantum_q_divergence(*WORKED_PAIR, 1.0)
        with pytest.raises(ValueError):
            qm.furuichi_q_divergence(*WORKED_PAIR, 1.0)
        # furuichi admits q = 0
        assert np.isfinite(qm.furuichi_q_divergence(*WORKED_PAIR, 0.0))


class TestFuruichi:
    def test_agrees_with_q_divergence_on_densities(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            r1 = qm.random_density_operator(rng, 3)
            r2 = qm.random_density_operator(rng, 3)
            for qp in (0.3, 0.5, 0.7):
                lhs = qm.furuichi_q_divergence(r1, r2, qp)
                rhs = qm.quantum_q_divergence(r1, r2, qp)
                assert abs(lhs - rhs) <= 1e-12

    def test_disagrees_off_the_density_manifold(self):
        r1 = qm.PositiveOperator(2.0 * np.eye(2))
        r2 = qm.PositiveOperator(np.eye(2))
        lhs = qm.furuichi_q_divergence(r1, r2, 0.5)
        rhs = qm.quantum_q_divergence(r1, r2, 0.5)
        assert abs(lhs - rhs) > 1.0


class TestDensityAlphaDivergence:
    def test_requires_unit_trace(self):
        with pytest.raises(ValueError, match="unit trace"):
            qm.density_alpha_divergence(*WORKED_PAIR, 0.5)

    def test_zero_on_diagonal(self):
        rho = qm.DensityOperator(np.diag([0.3, 0.7]))
        same = qm.DensityOperator(np.diag([0.3, 0.7]))
        assert qm.density_alpha_divergence(rho, same, 0.5) == 0.0

    def test_equals_general_form_on_densities(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            r1 = qm.random_density_operator(rng, 3)
            r2 = qm.random_density_operator(rng, 3)
            for a in ALPHAS:
                lhs = qm.density_alpha_divergence(r1, r2, a)
                rhs = qm.quantum_alpha_divergence_closed(r1, r2, a)
                assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(rhs))

    def test_tsallis_scaling_on_densities(self):
        rng = np.random.default_rng(20)
        r1 = qm.random_density_operator(rng, 3)
        r2 = qm.random_density_operator(rng, 3)
        for qp in (0.25, 0.5, 0.75):
            a = 1.0 - 2.0 * qp
            tsallis = qm.furuichi_q_divergence(r1, r2, qp)
            assert abs(qm.density_alpha_divergence(r1, r2, a) - tsallis / qp) <= 1e-12
