import tracemalloc

import numpy as np
import pytest

from alphadiv import classical as cl
from alphadiv import quantum as qm
from alphadiv import recovery as rc
from alphadiv.numkit import (
    FDConfig,
    NotPositiveDefiniteError,
    NumericalDomainError,
    QuadratureRule,
    chart_exponent,
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


def rand_pd(rng, dim, spectrum=qm.RANDOM_SPECTRUM):
    """random_positive_operator's seeded draw with eigenvalues uniform on ``spectrum``."""
    lam = rng.uniform(*spectrum, size=dim)
    u = qm._random_unitary(rng, dim)
    return qm.PositiveOperator((u * lam) @ u.conj().T)


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

    def test_entries_near_the_float_max_are_refused_not_nan(self):
        # symmetrizing must not overflow: the spectrum is (1, 1e308), whose
        # ratio is below the positivity threshold
        with pytest.raises(NotPositiveDefiniteError, match="largest 1.000000e[+]308"):
            qm.PositiveOperator(np.diag([1e308, 1.0]))

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
        # alpha = 0.9 raises the chart eigenvalues to the 20th power; the
        # refusal emits no numpy warning, which the test settings turn into
        # errors
        basis = qm.hermitian_basis(2)
        theta = qm.theta_coordinates(np.diag([1e19, 1e20]) / 0.05, basis)
        with pytest.raises(ValueError, match="finite"):
            qm.operator_from_chart(theta, basis, 0.9)

    def test_overflowing_matrix_refused(self):
        # chart eigenvalues 2.4975e15 and 2.5e15: their 20th powers are
        # finite, but the matrix overflows when it is symmetrized
        basis = qm.hermitian_basis(2)
        chart = np.array([[2.49875e15, -1.25e12], [-1.25e12, 2.49875e15]])
        theta = qm.theta_coordinates(chart / 0.05, basis)
        with pytest.raises(ValueError, match="finite"):
            qm.operator_from_chart(theta, basis, 0.9)

    def test_non_positive_chart_refused(self):
        basis = qm.hermitian_basis(2)
        theta = qm.theta_coordinates(np.diag([1.0, -1.0]), basis)
        with pytest.raises(NotPositiveDefiniteError):
            qm.operator_from_chart(theta, basis, 0.5)

    @pytest.mark.parametrize("top, accepted", [(2.4e15, True), (2.45e15, False)])
    def test_largest_power_capped_at_a_quarter_of_float_max(self, top, accepted):
        # largest powers 4.02e307 and 6.07e307 on either side of max/4 =
        # 4.49e307; the second one's matrix is finite, but a power above the
        # cap is refused before any array is formed
        basis = qm.hermitian_basis(2)
        theta = qm.theta_coordinates(np.diag([top / 2, top]) / 0.05, basis)
        if accepted:
            assert qm.operator_from_chart(theta, basis, 0.9).eigenvalues[-1] < 4.5e307
        else:
            with pytest.raises(ValueError, match="finite"):
                qm.operator_from_chart(theta, basis, 0.9)


class TestChartMemo:
    """operator_from_chart builds each chart point once and shares the result."""

    @staticmethod
    def uncached(theta, basis, alpha):
        beta = chart_exponent(alpha, geodesic=True)
        return qm.PositiveOperator._from_chart(beta * qm.operator_from_theta(theta, basis), beta)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("alpha", ALPHAS + (-1.0,))
    def test_bit_identical_to_the_inverse_chart(self, dim, alpha):
        rng = np.random.default_rng(40 + dim)
        basis = qm.hermitian_basis(dim)
        theta = qm.theta_coordinates(qm.alpha_embedding(rand_pd(rng, dim), alpha), basis)
        expected = self.uncached(theta, basis, alpha)
        first = qm.operator_from_chart(theta, basis, alpha)
        assert qm.operator_from_chart(theta.copy(), basis.copy(), alpha) is first
        assert np.array_equal(first.matrix, expected.matrix)
        assert np.array_equal(first.eigenvalues, expected.eigenvalues)
        assert np.array_equal(first.spectral.eigenvectors, expected.spectral.eigenvectors)

    def test_refusal_is_raised_again(self):
        basis = qm.hermitian_basis(2)
        theta = qm.theta_coordinates(np.diag([1.0, -2.0]), basis)
        for _ in range(2):
            with pytest.raises(NotPositiveDefiniteError):
                qm.operator_from_chart(theta, basis, 0.5)

    def test_basis_and_alpha_are_part_of_the_key(self):
        basis = qm.hermitian_basis(2)
        theta = qm.theta_coordinates(np.array([[1.3, 0.4], [0.4, 1.1]]), basis)
        rho = qm.operator_from_chart(theta, basis, 0.5)
        swapped = basis[[1, 0, 2, 3]]
        for other in (
            qm.operator_from_chart(theta, swapped, 0.5),
            qm.operator_from_chart(theta, basis, 0.0),
        ):
            assert not np.array_equal(other.matrix, rho.matrix)
        assert np.array_equal(
            qm.operator_from_chart(theta, swapped, 0.5).matrix,
            self.uncached(theta, swapped, 0.5).matrix,
        )

    def test_mutating_the_callers_theta_does_not_reach_the_memo(self):
        basis = qm.hermitian_basis(2)
        theta = qm.theta_coordinates(np.array([[1.2, 0.3j], [-0.3j, 0.8]]), basis)
        original = theta.copy()
        first = qm.operator_from_chart(theta, basis, 0.3)
        theta *= 1.5
        moved = qm.operator_from_chart(theta, basis, 0.3)
        assert np.array_equal(moved.matrix, self.uncached(theta, basis, 0.3).matrix)
        assert not np.array_equal(moved.matrix, first.matrix)
        assert qm.operator_from_chart(original, basis, 0.3) is first
        assert np.array_equal(first.matrix, self.uncached(original, basis, 0.3).matrix)

    def test_shared_result_is_read_only_and_the_memo_bounded(self):
        basis = qm.hermitian_basis(2)
        theta = qm.theta_coordinates(np.array([[1.7, 0.1], [0.1, 0.6]]), basis)
        rho = qm.operator_from_chart(theta, basis, 0.5)
        for array in (rho.matrix, rho.eigenvalues, rho.spectral.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        for k in range(100):
            qm.operator_from_chart(theta + 1e-3 * k, basis, 0.5)
        info = qm._chart_operator.cache_info()
        assert info.maxsize == qm.CHART_MEMO_SIZE == 64
        assert info.currsize == 64

    def test_entries_share_one_copy_of_the_basis(self):
        # the dim-8 basis takes 64 KB: a copy in each of 64 entries would hold 4 MB
        basis = qm.hermitian_basis(8)
        theta = qm.theta_coordinates(np.eye(8), basis)
        qm._chart_operator.cache_clear()
        tracemalloc.start()
        try:
            for k in range(100):
                qm.operator_from_chart(theta * (1.0 + 1e-3 * k), basis, 0.5)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 10 * basis.nbytes

    def test_dim2_recovery_builds_each_chart_point_about_once(self, monkeypatch):
        # the contrast of `alphadiv recover` on an operator document, through
        # the structure and duality stages: 12,545 evaluations that visit a
        # few hundred distinct chart points (417 in the benchmark's chart job)
        builds = []
        from_chart = qm.PositiveOperator._from_chart

        def counted(m, beta):
            builds.append(beta)
            return from_chart(m, beta)

        monkeypatch.setattr(qm.PositiveOperator, "_from_chart", staticmethod(counted))
        qm._chart_operator.cache_clear()
        basis = qm.hermitian_basis(2)
        alpha = 0.5
        rho = qm.PositiveOperator(np.array([[1.4, 0.3 - 0.2j], [0.3 + 0.2j, 0.9]]))
        points = set()
        evals = []

        def divergence(x, y):
            points.update((x.tobytes(), y.tobytes()))
            evals.append(1)
            r1 = qm.operator_from_chart(x, basis, alpha)
            r2 = qm.operator_from_chart(y, basis, alpha)
            return qm.quantum_alpha_divergence_closed(r1, r2, alpha)

        cfg = FDConfig(step=1e-3, order=4)
        point = qm.theta_coordinates(qm.alpha_embedding(rho, alpha), basis)
        structure = rc.recover_structure(divergence, point, cfg)
        rc.duality_defect(structure, divergence, cfg)
        assert len(evals) == 12545
        assert len(builds) <= 2 * len(points) <= 2 * 417


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

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_pairing_is_the_quadrature_integrand_at_one_node(self, dim):
        # measured worst case 5.4e-16 relative
        rng = np.random.default_rng(100 + dim)
        for _ in range(3):
            r1, r2 = rand_pd(rng, dim), rand_pd(rng, dim)
            for a in ALPHAS:
                for t in (0.3, 0.7):
                    value = qm.canonical_divergence_numeric_q(r1, r2, a, QuadratureRule([t], [1.0]))
                    va, vd = qm.velocity_representations(r1, r2, a, t)
                    pairing = t * np.einsum("ij,ji->", va, vd).real
                    assert abs(value - pairing) <= 4e-15 * abs(pairing)

    @pytest.mark.parametrize(
        "spoil", [lambda w: w - w[..., -1:], lambda w: w * np.nan], ids=["shifted", "nan"]
    )
    def test_non_positive_interpolant_refused(self, monkeypatch, spoil):
        # an interpolant whose computed spectrum lost positivity, by a shift
        # of every eigenvalue the decomposition returns, or turned NaN; the
        # pushforwards and the quadrature share the gate
        r1 = qm.PositiveOperator(WORKED_PAIR[0])
        r2 = qm.PositiveOperator(WORKED_PAIR[1])
        eigh = np.linalg.eigh

        def spoiled(m):
            w, u = eigh(m)
            return spoil(w), u

        monkeypatch.setattr(np.linalg, "eigh", spoiled)
        with pytest.raises(NotPositiveDefiniteError, match="geodesic interpolant"):
            qm.velocity_representations(r1, r2, 0.5, 0.3)
        with pytest.raises(NotPositiveDefiniteError, match="geodesic interpolant"):
            qm.canonical_divergence_numeric_q(r1, r2, 0.5)


class TestRequireReal:
    def test_scalar_and_array_share_one_rule(self):
        # the bound is 1e-10 * (1 + |Re z|), the Frobenius norm on arrays
        assert qm._require_real(2.0 + 2e-10j, "trace") == 2.0
        real = np.array([[2.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(qm._require_real(real + 2e-10j * np.eye(2) / np.sqrt(2), "array"), real)
        with pytest.raises(NumericalDomainError, match="trace: imaginary residue 4.000e-10"):
            qm._require_real(2.0 + 4e-10j, "trace")
        with pytest.raises(NumericalDomainError, match="array: imaginary residue 4.000e-10"):
            qm._require_real(real + 4e-10j * np.eye(2) / np.sqrt(2), "array")


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

    # identical operators reach the shared kernel as (l, l): dims on both
    # sides of its plain-Python cutoff
    @pytest.mark.parametrize("dim", [1, cl._SMALL, cl._SMALL + 1])
    def test_identical_operators_exactly_zero_at_every_size(self, dim):
        rng = np.random.default_rng(dim)
        rho = rand_pd(rng, dim)
        same = qm.PositiveOperator(rho.matrix)
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

    def test_unit_trace_refusals_share_one_message(self):
        density = qm.DensityOperator(np.diag([0.3, 0.7]))
        for call, name in (
            (lambda: qm.DensityOperator(np.diag([0.5, 0.75])), "operator"),
            (lambda: qm.density_alpha_divergence(WORKED_PAIR[1], density, 0.5), "first argument"),
            (lambda: qm.density_alpha_divergence(density, WORKED_PAIR[1], 0.5), "second argument"),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be a density operator \\(unit trace\\)"):
                call()

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


def matrix_function_references(r1, r2):
    """The closed forms as traces of matrix functions, an independent oracle.

    Tr(rho1**beta rho2**(1-beta)) and Tr rho1 (log rho1 - log rho2) from
    spectral matrix functions, with every form written in terms of them.
    """
    t1, t2 = r1.trace, r2.trace

    def mixed(beta):
        a = r1.spectral.matrix_function(lambda w: w**beta) if beta else np.eye(r1.dim)
        b = r2.spectral.matrix_function(lambda w: w ** (1.0 - beta))
        return np.einsum("ij,ji->", a, b).real

    def log(r):
        return r.spectral.matrix_function(np.log)

    relent = np.einsum("ij,ji->", r1.matrix, log(r1) - log(r2)).real
    return {
        "alpha": lambda b: (b * t1 + (1.0 - b) * t2 - mixed(b)) / (b * (1.0 - b)),
        "q": lambda q: (q * t1 + (1.0 - q) * t2 - mixed(q)) / (1.0 - q),
        "furuichi": lambda q: (t1 - mixed(q)) / (1.0 - q),
        "density": lambda b: (1.0 - mixed(b)) / (b * (1.0 - b)),
        "relent": relent,
        "relent_extended": relent + t2 - t1,
    }


# Relative bound |value - reference| <= ORACLE_RTOL |reference| of every
# closed form against the matrix-function oracle.  Measured worst case on the
# inputs below: 6.6e-12, at dim 1 with alpha = 0.9 and nearly equal spectra,
# where 50-digit arithmetic puts almost all of it in the oracle (6.9e-12)
# and 3.3e-13 in the closed form.  Both sides cancel O(1) traces, so this is
# a roundoff bound, not a precision claim.
ORACLE_RTOL = 3e-11


def closed_form_errors(r1, r2, densities=False):
    """Relative error of each closed form against the oracle, keyed by form."""
    ref = matrix_function_references(r1, r2)
    cases = {}
    for a in ALPHAS:
        b = 0.5 * (1.0 - a)
        if densities:
            cases[f"density {a}"] = (qm.density_alpha_divergence(r1, r2, a), ref["density"](b))
        else:
            cases[f"alpha {a}"] = (qm.quantum_alpha_divergence_closed(r1, r2, a), ref["alpha"](b))
    if not densities:
        for qp in (0.25, 0.5, 0.75):
            cases[f"q {qp}"] = (qm.quantum_q_divergence(r1, r2, qp), ref["q"](qp))
        for qp in (0.0, 0.25, 0.5, 0.75):
            cases[f"furuichi {qp}"] = (qm.furuichi_q_divergence(r1, r2, qp), ref["furuichi"](qp))
        cases["relent"] = (qm.quantum_relative_entropy(r1, r2), ref["relent"])
        cases["relent extended"] = (
            qm.quantum_relative_entropy(r1, r2, extended=True),
            ref["relent_extended"],
        )
    return {name: abs(v - e) / abs(e) for name, (v, e) in cases.items()}


class TestClosedFormsAgainstMatrixFunctions:
    """The Nussbaum-Szkola closed forms agree with the matrix-function traces."""

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_random_pairs(self, dim):
        rng = np.random.default_rng(600 + dim)
        for _ in range(10):
            errors = closed_form_errors(rand_pd(rng, dim), rand_pd(rng, dim))
            assert max(errors.values()) <= ORACLE_RTOL, errors

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_random_density_pairs(self, dim):
        # the one 1 x 1 density operator is [1], so density pairs start at dim 2
        rng = np.random.default_rng(700 + dim)
        for _ in range(10):
            d1 = qm.random_density_operator(rng, dim)
            d2 = qm.random_density_operator(rng, dim)
            errors = closed_form_errors(d1, d2, densities=True)
            assert max(errors.values()) <= ORACLE_RTOL, errors

    def test_block_diagonal_pair_with_exact_zero_overlaps(self):
        rng = np.random.default_rng(71)

        def block_diagonal():
            m = np.zeros((5, 5), dtype=complex)
            m[:2, :2] = rand_pd(rng, 2).matrix
            m[2:, 2:] = rand_pd(rng, 3).matrix
            return qm.PositiveOperator(m)

        r1, r2 = block_diagonal(), block_diagonal()
        overlap = r1.spectral.eigenvectors.conj().T @ r2.spectral.eigenvectors
        assert (overlap == 0.0).any()
        errors = closed_form_errors(r1, r2)
        assert max(errors.values()) <= ORACLE_RTOL, errors

    def test_scalar_operator_value_does_not_depend_on_its_eigenbasis(self):
        # c * U U^dagger is c * I to roundoff, but eigh returns an eigenbasis
        # set by that roundoff, a different one for each U
        rng = np.random.default_rng(72)
        c, dim = 1.7, 4
        other = rand_pd(rng, dim)
        scalars = [qm.PositiveOperator(c * np.eye(dim))]
        for _ in range(4):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            u = np.linalg.qr(g)[0]
            scalars.append(qm.PositiveOperator(c * (u @ u.conj().T)))
        assert any(np.abs(r.spectral.eigenvectors).max() < 0.99 for r in scalars)
        for r in scalars:
            errors = closed_form_errors(r, other)
            assert max(errors.values()) <= ORACLE_RTOL, errors
        for a in ALPHAS:
            values = [qm.quantum_alpha_divergence_closed(r, other, a) for r in scalars]
            assert max(values) - min(values) <= ORACLE_RTOL * abs(values[0])


# Relative error bounds against 60-digit arithmetic, each set from the worst
# case measured on the seeded pairs of its test.  One step of 1e-5 off the
# diagonal the alpha closed form still cancels: 7.0e-6 measured (the trace
# formula it replaced reached 2.4e-4).  At trace ratios up to 1e12 both
# relative-entropy forms stay at roundoff: 1.2e-15 measured.
NEAR_DIAGONAL_RTOL = 3e-5
RELATIVE_ENTROPY_RTOL = 1e-14


class TestAgainstMpmath:
    @pytest.fixture
    def mp(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            yield mp

    @staticmethod
    def function(mp, m, fn):
        """fn(m) through the eigensystem of the Hermitian mpmath matrix m."""
        w, u = mp.eighe(m)
        return u * mp.diag([fn(x) for x in w]) * u.transpose_conj()

    @staticmethod
    def trace(mp, m):
        return mp.re(sum(m[i, i] for i in range(m.rows)))

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_alpha_closed_form_near_the_diagonal(self, mp, alpha):
        beta = (1 - mp.mpf(alpha)) / 2
        for seed in range(10):
            rng = np.random.default_rng(seed)
            r1 = qm.random_positive_operator(rng, 3)
            r2 = qm.PositiveOperator(r1.matrix + 1e-5 * qm.random_hermitian(rng, 3))
            a, b = (mp.matrix(r.matrix.tolist()) for r in (r1, r2))
            power_a = self.function(mp, a, lambda x: x**beta)
            power_b = self.function(mp, b, lambda x: x ** (1 - beta))
            mixed = self.trace(mp, power_a * power_b)
            trace_a, trace_b = self.trace(mp, a), self.trace(mp, b)
            expected = (beta * trace_a + (1 - beta) * trace_b - mixed) / (beta * (1 - beta))
            value = qm.quantum_alpha_divergence_closed(r1, r2, alpha)
            assert abs((value - expected) / expected) <= NEAR_DIAGONAL_RTOL

    @pytest.mark.parametrize("scale", [1e4, 1e8, 1e12])
    def test_relative_entropy_at_large_trace_ratios(self, mp, scale):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            r1 = qm.random_positive_operator(rng, 3)
            r2 = qm.PositiveOperator(scale * qm.random_positive_operator(rng, 3).matrix)
            a, b = (mp.matrix(r.matrix.tolist()) for r in (r1, r2))
            logs = self.function(mp, a, mp.log) - self.function(mp, b, mp.log)
            plain = self.trace(mp, a * logs)
            extended = plain + self.trace(mp, b) - self.trace(mp, a)
            for value, expected in (
                (qm.quantum_relative_entropy(r1, r2), plain),
                (qm.quantum_relative_entropy(r1, r2, extended=True), extended),
            ):
                assert abs((value - expected) / expected) <= RELATIVE_ENTROPY_RTOL
