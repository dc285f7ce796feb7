import numpy as np
import pytest

from alphadiv.numkit import (
    FDConfig,
    NotPositiveDefiniteError,
    NumericalDomainError,
    QuadratureRule,
    SpectralDecomposition,
    as_hermitian,
    check_alpha,
    frechet_from_decomposition,
    gauss_legendre_rule,
    hermitian_eig,
    mixed_partials,
    quadrature_sum,
)
from alphadiv.quantum import PositiveOperator, alpha_representation


def frechet(rho, s, x):
    """Derivative of rho -> rho**s at rho in the direction x."""
    return frechet_from_decomposition(PositiveOperator(rho).spectral, s, x)


class TestGaussLegendre:
    def test_one_point_rule_is_midpoint(self):
        rule = gauss_legendre_rule(1)
        assert rule.nodes.tolist() == [0.5]
        assert rule.weights.tolist() == [1.0]

    def test_two_point_rule_nodes_and_weights(self):
        # roots of the degree-2 Legendre polynomial mapped to [0, 1]
        rule = gauss_legendre_rule(2)
        expected = [0.5 - 1.0 / (2.0 * np.sqrt(3.0)), 0.5 + 1.0 / (2.0 * np.sqrt(3.0))]
        assert np.allclose(rule.nodes, expected, atol=1e-15, rtol=0)
        assert np.allclose(rule.weights, [0.5, 0.5], atol=1e-15, rtol=0)

    def test_cubic_is_integrated_exactly_by_two_points(self):
        rule = gauss_legendre_rule(2)
        assert abs(quadrature_sum(rule, rule.nodes**3) - 0.25) <= 1e-15

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            gauss_legendre_rule(0)

    def test_monomial_exactness_through_degree(self):
        # n-point rule integrates t**k exactly for k <= 2n - 1
        for n in range(1, 33):
            rule = gauss_legendre_rule(n)
            ts = rule.nodes
            for k in range(0, 2 * n):
                approx = float(rule.weights @ ts**k)
                assert abs(approx - 1.0 / (k + 1)) <= 1e-13, (n, k)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=[0.0, 0.5], weights=[0.5, 0.5])
        with pytest.raises(ValueError):
            QuadratureRule(nodes=[0.6, 0.4], weights=[0.5, 0.5])
        with pytest.raises(ValueError):
            QuadratureRule(nodes=[0.25, 0.75], weights=[0.9, 0.5])
        with pytest.raises(ValueError):
            QuadratureRule(nodes=[0.25, 0.75], weights=[0.5, -0.5])


class TestIntegrate:
    """Integration by a rule through quadrature_sum."""

    def test_weight_normalization(self):
        for n in (1, 5, 64):
            rule = gauss_legendre_rule(n)
            assert abs(quadrature_sum(rule, np.ones(n)) - 1.0) <= 1e-14

    def test_midpoint_exact_on_linear(self):
        rule = gauss_legendre_rule(1)
        assert quadrature_sum(rule, rule.nodes) == 0.5

    def test_exponential(self):
        rule = gauss_legendre_rule(16)
        value = quadrature_sum(rule, np.exp(rule.nodes))
        assert abs(value - (np.e - 1.0)) <= 1e-13

    def test_nonfinite_value_identifies_node(self):
        rule = gauss_legendre_rule(4)
        with np.errstate(divide="ignore"), pytest.raises(NumericalDomainError, match="node"):
            quadrature_sum(rule, 1.0 / (rule.nodes - rule.nodes[2]))

    def test_refusal_prints_the_node_as_a_plain_float(self):
        rule = gauss_legendre_rule(4)
        values = np.ones(4)
        values[1] = np.nan
        with pytest.raises(NumericalDomainError) as info:
            quadrature_sum(rule, values)
        assert str(info.value) == f"integrand is not finite at node t={float(rule.nodes[1])!r}"


class TestHermitianEig:
    def test_identity(self):
        spec = hermitian_eig(np.eye(2))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0], atol=1e-14, rtol=0)

    def test_symmetric_two_by_two(self):
        # characteristic polynomial x^2 - 4x + 3
        spec = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12, rtol=0)

    def test_swap_matrix(self):
        # characteristic polynomial x^2 - 1
        spec = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-12, rtol=0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermiticity_is_relative_to_the_norm(self):
        # a 1e-10 relative defect on a matrix of norm below one: rejected by
        # the operator constructor and the decomposition alike
        m = 1e-3 * np.array([[2.0, 1.0 + 1e-10], [1.0, 2.0]])
        for validate in (hermitian_eig, PositiveOperator):
            with pytest.raises(ValueError, match="Hermitian"):
                validate(m)

    def test_overflowing_norm_does_not_hide_asymmetry(self):
        # the squares inside ||m||_F overflow at these entries; the verdict
        # must still be the one of the rescaled matrix
        for validate in (hermitian_eig, PositiveOperator):
            with pytest.raises(ValueError, match="not Hermitian"):
                validate(np.array([[1e200, 1e200], [0.0, 1e200]]))
        rho = PositiveOperator(1e200 * np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(rho.eigenvalues, [1e200, 3e200], rtol=1e-12, atol=0)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            as_hermitian(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_descending_spectrum_rejected(self):
        with pytest.raises(ValueError, match="^eigenvalues must be ascending$"):
            SpectralDecomposition(eigenvalues=[2.0, 1.0], eigenvectors=np.eye(2))

    def test_reconstruction_and_unitarity_on_random_input(self):
        rng = np.random.default_rng(11)
        for dim in range(2, 9):
            for _ in range(5):
                h = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
                h = 0.5 * (h + h.conj().T)
                spec = hermitian_eig(h)
                u, w = spec.eigenvectors, spec.eigenvalues
                assert np.all(np.diff(w) >= 0.0)
                residual = np.linalg.norm((u * w) @ u.conj().T - h)
                assert residual <= 1e-11 * np.linalg.norm(h)
                assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-12


class TestMatrixPower:
    """Fractional powers through PositiveOperator.power."""

    def test_unit_power_returns_input(self):
        rho = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(PositiveOperator(rho).power(1.0), rho, atol=1e-12, rtol=0)

    def test_zero_power_is_identity(self):
        assert np.array_equal(PositiveOperator(np.diag([4.0, 9.0])).power(0.0), np.eye(2))

    def test_diagonal_square_root(self):
        root = PositiveOperator(np.diag([4.0, 9.0])).power(0.5)
        assert np.allclose(root, np.diag([2.0, 3.0]), atol=1e-13, rtol=0)

    def test_square_root_of_coupled_matrix(self):
        # eigenvectors (1, +-1)/sqrt(2), eigenvalues 1 and 3
        root = PositiveOperator(np.array([[2.0, 1.0], [1.0, 2.0]])).power(0.5)
        s3 = np.sqrt(3.0)
        expected = 0.5 * np.array([[s3 + 1.0, s3 - 1.0], [s3 - 1.0, s3 + 1.0]])
        assert np.allclose(root, expected, atol=1e-13, rtol=0)

    def test_reports_smallest_eigenvalue(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            PositiveOperator(np.diag([1.0, -2.0]))
        assert info.value.smallest == pytest.approx(-2.0)

    def test_power_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            q, _ = np.linalg.qr(g)
            rho = (q * rng.uniform(0.5, 3.0, 4)) @ q.conj().T
            rho = 0.5 * (rho + rho.conj().T)
            for a in (0.3, 0.5, 2.0):
                for b in (0.3, 0.5, 2.0):
                    once = PositiveOperator(rho).power(a * b)
                    twice = PositiveOperator(PositiveOperator(rho).power(a)).power(b)
                    assert np.max(np.abs(once - twice)) <= 1e-10


class TestFrechetPower:
    """Derivatives of matrix powers through frechet_from_decomposition."""

    def test_identity_base_scales_direction(self):
        x = np.array([[1.0, 2.0], [2.0, -1.0]])
        for s in (0.3, 0.5, 2.0):
            assert np.allclose(frechet(np.eye(2), s, x), s * x, atol=1e-13, rtol=0)

    def test_divided_difference_off_diagonal(self):
        # (sqrt(4) - sqrt(1))/(4 - 1) = 1/3
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = frechet(np.diag([1.0, 4.0]), 0.5, x)
        assert np.allclose(out, x / 3.0, atol=1e-14, rtol=0)

    def test_commuting_direction_uses_derivative(self):
        lam = np.array([1.0, 4.0])
        x = np.diag([2.0, -3.0])
        out = frechet(np.diag(lam), 0.5, x)
        expected = np.diag(0.5 * lam**-0.5 * np.diag(x))
        assert np.allclose(out, expected, atol=1e-14, rtol=0)

    def test_matches_central_difference(self):
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(5):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q, _ = np.linalg.qr(g)
            rho = (q * rng.uniform(0.5, 3.0, 3)) @ q.conj().T
            rho = 0.5 * (rho + rho.conj().T)
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            x = 0.5 * (x + x.conj().T)
            for s in (0.3, 0.5, 2.0):
                direct = frechet(rho, s, x)
                plus = PositiveOperator(rho + h * x).power(s)
                minus = PositiveOperator(rho - h * x).power(s)
                fd = (plus - minus) / (2 * h)
                assert np.linalg.norm(direct - fd) <= 1e-7 * np.linalg.norm(x)

    def test_trace_product_rule(self):
        rng = np.random.default_rng(23)
        g = rng.standard_normal((4, 4))
        rho = g @ g.T + 4.0 * np.eye(4)
        x = rng.standard_normal((4, 4))
        x = 0.5 * (x + x.T)
        for s in (0.3, 0.7, 2.0):
            lhs = np.trace(frechet(rho, s, x)).real
            rhs = s * np.trace(PositiveOperator(rho).power(s - 1.0) @ x).real
            assert abs(lhs - rhs) <= 1e-9

    def test_rejects_non_hermitian_direction(self):
        with pytest.raises(ValueError, match="Hermitian"):
            alpha_representation(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)


class TestMixedPartials:
    def test_quadratic_cross_term(self):
        def f(x, y):
            return float(np.sum((x - y) ** 2))

        p = np.array([1.0, 2.0])
        out = mixed_partials(f, p, p, "pq")
        assert np.allclose(out, -2.0 * np.eye(2), atol=1e-9, rtol=0)

    def test_cubic_third_order(self):
        def f(x, y):
            return float(x[0] ** 2 * y[0])

        p = np.array([1.5])
        out = mixed_partials(f, p, p, "ppq")
        assert abs(out[0, 0, 0] - 2.0) <= 1e-5

    def test_fisher_from_alpha_zero_divergence(self):
        # -d_i d'_j of the closed-form alpha = 0 divergence at p = q = (1, 1)
        def div(x, y):
            return float(np.sum(2.0 * y + 2.0 * x - 4.0 * np.sqrt(x * y)))

        p = np.array([1.0, 1.0])
        out = -mixed_partials(div, p, p, "pq")
        assert np.allclose(out, np.eye(2), atol=1e-5, rtol=0)

    def test_fourth_order_stencil_is_tighter(self):
        def f(x, y):
            return float(np.exp(x[0] + 2.0 * y[0]))

        p = np.array([0.3])
        q = np.array([0.7])
        exact = 2.0 * np.exp(0.3 + 2.0 * 0.7)
        err2 = abs(mixed_partials(f, p, q, "pq", FDConfig(1e-3, 2))[0, 0] - exact)
        err4 = abs(mixed_partials(f, p, q, "pq", FDConfig(1e-3, 4))[0, 0] - exact)
        assert err4 < err2
        assert err4 <= 1e-9

    def test_nonfinite_stencil_value(self):
        def f(x, y):
            return float(np.log(x[0] - 1.0))

        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NumericalDomainError):
            mixed_partials(f, np.array([1.0]), np.array([1.0]), "pq")

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError):
            mixed_partials(lambda x, y: 0.0, np.ones(2), np.ones(2), "pz")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FDConfig(step=1e-7)
        with pytest.raises(ValueError):
            FDConfig(order=3)


class TestCheckAlpha:
    def test_open_interval_for_divergences(self):
        assert check_alpha(0.5) == 0.5
        for bad in (-1.0, 1.0, -1.5, 2.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                check_alpha(bad)

    def test_non_finite_alpha_message(self):
        for bad in (np.nan, np.inf):
            for geodesic in (False, True):
                with pytest.raises(ValueError, match="^alpha must be finite$"):
                    check_alpha(bad, geodesic=geodesic)

    def test_mixture_endpoint_allowed_for_geodesics(self):
        assert check_alpha(-1.0, geodesic=True) == -1.0
        with pytest.raises(ValueError):
            check_alpha(1.0, geodesic=True)
