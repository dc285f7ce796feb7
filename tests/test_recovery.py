import importlib.util
from pathlib import Path

import numpy as np
import pytest

from alphadiv import classical as cl
from alphadiv import quantum as qm
from alphadiv import recovery as rc
from alphadiv.numkit import (
    FDConfig,
    NotPositiveDefiniteError,
    NumericalDomainError,
    mixed_partials,
    stencil_gradient,
)


def operator_on(rng, dim, spectrum):
    """random_positive_operator's seeded draw with eigenvalues uniform on ``spectrum``."""
    lam = rng.uniform(*spectrum, size=dim)
    u = qm._random_unitary(rng, dim)
    return qm.PositiveOperator((u * lam) @ u.conj().T)


def alpha_div(alpha):
    def div(x, y):
        return cl.alpha_divergence_closed(x, y, alpha)

    return div


class TestEuclideanReference:
    def test_flat_self_dual_structure(self):
        s = rc.recover_structure(rc.half_squared_distance, np.array([1.0, 1.0]))
        assert np.max(np.abs(s.metric - np.eye(2))) <= 1e-6
        assert np.max(np.abs(s.christoffel)) <= 1e-6
        assert np.max(np.abs(s.christoffel_dual)) <= 1e-6

    def test_defect(self):
        p = np.array([1.0, 2.0])
        s = rc.recover_structure(rc.half_squared_distance, p)
        assert rc.duality_defect(s, rc.half_squared_distance) <= 1e-5

    def test_curvature(self):
        s = rc.recover_structure(rc.half_squared_distance, np.array([1.0, 2.0]))
        assert np.max(np.abs(rc.curvature(s, rc.half_squared_distance))) <= 1e-4


class TestClassicalRecovery:
    def test_fisher_at_unit_point(self):
        s = rc.recover_structure(alpha_div(0.0), np.array([1.0, 1.0]))
        assert np.max(np.abs(s.metric - np.eye(2))) <= 1e-6

    def test_fisher_at_random_points(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            p = rng.uniform(0.5, 3.0, dim)
            for a in (-0.5, 0.0, 0.5):
                s = rc.recover_structure(alpha_div(a), p)
                fisher = np.diag(1.0 / p)
                rel = np.max(np.abs(s.metric - fisher)) / np.max(np.abs(fisher))
                assert rel <= 1e-5

    def test_christoffel_matches_lowered_connection(self):
        p = np.array([2.0, 1.0])
        a = 0.5
        s = rc.recover_structure(alpha_div(a), p)
        expected = np.zeros((2, 2, 2))
        idx = np.arange(2)
        expected[idx, idx, idx] = -0.5 * (1.0 + a) / p**2
        assert np.max(np.abs(s.christoffel - expected)) <= 1e-5
        dual_expected = np.zeros((2, 2, 2))
        dual_expected[idx, idx, idx] = -0.5 * (1.0 - a) / p**2
        assert np.max(np.abs(s.christoffel_dual - dual_expected)) <= 1e-5

    def test_raised_christoffel_matches_analytic(self):
        p = np.array([1.5, 0.8, 2.2])
        a = -0.5
        s = rc.recover_structure(alpha_div(a), p)
        raised = np.einsum("lm,ijm->ijl", np.linalg.inv(s.metric), s.christoffel)
        assert np.max(np.abs(raised - cl.alpha_christoffel(p, a))) <= 1e-4

    def test_duality_defect_small(self):
        rng = np.random.default_rng(22)
        for _ in range(3):
            p = rng.uniform(0.5, 3.0, 3)
            s = rc.recover_structure(alpha_div(0.5), p)
            assert rc.duality_defect(s, alpha_div(0.5)) <= 1e-4

    def test_flatness(self):
        for a in (-0.5, 0.0, 0.5):
            s = rc.recover_structure(alpha_div(a), np.array([1.0, 2.0]))
            assert np.max(np.abs(rc.curvature(s, alpha_div(a)))) <= 1e-3

    def test_quadrature_path_agrees(self):
        def numeric_div(x, y):
            return cl.canonical_divergence_numeric(x, y, 0.5)

        p = np.array([1.0, 2.0])
        s_closed = rc.recover_structure(alpha_div(0.5), p)
        s_numeric = rc.recover_structure(numeric_div, p)
        assert np.max(np.abs(s_closed.metric - s_numeric.metric)) <= 1e-4
        assert np.max(np.abs(s_closed.christoffel - s_numeric.christoffel)) <= 1e-4
        assert np.max(np.abs(rc.curvature(s_numeric, numeric_div))) <= 1e-3


def hyperbolic_plane(x, y):
    """A self-dual contrast with metric dx0**2 + exp(2 x0) dx1**2 (curvature -1)."""
    d = x - y
    m = 0.5 * (x + y)
    return 0.5 * (d[0] ** 2 + np.exp(2.0 * m[0]) * d[1] ** 2)


def skew_quadratic(x, y):
    """D = (x - y)^T M(y) (x - y) / 2: a contrast whose Gamma and Gamma* differ."""
    d = x - y
    off = 0.3 * np.sin(y[0])
    m = np.array([[1.0 + y[1] ** 2, off], [off, np.exp(y[0])]])
    return 0.5 * float(d @ m @ d)


def simplex_alpha_div(alpha):
    """The alpha-divergence of the probability simplex in the chart of its first entries."""
    def div(x, y):
        lift_x = np.append(x, 1.0 - np.sum(x))
        lift_y = np.append(y, 1.0 - np.sum(y))
        return cl.alpha_divergence_closed(lift_x, lift_y, alpha)

    return div


def constant_curvature(metric, k):
    """R[i, j, k, l] = K (g_jk delta^l_i - g_ik delta^l_j): constant curvature K."""
    eye = np.eye(len(metric))
    return k * (np.einsum("jk,il->ijkl", metric, eye) - np.einsum("ik,jl->ijkl", metric, eye))


def relative_error(tensor, reference):
    return float(np.max(np.abs(tensor - reference)) / np.max(np.abs(reference)))


def curvature_by_raised_christoffel(divergence, point):
    """R by differencing G = g^{-1} Gamma, recovered at shifted points.

    The stencil-of-stencils reference: each stencil point recovers its own
    metric and connection, and one outer stencil differences them.
    """
    def raised(x):
        g = -mixed_partials(divergence, x, x, "pq", rc.DEFAULT_CFG)
        gamma = -mixed_partials(divergence, x, x, "ppq", rc._CONNECTION_CFG)
        return np.einsum("lm,ijm->ijl", np.linalg.inv(0.5 * (g + g.T)), gamma)

    gamma_up = raised(point)
    d_gamma = stencil_gradient(raised, point, rc._CURVATURE_CFG)
    quad = np.einsum("iml,jkm->ijkl", gamma_up, gamma_up)
    return d_gamma - np.swapaxes(d_gamma, 0, 1) + quad - np.swapaxes(quad, 0, 1)


class TestCurvedReferences:
    def test_hyperbolic_plane(self):
        # constant curvature K = -1 with g = diag(1, exp(2 x0)): the largest
        # component is exp(2 x0)
        p = np.array([0.3, 0.7])
        s = rc.recover_structure(hyperbolic_plane, p)
        reference = constant_curvature(s.metric, -1.0)
        assert abs(np.max(np.abs(reference)) - np.exp(0.6)) <= 1e-5
        assert relative_error(rc.curvature(s, hyperbolic_plane), reference) <= 1e-3

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    def test_probability_simplex(self, alpha):
        # the alpha-connection of the categorical model has constant curvature
        # (1 - alpha**2)/4 (Amari & Nagaoka 2000); the chart couples every
        # coordinate through the last entry, so no term of R vanishes by
        # itself, and whole tensors are compared because a max-abs reading
        # can agree with a wrong formula (measured 1.2e-5 to 1.4e-5)
        xi = np.array([0.3, 0.45])
        div = simplex_alpha_div(alpha)
        s = rc.recover_structure(div, xi)
        reference = constant_curvature(s.metric, 0.25 * (1.0 - alpha**2))
        assert relative_error(rc.curvature(s, div), reference) <= 1e-4

    def test_qubit_wigner_yanase_sphere(self):
        # at alpha = 0 the density operators I/2 + sum x_k A_k, A_k the
        # traceless basis, carry the Wigner-Yanase metric, a round sphere of
        # curvature 1/4 (Gibilisco & Isola 2003); bound set from the measured
        # 6.7e-4, limited by the second-order curvature stencil
        basis = qm.hermitian_basis(2)[:3]

        def wigner_yanase(x, y):
            r1 = qm.PositiveOperator(0.5 * np.eye(2) + np.tensordot(x, basis, 1))
            r2 = qm.PositiveOperator(0.5 * np.eye(2) + np.tensordot(y, basis, 1))
            return qm.quantum_alpha_divergence_closed(r1, r2, 0.0)

        s = rc.recover_structure(wigner_yanase, np.array([0.1, -0.05, 0.12]))
        reference = constant_curvature(s.metric, 0.25)
        assert relative_error(rc.curvature(s, wigner_yanase), reference) <= 2e-3

    def test_non_self_dual_contrast_matches_raised_christoffel_differencing(self):
        p = np.array([0.4, 0.9])
        s = rc.recover_structure(skew_quadratic, p)
        assert np.max(np.abs(s.christoffel - s.christoffel_dual)) > 1.0
        reference = curvature_by_raised_christoffel(skew_quadratic, p)
        assert np.max(np.abs(reference)) > 1.0
        assert np.max(np.abs(rc.curvature(s, skew_quadratic) - reference)) <= 1e-4


class TestDegenerateContrast:
    def test_quartic_rejected_instead_of_reported(self):
        def quartic(x, y):
            return float(np.sum((x - y) ** 4))

        with pytest.raises(NotPositiveDefiniteError):
            rc.recover_structure(quartic, np.array([1.0, 2.0]))

    def test_nonvanishing_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            rc.recover_structure(lambda x, y: 1.0 + rc.half_squared_distance(x, y), np.ones(2))

    def test_nan_on_the_diagonal_rejected(self):
        # NaN only at (p, p), which no stencil entry evaluates
        p = np.array([1.0, 2.0])

        def div(x, y):
            if np.array_equal(x, p) and np.array_equal(y, p):
                return float("nan")
            return rc.half_squared_distance(x, y)

        with pytest.raises(ValueError, match="diagonal"):
            rc.recover_structure(div, p)

    def test_stencil_leaving_the_cone_is_a_domain_error_for_library_callers(self):
        # the alpha-divergence refuses a measure entry below zero with a
        # ValueError; on the stencil around 1e-4 that is a domain error,
        # while an invalid alpha is refused at the point itself
        p = np.array([1e-4, 1.0])
        with pytest.raises(NumericalDomainError, match="undefined on the stencil") as info:
            rc.recover_structure(alpha_div(0.2), p)
        assert isinstance(info.value.__cause__, ValueError)
        with pytest.raises(ValueError, match="^alpha must lie"):
            rc.recover_structure(alpha_div(1.0), p)

    def test_asymmetric_metric_rejected_by_every_entry_point(self):
        # -d_i d'_j D = I + 0.1 (E_10 - E_01): mixed partials not symmetric
        def skewed(x, y):
            return rc.half_squared_distance(x, y) + 0.1 * (x[0] - y[0]) * (x[1] + y[1])

        p = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="symmetric"):
            rc.recover_structure(skewed, p)
        structure = rc.recover_structure(rc.half_squared_distance, p)
        with pytest.raises(ValueError, match="symmetric"):
            rc.duality_defect(structure, skewed)

    @pytest.mark.xfail(
        strict=True,
        raises=NotPositiveDefiniteError,
        reason="the symmetry bound and degeneracy floor scale by max(1, max|g|), not by the "
        "contrast's stencil noise, so 2**-20 D is refused while D is accepted",
    )
    def test_metric_scales_with_the_contrast(self):
        # scaling by a power of two is exact, so the stencil metric of 2**k D
        # is 2**k times that of D, bit for bit
        p = np.array([1.0, 2.0])
        base = rc.recover_structure(alpha_div(0.5), p).metric
        for k in (-30, -20, 0, 20):

            def scaled(x, y, k=k):
                return 2.0**k * cl.alpha_divergence_closed(x, y, 0.5)

            assert np.array_equal(rc.recover_structure(scaled, p).metric, 2.0**k * base)


class TestStencilCounts:
    """Contrast evaluations of the stencils, as the benchmark's known counts pin them."""

    P = np.array([1.5, 0.8, 2.2])

    @staticmethod
    def counting(contrast):
        points = []

        def counted(x, y):
            points.append((x.tobytes(), y.tobytes()))
            return contrast(x, y)

        return counted, points

    def test_recover_structure_at_three_coordinates(self):
        # 1 diagonal check + 9 * 4**2 metric + 2 * 27 * 4**3 connection values
        counted, points = self.counting(alpha_div(0.5))
        rc.recover_structure(counted, self.P)
        assert len(points) == 3601

    def test_third_order_block(self):
        counted, points = self.counting(alpha_div(0.5))
        mixed_partials(counted, self.P, self.P, "ppq", FDConfig(1e-2, 4))
        assert len(points) == 1728
        assert len(set(points)) == 876

    def test_fourth_order_block(self):
        counted, points = self.counting(alpha_div(0.5))
        mixed_partials(counted, self.P, self.P, "ppqq", FDConfig(1e-2, 2))
        assert len(points) == 16 * 3**4

    def test_curvature_at_three_coordinates(self):
        # one value per distinct point of the "ppqq" block (361 of its
        # 3**4 * 2**4 entries) on an already recovered structure
        raw, block = self.counting(alpha_div(0.5))
        mixed_partials(raw, self.P, self.P, "ppqq", rc._CURVATURE_CFG)
        structure = rc.recover_structure(alpha_div(0.5), self.P)
        counted, points = self.counting(alpha_div(0.5))
        rc.curvature(structure, counted)
        assert len(points) == len(set(points))
        assert len(points) == len(set(block)) == 361

    def test_benchmark_tracer_counts_what_it_pins(self):
        # the benchmark's tracer, loaded from its file without putting
        # perfbench/ on sys.path, counts the stencils and quadratures whose
        # work check_known_counts pins; a change that moves a pin fails here
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.check_known_counts() == []


def curvature_over_raw_block(structure, divergence):
    """R assembled as rc.curvature assembles it, over the raw "ppqq" block.

    Every stencil entry calls ``divergence`` here, repeated points included.
    """
    point = structure.point
    g_inv = np.linalg.inv(structure.metric)
    gamma_up = np.einsum("lm,ijm->ijl", g_inv, structure.christoffel)
    fourth = mixed_partials(divergence, point, point, "ppqq", rc._CURVATURE_CFG)
    dg = structure.christoffel + np.swapaxes(structure.christoffel_dual, 1, 2)
    d_gamma = -np.einsum("ls,jkis->ijkl", g_inv, fourth) - np.einsum(
        "la,iab,jkb->ijkl", g_inv, dg, gamma_up
    )
    quad = np.einsum("iml,jkm->ijkl", gamma_up, gamma_up)
    return d_gamma - np.swapaxes(d_gamma, 0, 1) + quad - np.swapaxes(quad, 0, 1)


class TestCurvatureOnDistinctPoints:
    """rc.curvature evaluates each distinct stencil point once, bit for bit."""

    P = np.array([1.5, 0.8, 2.2])

    @staticmethod
    def assert_same_bits(divergence, point):
        s = rc.recover_structure(divergence, point)
        assert rc.curvature(s, divergence).tobytes() == curvature_over_raw_block(
            s, divergence
        ).tobytes()

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("point", [[1.5, 0.8], [1.5, 0.8, 2.2], [0.6, 1.3, 2.7, 0.9]])
    def test_classical(self, alpha, point):
        self.assert_same_bits(alpha_div(alpha), np.array(point))

    def test_hyperbolic_plane(self):
        self.assert_same_bits(hyperbolic_plane, np.array([0.3, 0.7]))

    def test_quantum_chart_contrast(self):
        rho = qm.PositiveOperator(np.array([[1.5, 0.2], [0.2, 1.0]]))
        theta, chart_div = qm.alpha_chart_contrast(rho, 0.5)
        self.assert_same_bits(chart_div, theta)

    @pytest.mark.parametrize("failure", ["raise", "nan"])
    def test_refusal_at_a_repeated_point(self, failure):
        # the contrast fails at a point the block visits more than once, and
        # at the block's last entry; both report the repeated point's first
        # visit
        div = alpha_div(0.5)
        raw, keys = TestStencilCounts.counting(div)
        mixed_partials(raw, self.P, self.P, "ppqq", rc._CURVATURE_CFG)
        repeated = next(k for k in keys if keys.count(k) > 1)
        failing = {repeated, keys[-1]}

        def contrast(x, y):
            if (x.tobytes(), y.tobytes()) in failing:
                if failure == "raise":
                    raise ValueError("off the domain")
                return float("nan")
            return div(x, y)

        s = rc.recover_structure(div, self.P)
        with pytest.raises(NumericalDomainError) as expected:
            curvature_over_raw_block(s, contrast)
        with pytest.raises(NumericalDomainError) as got:
            rc.curvature(s, contrast)
        assert str(got.value) == str(expected.value)


class TestCurvatureDimension:
    def test_refused_above_the_bound(self):
        n = rc.CURVATURE_MAX_DIM + 1
        structure = rc.RecoveredStructure(
            metric=np.eye(n),
            christoffel=np.zeros((n, n, n)),
            christoffel_dual=np.zeros((n, n, n)),
            point=np.ones(n),
        )
        with pytest.raises(ValueError, match="limited to dimension"):
            rc.curvature(structure, rc.half_squared_distance)


class TestDefectOrdering:
    def test_alpha_defect_close_to_euclidean_floor(self):
        # The Euclidean reference has no truncation bias at all (quadratic),
        # so its measured defect sits at the roundoff floor; the comparison
        # uses its certified bound 1e-5 as the reference scale.
        p = np.array([1.0, 2.0])
        euclid = rc.duality_defect(
            rc.recover_structure(rc.half_squared_distance, p), rc.half_squared_distance
        )
        alpha = rc.duality_defect(rc.recover_structure(alpha_div(0.5), p), alpha_div(0.5))
        assert alpha <= 10.0 * max(euclid, 1e-5)


class TestQuantumChartRecovery:
    def test_alpha_zero_chart_metric_is_euclidean(self):
        # at alpha = 0 the chart pairing is Tr(A_i A_j) for every base point
        rng = np.random.default_rng(23)
        rho = operator_on(rng, 2, (0.5, 2.0))
        theta, chart_div = qm.alpha_chart_contrast(rho, 0.0)
        metric = -mixed_partials(chart_div, theta, theta, "pq", FDConfig(1e-3, 4))
        assert np.max(np.abs(metric - np.eye(4))) <= 1e-5

    def test_identity_point_matches_theta_components(self):
        a = 0.5
        rho = qm.PositiveOperator(np.eye(2))
        theta, chart_div = qm.alpha_chart_contrast(rho, a)
        metric = -mixed_partials(chart_div, theta, theta, "pq", FDConfig(1e-3, 4))
        reference = qm.wyd_components_theta(rho, a)
        assert np.max(np.abs(metric - reference)) <= 1e-5

    def test_chart_is_flat(self):
        rho = qm.PositiveOperator(np.array([[1.5, 0.2], [0.2, 1.0]]))
        theta, chart_div = qm.alpha_chart_contrast(rho, 0.5)
        s = rc.recover_structure(chart_div, theta)
        assert np.max(np.abs(rc.curvature(s, chart_div))) <= 1e-3

    def test_recovered_metric_matches_wyd_pairing(self):
        # push each chart basis direction back to a tangent vector and pair
        # with the metric; must match the finite-difference recovery
        rng = np.random.default_rng(24)
        rho = operator_on(rng, 2, (0.5, 2.0))
        basis = qm.hermitian_basis(2)
        a = 0.5
        beta = 0.5 * (1.0 - a)
        theta, chart_div = qm.alpha_chart_contrast(rho, a)
        metric = -mixed_partials(chart_div, theta, theta, "pq", FDConfig(1e-3, 4))

        # tangent vectors whose (+alpha) representation equals each basis element
        from alphadiv.numkit import power_divided_differences

        u = rho.spectral.eigenvectors
        table = power_divided_differences(rho.eigenvalues, beta) / beta
        tangents = [
            u @ ((u.conj().T @ b @ u) / table) @ u.conj().T for b in basis
        ]
        expected = np.empty((4, 4))
        for i in range(4):
            for j in range(4):
                expected[i, j] = qm.wyd_metric(rho, tangents[i], tangents[j], a)
        assert np.max(np.abs(metric - expected)) <= 1e-5
