import functools
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alphadiv import classical, numkit, quantum
from alphadiv.numkit import (
    DEFAULT_RULE,
    FDConfig,
    MAX_NODES,
    NotPositiveDefiniteError,
    NumericalDomainError,
    QuadratureRule,
    SpectralDecomposition,
    as_hermitian,
    blockwise,
    chart_exponent,
    check_q,
    frechet_from_decomposition,
    gauss_legendre_rule,
    hermitian_eig,
    hermitian_part,
    mixed_partials,
    power_divided_differences,
    quadrature_sum,
    require_positive,
    stencil_gradient,
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

    def test_node_count_capped(self):
        assert len(gauss_legendre_rule(MAX_NODES)) == 1024
        with pytest.raises(ValueError, match="at most 1024"):
            gauss_legendre_rule(MAX_NODES + 1)

    def test_monomial_exactness_through_degree(self):
        # n-point rule integrates t**k exactly for k <= 2n - 1
        for n in range(1, 33):
            rule = gauss_legendre_rule(n)
            ts = rule.nodes
            for k in range(0, 2 * n):
                approx = float(rule.weights @ ts**k)
                assert abs(approx - 1.0 / (k + 1)) <= 1e-13, (n, k)

    def test_rule_validation(self):
        for nodes, weights, message in (
            ([0.0, 0.5], [0.5, 0.5], "^nodes must lie in the open interval"),
            ([0.5, 1.0], [0.5, 0.5], "^nodes must lie in the open interval"),
            ([0.6, 0.4], [0.5, 0.5], "^nodes must be strictly increasing$"),
            ([0.5, 0.5], [0.5, 0.5], "^nodes must be strictly increasing$"),
            ([0.25, 0.75], [0.9, 0.5], "^weights must sum to 1"),
            ([0.25, 0.75], [0.5, -0.5], "^weights must be positive$"),
            ([0.25, np.nan], [0.5, 0.5], "^nodes and weights must be finite$"),
            ([0.25, 0.75], [0.5, np.inf], "^nodes and weights must be finite$"),
        ):
            with pytest.raises(ValueError, match=message):
                QuadratureRule(nodes=nodes, weights=weights)


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


class TestNodeBlocks:
    """The quadrature integrands run blockwise, in node blocks sized by numkit._BLOCK_BYTES."""

    def test_blocks_cover_the_nodes_in_order(self):
        def sizes(count, per_block):
            ts = np.linspace(0.0, 1.0, count)
            blocks = []

            def f(t):
                blocks.append(t.size)
                return -t

            values = blockwise(f, ts, numkit._BLOCK_BYTES // per_block)
            assert values.tobytes() == (-ts).tobytes()
            return blocks

        assert sizes(64, 12) == [12, 12, 12, 12, 12, 4]
        assert sizes(62, 12) == [12, 12, 12, 12, 14]  # never a 1- or 2-node tail
        assert sizes(64, 10) == [8] * 8  # a multiple of four nodes
        assert sizes(9, 1) == [4, 5]  # at least four, over the budget if need be
        assert sizes(3, 1) == [3]
        assert sizes(64, 100) == [64]

    # tracemalloc peaks of one call with a 1024-node rule (a whole-rule
    # integrand held 313 MB and 89 MB): 2.3 MB for 20,000 components, whose
    # blocks are the four-node minimum, and 1.1 MB at operator dim 32
    PEAK_BOUND = 4 * 2**20

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_integrand_memory_does_not_grow_with_the_rule(self, kind):
        rule = gauss_legendre_rule(MAX_NODES)
        rng = np.random.default_rng(0)
        if kind == "classical":
            pair = rng.uniform(0.5, 2.0, size=(2, 20_000))
            divergence = classical.canonical_divergence_numeric
        else:
            pair = [quantum.random_positive_operator(rng, 32) for _ in range(2)]
            divergence = quantum.canonical_divergence_numeric_q
        tracemalloc.start()
        try:
            value = divergence(*pair, 0.3, rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value > 0.0
        assert peak < self.PEAK_BOUND, f"{peak / 2**20:.1f} MiB"

    def test_blocks_change_no_value(self, monkeypatch):
        rng = np.random.default_rng(4)
        # 32 floats a node, as many bytes as one dim-4 complex matrix
        p, q = rng.uniform(0.2, 5.0, size=(2, 32))
        r1, r2 = (quantum.random_positive_operator(rng, 4) for _ in range(2))
        alphas = (-0.9, -0.3, 0.0, 0.5, 0.9)

        def both():
            return (
                [classical.canonical_divergence_numeric(p, q, a) for a in alphas],
                [quantum.canonical_divergence_numeric_q(r1, r2, a) for a in alphas],
            )

        whole_c, whole_q = both()  # one block at these sizes
        budget = 12 * r1.matrix.nbytes  # 12 nodes a block, so 5 x 12 + 4 for 64
        monkeypatch.setattr(numkit, "_BLOCK_BYTES", budget)
        assert p.nbytes == r1.matrix.nbytes  # the measure's blocks are the operators'
        batches = []
        eigh = np.linalg.eigh

        def recorded(m):
            if np.ndim(m) == 3:
                batches.append(len(m))
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        blocked_c, blocked_q = both()
        assert blocked_q == whole_q
        # equal under single-threaded OpenBLAS; other BLAS kernels may round a
        # block's matrix-vector product differently (3.8e-16 relative at worst
        # measured with blocks of 1-5 rows)
        for w, b in zip(whole_c, blocked_c):
            assert abs(b - w) <= 1e-15 * w
        assert batches == [12, 12, 12, 12, 12, 4] * len(alphas)
        assert all(k * r1.matrix.nbytes <= budget for k in batches)
        assert sum(batches) == len(DEFAULT_RULE) * len(alphas)


@pytest.mark.parametrize(
    "make",
    [
        lambda: hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]])),
        lambda: gauss_legendre_rule(3),
    ],
    ids=["SpectralDecomposition", "QuadratureRule"],
)
def test_array_records_compare_and_hash_by_identity(make):
    # array fields have no truth value, so field-wise == would raise and
    # hash() would meet an unhashable ndarray; identity is the equality
    first, copy = make(), make()
    assert first == first
    assert first != copy
    assert not first == copy
    table = {first: 1, copy: 2}
    assert len(table) == 2 and table[first] == 1 and table[copy] == 2


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

    def test_subnormal_entries_do_not_hide_asymmetry(self):
        # the rescaling divisor is at least the smallest normal float: the
        # reciprocal of a smaller power of two overflows, and NaN norms would
        # pass any matrix
        tiny = 2.0**-1070
        for validate in (hermitian_eig, PositiveOperator):
            with pytest.raises(ValueError, match="not Hermitian"):
                validate(tiny * np.array([[1.0, 1.0], [0.0, 1.0]]))
        rho = PositiveOperator(tiny * np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.array_equal(rho.matrix, tiny * np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            as_hermitian(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_empty_matrix_refused(self):
        for validate in (as_hermitian, hermitian_eig, PositiveOperator):
            with pytest.raises(ValueError, match="non-empty square matrix"):
                validate(np.zeros((0, 0)))

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


def reference_hermitian_check(m):
    """as_hermitian's check on a finite matrix, written with ndarray methods
    and np.linalg.norm.  Returns the matrix whose norms it takes, and the
    symmetrized matrix or the refusal message: the reference the check must
    match bit for bit."""
    m = np.asarray(m, dtype=complex)
    unit = max(math.ldexp(0.5, math.frexp(float(abs(m).max()))[1]), sys.float_info.min)
    scaled = m / unit
    scale = float(np.linalg.norm(scaled))
    defect = float(np.linalg.norm(scaled - scaled.conj().T))
    if defect > numkit.HERMITICITY_RTOL * scale:
        return scaled, (
            f"matrix is not Hermitian: ||m - m^dagger||_F = {defect * unit:.3e} "
            f"exceeds {numkit.HERMITICITY_RTOL:g} * ||m||_F = "
            f"{numkit.HERMITICITY_RTOL * scale * unit:.3e}"
        )
    return scaled, hermitian_part(m)


def hermitian_check_cases():
    """Matrices at 2**+-1000 with relative defects either side of
    HERMITICITY_RTOL, with a subnormal peak, zero, and Fortran-ordered (whose
    norms np.linalg.norm sums in memory order)."""
    rng = np.random.default_rng(1101)
    g = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    h = hermitian_part(g[0])
    skew = g[1] - g[1].conj().T
    # h + f * edge * skew has relative defect just below f * HERMITICITY_RTOL
    edge = 0.5 * numkit.HERMITICITY_RTOL * np.linalg.norm(h) / np.linalg.norm(skew)
    cases = {
        "zero": np.zeros((3, 3)),
        "real": np.array([[2.0, 1.0], [1.0, 2.0]]),
        "subnormal peak": 2.0**-1070 * np.array([[2.0, 1.0], [1.0, 2.0]]),
        "subnormal peak, not Hermitian": 2.0**-1070 * np.array([[1.0, 1.0], [0.0, 1.0]]),
        "overflowing squares": np.array([[1e200, 1e200], [0.0, 1e200]]),
        "Fortran order": np.asfortranarray(g[2]),
        "Fortran order, Hermitian": np.asfortranarray(hermitian_part(g[3])),
    }
    for exponent in (1000, -1000):
        for factor in (0.0, 0.5, 0.999, 1.001):
            cases[f"2**{exponent}, defect {factor}"] = 2.0**exponent * (h + factor * edge * skew)
    return cases


class TestHermitianCheckAgainstNorm:
    """as_hermitian's two Frobenius norms are np.linalg.norm's bit for bit,
    and its output or refusal message is the reference's."""

    @pytest.mark.parametrize("case", hermitian_check_cases())
    def test_norms_and_outcome_match(self, case):
        m = hermitian_check_cases()[case]
        scaled, want = reference_hermitian_check(m)
        for x in (scaled, scaled - scaled.conj().T):
            assert numkit._frobenius(x).hex() == float(np.linalg.norm(x)).hex()
        if isinstance(want, str):
            with pytest.raises(ValueError) as info:
                as_hermitian(m)
            assert str(info.value) == want
        else:
            assert as_hermitian(m).tobytes() == want.tobytes()

    def test_cases_reach_both_verdicts(self):
        passes = {
            name: not isinstance(reference_hermitian_check(m)[1], str)
            for name, m in hermitian_check_cases().items()
        }
        for exponent in (1000, -1000):
            assert passes[f"2**{exponent}, defect 0.999"]
            assert not passes[f"2**{exponent}, defect 1.001"]
        assert passes["zero"] and passes["Fortran order, Hermitian"]
        assert not passes["subnormal peak, not Hermitian"] and not passes["Fortran order"]


class TestPositivityGate:
    def test_one_spectrum_or_a_batch(self):
        spectral = hermitian_eig(np.diag([1.0, 2.0]))
        assert require_positive(spectral) is spectral
        batch = np.array([[1.0, 2.0], [0.5, 4.0]])
        assert require_positive(batch) is batch

    @pytest.mark.parametrize(
        "spectrum, smallest",
        [
            ([0.0, 1.0], 0.0),
            ([-1.0, -0.5], -1.0),
            ([1e-13, 1.0], 1e-13),
            ([np.nan, np.nan], None),
            ([1.0, np.nan], 1.0),
            ([np.nan, 1.0], None),
        ],
    )
    def test_refuses_nonpositive_and_nan_spectra(self, spectrum, smallest):
        with pytest.raises(NotPositiveDefiniteError, match="^operator is not positive definite"):
            require_positive(np.array(spectrum))
        batch = np.array([[1.0, 2.0], spectrum, [np.nan, np.nan]])
        with pytest.raises(NotPositiveDefiniteError, match="^interpolant is not") as info:
            require_positive(batch, "interpolant")
        # the first refused spectrum is the one reported
        if smallest is None:
            assert np.isnan(info.value.smallest)
        else:
            assert info.value.smallest == smallest


def test_hermitian_part_stays_finite_near_the_float_max():
    m = np.array([[1e308, 1e308], [1e308, 1.0]], dtype=complex)
    assert np.array_equal(hermitian_part(m), m)


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


# Relative error of one divided-difference entry against 60-digit
# arithmetic, in units of eps * max(1, |s|): the worst measured was 2.2, over
# 80,000 draws of s in [-1, 200], eigenvalues from 1e-6 to 1e6 and relative
# gaps of 0 and log-uniform from 1e-16 to 1e3, wherever both powers and the
# entry are normal floats.  Every exponent the package passes (beta, 1 - beta
# and (1 - beta)/beta at a float alpha inside (-1, 1)) is 0 or at least 2**-54
# in magnitude; below about 1e-292, |s| log1p(gap) is subnormal and the
# entry loses digits.
DIVIDED_DIFFERENCE_EPS = 4.0


def exact_divided_difference(mp, a, b, s):
    """(a**s - b**s)/(a - b) in mpmath arithmetic, s * a**(s-1) where a == b.

    Taken as a**s expm1(s log(b/a))/(b - a), which keeps its digits where the
    two powers agree to more than the working precision (s near 0).
    """
    a, b, s = mp.mpf(a), mp.mpf(b), mp.mpf(s)
    return s * a ** (s - 1) if a == b else a**s * mp.expm1(s * mp.log(b / a)) / (b - a)


def within_bound(value, exact, s):
    """|value - exact| <= DIVIDED_DIFFERENCE_EPS * eps * max(1, |s|) * |exact|."""
    bound = DIVIDED_DIFFERENCE_EPS * sys.float_info.epsilon * max(1.0, abs(s))
    return abs(value - exact) <= bound * abs(exact)


class TestDividedDifferences:
    """power_divided_differences, one formula for every pair, against mpmath."""

    @pytest.fixture
    def mp(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            yield mp

    @pytest.mark.parametrize("s", [0.7, -0.5, 18.0])
    def test_near_repeats_against_mpmath(self, mp, s):
        # an exact repeat, and relative gaps of 5e-9 and 2e-8 either side of
        # the 1e-8 at which the table once switched from the secant, which
        # cancels there, to the derivative at the pair's midpoint
        rng = np.random.default_rng(29)
        w = np.sort(rng.uniform(0.2, 4.0, size=(16, 7)), axis=-1)
        w[:, 1] = w[:, 0]
        w[:, 3] = w[:, 2] * (1.0 + 5e-9)
        w[:, 5] = w[:, 4] * (1.0 + 2e-8)
        tables = power_divided_differences(w, s)
        # a stack of spectra and a single one
        assert tables[0].tobytes() == power_divided_differences(w[0], s).tobytes()
        for spectrum, table in zip(w.tolist(), tables):
            for i, a in enumerate(spectrum):
                for j, b in enumerate(spectrum):
                    assert within_bound(table[i, j], exact_divided_difference(mp, a, b, s), s)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        s=st.floats(-1.0, 200.0),
        lo=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
        gap=st.one_of(st.just(0.0), st.floats(-16.0, 3.0).map(lambda e: 10.0**e)),
    )
    def test_every_entry_against_mpmath(self, s, lo, gap):
        # relative gaps from exact repeats up to 1e3, wherever both powers
        # and the entry are normal floats, at the exponents the package passes
        assume(s == 0.0 or abs(s) >= 2.0**-54)
        mp = pytest.importorskip("mpmath")
        hi = lo * (1.0 + gap)
        with mp.workdps(60):
            exact = exact_divided_difference(mp, hi, lo, s)
            for v in (mp.mpf(lo) ** s, mp.mpf(hi) ** s, exact or 1.0):  # exact is 0 at s = 0
                assume(sys.float_info.min <= abs(v) <= sys.float_info.max)
            table = power_divided_differences(np.array([lo, hi]), s)
            assert table[0, 1] == table[1, 0]
            assert within_bound(table[0, 1], exact, s)

    def test_exact_repeats_take_the_derivative(self):
        # s * w**(s-1) exactly, with no 0/0 on the way (warnings are errors)
        w = np.array([0.3, 0.3, 1.0, 2.5, 2.5, 2.5])
        same = w[:, None] == w[None, :]
        repeated = np.broadcast_to(w[:, None], same.shape)[same]
        for s in (-0.95, -0.5, 0.0, 0.01, 0.5, 0.99, 3.0, 19.0):
            table = power_divided_differences(w, s)
            assert table[same].tobytes() == (s * repeated ** (s - 1.0)).tobytes()
            assert np.count_nonzero(np.isfinite(table)) == table.size


def reference_gradient(field, x, cfg):
    """The nested stencil's gradient: one shifted copy of x per field call."""
    offsets, coeffs = numkit._STENCILS[cfg.order]
    grad = []
    for k in range(x.size):
        acc = 0.0
        for off, c in zip(offsets, coeffs):
            shifted = x.copy()
            shifted[k] += off * cfg.step
            acc = acc + c * field(shifted)
        grad.append(acc / cfg.step)
    return np.array(grad)


def reference_partials(f, p, q, pattern, cfg):
    """mixed_partials as a fold of reference_gradient, the last character innermost."""

    def value(p, q):
        try:
            v = float(f(p, q))
        except ValueError as exc:
            raise NumericalDomainError(
                f"function is undefined on the stencil at p={p!r}, q={q!r}: {exc}"
            ) from exc
        if not math.isfinite(v):
            raise NumericalDomainError(
                f"function value is not finite on the stencil at p={p!r}, q={q!r}"
            )
        return v

    def partial(field, block):
        if block == "p":
            return lambda p, q: reference_gradient(lambda x: field(x, q), p, cfg)
        return lambda p, q: reference_gradient(lambda x: field(p, x), q, cfg)

    shape = tuple(p.size if c == "p" else q.size for c in pattern)
    return functools.reduce(partial, reversed(pattern), value)(p, q).reshape(shape)


def outcome(estimate, f, *args):
    """(result bytes or refusal message, the (p, q) bytes of every call of f)."""
    calls = []

    def recorded(x, y):
        calls.append((x.tobytes(), y.tobytes()))
        return f(x, y)

    try:
        result = estimate(recorded, *args).tobytes()
    except NumericalDomainError as exc:
        result = str(exc)
    return result, calls


class TestFlatStencilGrid:
    """The stencil grid, a product of two row lists, against the nested stencils, bit for bit."""

    P = np.array([0.3, 1.1])
    Q = np.array([0.7, 0.45, 1.3])

    @staticmethod
    def smooth(x, y):
        return float(np.exp(0.4 * x[0] - y[-1]) * np.log1p(x @ x + 0.3 * y.sum()) + x[-1] * y[0] ** 3)

    @pytest.mark.parametrize("pattern", ["p", "q", "pq", "qp", "ppq", "qqp", "pqq", "qpp", "ppqq"])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("blocks", ["equal", "unequal"])
    @pytest.mark.parametrize("kind", ["smooth", "refusing", "infinite"])
    def test_same_calls_and_bits_as_the_nested_stencils(self, pattern, order, blocks, kind):
        cfg = FDConfig(1e-2, order)
        p, q = (self.P, self.P) if blocks == "equal" else (self.P, self.Q)
        up, down = p.sum() + q.sum() + 1.5 * cfg.step, p[0] + q[0] - 1.5 * cfg.step

        def refusing(x, y):  # off the domain two steps up the coordinate sum
            if x.sum() + y.sum() > up:
                raise ValueError("off the domain")
            return self.smooth(x, y)

        def infinite(x, y):  # infinite two steps down p_0 + q_0
            return np.inf if x[0] + y[0] < down else self.smooth(x, y)

        f = {"smooth": self.smooth, "refusing": refusing, "infinite": infinite}[kind]
        flat = outcome(mixed_partials, f, p, q, pattern, cfg)
        nested = outcome(reference_partials, f, p, q, pattern, cfg)
        assert flat[0] == nested[0]
        assert flat[1] == nested[1]
        # a smooth f gives a value; the others refuse once two steps can reach
        assert isinstance(flat[0], bytes) == (kind == "smooth" or (order == 2 and len(pattern) == 1))

    @pytest.mark.parametrize("order", [2, 4])
    def test_gradient_of_an_array_field_matches_the_nested_stencil(self, order):
        def field(x):
            return np.array([[x[0] * np.sin(x[1]), np.exp(x[0] - x[2])], [x[1] ** 3, 1.0 / x[2]]])

        x = np.array([0.3, 1.1, 0.7])
        cfg = FDConfig(1e-3, order)
        grad = stencil_gradient(field, x, cfg)
        assert grad.shape == (3, 2, 2)
        assert grad.tobytes() == reference_gradient(field, x, cfg).tobytes()

    def test_gradient_lets_a_field_value_error_through(self):
        # only mixed_partials maps a contrast's ValueError to a domain error
        def field(x):
            raise ValueError("field refused")

        with pytest.raises(ValueError, match="^field refused$") as info:
            stencil_gradient(field, np.ones(2), FDConfig())
        assert type(info.value) is ValueError

    def test_grid_memory_per_entry(self):
        # "ppq" at 8 coordinates on the 4-point stencil is 32**3 = 32,768
        # calls of f.  The grid holds their values and each block's stencil
        # rows, with no row index per entry: tracemalloc's peak measured 22
        # bytes an entry on CPython 3.11, against 54 with per-entry index lists
        def constant(x, y):
            return 1.0

        p = np.linspace(0.5, 1.2, 8)
        cfg = FDConfig(1e-2, 4)
        mixed_partials(constant, p, p, "ppq", cfg)
        tracemalloc.start()
        try:
            mixed_partials(constant, p, p, "ppq", cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 32**3 < 32

    def test_gradient_at_a_list_point_is_the_gradient_at_its_array(self):
        def field(x):
            return np.array([x[0] * np.sin(x[1]), np.exp(x[0] - x[1])])

        cfg = FDConfig(1e-3, 4)
        at_list = stencil_gradient(field, [0.3, 1.1], cfg)
        assert at_list.tobytes() == stencil_gradient(field, np.array([0.3, 1.1]), cfg).tobytes()

    @pytest.mark.parametrize("pattern, shape", [("pq", (2, 0)), ("qp", (0, 2)), ("ppq", (2, 2, 0))])
    def test_empty_block_never_calls_f(self, pattern, shape):
        def f(x, y):
            raise AssertionError("f called")

        out = mixed_partials(f, np.ones(2), np.empty(0), pattern, FDConfig())
        assert out.shape == shape and out.dtype == np.float64


class TestMixedPartials:
    def test_quadratic_cross_term(self):
        def f(x, y):
            return float(np.sum((x - y) ** 2))

        p = np.array([1.0, 2.0])
        out = mixed_partials(f, p, p, "pq", FDConfig())
        assert np.allclose(out, -2.0 * np.eye(2), atol=1e-9, rtol=0)

    def test_cubic_third_order(self):
        def f(x, y):
            return float(x[0] ** 2 * y[0])

        p = np.array([1.5])
        out = mixed_partials(f, p, p, "ppq", FDConfig())
        assert abs(out[0, 0, 0] - 2.0) <= 1e-5

    def test_fisher_from_alpha_zero_divergence(self):
        # -d_i d'_j of the closed-form alpha = 0 divergence at p = q = (1, 1)
        def div(x, y):
            return float(np.sum(2.0 * y + 2.0 * x - 4.0 * np.sqrt(x * y)))

        p = np.array([1.0, 1.0])
        out = -mixed_partials(div, p, p, "pq", FDConfig())
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
            mixed_partials(f, np.array([1.0]), np.array([1.0]), "pq", FDConfig())

    @pytest.mark.parametrize("cfg", [FDConfig(2.0**-4, 2), FDConfig(2.0**-4, 4)])
    def test_axis_order_on_unequal_blocks(self, cfg):
        # f = B_ij p_i q_j + C_ijk p_i q_j p_k is at most quadratic in each
        # coordinate, so both stencils reproduce its partials up to roundoff;
        # p has 2 coordinates and q 3, so a swapped axis changes the shape
        rng = np.random.default_rng(5)
        b = rng.integers(-3, 4, size=(2, 3)).astype(float)
        c = rng.integers(-3, 4, size=(2, 3, 2)).astype(float)

        def f(x, y):
            return float(x @ b @ y + np.einsum("ijk,i,j,k->", c, x, y, x))

        p = np.array([1.5, 0.75])
        q = np.array([0.5, 1.25, 2.0])
        qp = mixed_partials(f, p, q, "qp", cfg)
        assert qp.shape == (3, 2)
        # d_{q_a} d_{p_b} f = B_ba + C_bak p_k + C_iab p_i
        expected = b.T + np.einsum("bak,k->ab", c, p) + np.einsum("iab,i->ab", c, p)
        assert np.allclose(qp, expected, rtol=0, atol=1e-9)
        # an interleaved pattern is refused; the grouped one with its axes
        # moved gives d_{p_a} d_{q_b} d_{p_c} f = C_abc + C_cba
        with pytest.raises(ValueError, match="^pattern must keep each block's"):
            mixed_partials(f, p, q, "pqp", cfg)
        pqp = np.moveaxis(mixed_partials(f, p, q, "ppq", cfg), 2, 1)
        assert pqp.shape == (2, 3, 2)
        assert np.allclose(pqp, c + np.transpose(c, (2, 1, 0)), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("pattern", ["q", "qp"])
    def test_nonfinite_value_off_centre(self, pattern):
        # finite at the centre; infinite only where q_1 is stepped down
        def f(x, y):
            return np.inf if y[1] < 1.0 else float(x @ y)

        p = np.array([1.0, 1.0])
        assert np.isfinite(f(p, p))
        with pytest.raises(NumericalDomainError, match="not finite on the stencil"):
            mixed_partials(f, p, p, pattern, FDConfig())

    def test_refused_stencil_point_is_a_domain_error(self):
        # the function refuses x_0 <= 0, which the stencil around 1e-4 reaches
        def f(x, y):
            if x[0] <= 0.0:
                raise ValueError("off the domain")
            return float(x @ y)

        p = np.array([1e-4, 1.0])
        with pytest.raises(NumericalDomainError, match=r"undefined on the stencil at p=") as info:
            mixed_partials(f, p, p, "pq", FDConfig())
        assert isinstance(info.value.__cause__, ValueError)
        assert "off the domain" in str(info.value)

    def test_stencil_gradient_of_array_field(self):
        # field(x) = (x_0 x_1, x_1**2): gradient rows d_k, exact for quadratics
        def field(x):
            return np.array([x[0] * x[1], x[1] ** 2])

        grad = stencil_gradient(field, np.array([1.5, -0.5]), FDConfig(2.0**-4, 2))
        assert np.array_equal(grad, [[-0.5, 0.0], [1.5, -1.0]])

    @pytest.mark.parametrize("pattern", ["pz", "", "ppqqp"])
    def test_bad_pattern_rejected(self, pattern):
        with pytest.raises(ValueError, match="pattern"):
            mixed_partials(lambda x, y: 0.0, np.ones(2), np.ones(2), pattern, FDConfig())

    def test_fourth_order_pattern(self):
        # d_0 d_1 d'_0 d'_1 of x0 x1 y0 y1 is 1, every other entry 0
        p = np.array([0.3, 0.7])
        cfg = FDConfig(step=1e-2, order=2)
        block = mixed_partials(lambda x, y: x[0] * x[1] * y[0] * y[1], p, p, "ppqq", cfg)
        expected = np.zeros((2, 2, 2, 2))
        expected[0, 1, 0, 1] = expected[1, 0, 0, 1] = 1.0
        expected[0, 1, 1, 0] = expected[1, 0, 1, 0] = 1.0
        assert block.shape == (2, 2, 2, 2)
        assert np.max(np.abs(block - expected)) <= 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FDConfig(step=1e-7)
        with pytest.raises(ValueError):
            FDConfig(order=3)


# the two out-of-range refusals of chart_exponent, by whether the mixture
# endpoint alpha = -1 is admitted
RANGE_MESSAGES = {
    False: "alpha must lie strictly inside (-1, 1), got {}; "
    "use the dedicated entropy operations for the limits",
    True: "alpha must lie in [-1, 1) for geodesic operations, got {}",
}


class TestChartExponentGate:
    def test_open_interval_for_divergences(self):
        assert chart_exponent(0.5) == 0.25
        for bad in (-1.0, 1.0, -1.5, 2.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                chart_exponent(bad)

    def test_non_finite_alpha_message(self):
        for bad in (np.nan, np.inf):
            for geodesic in (False, True):
                with pytest.raises(ValueError, match="^alpha must be finite$"):
                    chart_exponent(bad, geodesic=geodesic)

    def test_mixture_endpoint_allowed_for_geodesics(self):
        assert chart_exponent(-1.0, geodesic=True) == 1.0
        with pytest.raises(ValueError):
            chart_exponent(1.0, geodesic=True)

    @pytest.mark.parametrize("geodesic", [False, True])
    def test_range_messages_and_returned_beta(self, geodesic):
        admitted = [-0.5, 0, 0.3, np.float64(0.9)] + ([-1.0] if geodesic else [])
        for alpha in admitted:
            beta = chart_exponent(alpha, geodesic=geodesic)
            assert type(beta) is float and beta == 0.5 * (1.0 - float(alpha))
        refused = [-1.5, 1.0, 2.0, np.float64(1.0)] + ([] if geodesic else [-1.0])
        for alpha in refused:
            message = RANGE_MESSAGES[geodesic].format(float(alpha))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                chart_exponent(alpha, geodesic=geodesic)


class TestCheckQ:
    def test_open_unit_interval(self):
        assert check_q(0.25) == 0.25
        for bad in (0.0, 1.0, -0.2, 1.5, np.inf, np.nan):
            with pytest.raises(ValueError, match=r"^q must lie strictly inside \(0, 1\), got"):
                check_q(bad)
