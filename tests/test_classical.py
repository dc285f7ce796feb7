import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphadiv import classical as cl
from alphadiv.numkit import NumericalDomainError, chart_exponent

ALPHAS = (-0.9, -0.5, 0.0, 0.5, 0.9)


def random_pair(rng, dim, lo=0.1, hi=5.0):
    return rng.uniform(lo, hi, dim), rng.uniform(lo, hi, dim)


class TestValidation:
    def test_rejects_nonpositive_measures(self):
        for bad, message in (
            ([1.0, 0.0], "^measure entries must be strictly positive, got "),
            ([1.0, -2.0], "^measure entries must be strictly positive, got "),
            ([np.nan, 1.0], "^measure entries must be finite$"),
            ([1.0, -np.inf], "^measure entries must be finite$"),
            ([], "^a measure must be a nonempty 1-D vector$"),
        ):
            with pytest.raises(ValueError, match=message):
                cl.as_measure(bad)

    # sizes on both sides of the plain-Python check's cutoff
    @pytest.mark.parametrize("n", [1, cl._SMALL, cl._SMALL + 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -2.0])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_bad_entry_refused_at_every_size_and_position(self, n, bad, where):
        vec = [1.5] * n
        vec[{"first": 0, "middle": n // 2, "last": n - 1}[where]] = bad
        if np.isfinite(bad):
            expected = f"measure entries must be strictly positive, got {np.asarray(vec)!r}"
        else:
            expected = "measure entries must be finite"
        with pytest.raises(ValueError) as exc:
            cl.as_measure(vec)
        assert str(exc.value) == expected
        # the second argument of a closed form goes through the same check
        with pytest.raises(ValueError) as exc:
            cl.alpha_divergence_closed([1.5] * n, vec, 0.3)
        assert str(exc.value) == expected

    @pytest.mark.parametrize("n", [1, cl._SMALL, cl._SMALL + 1])
    def test_non_finite_reported_before_nonpositive(self, n):
        vec = [1.5] * n
        vec[0] = -1.0
        vec[-1] = np.nan
        with pytest.raises(ValueError, match="^measure entries must be finite$"):
            cl.as_measure(vec)

    @pytest.mark.parametrize("n", [cl._SMALL, cl._SMALL + 1])
    def test_same_float_vector_on_both_sides_of_the_cutoff(self, n):
        ints = list(range(1, n + 1))
        out = cl.as_measure(ints)
        assert out.dtype == np.float64 and out.shape == (n,)
        assert np.array_equal(out, np.arange(1.0, n + 1.0))
        arr = np.arange(1.0, n + 1.0)
        assert cl.as_measure(arr) is arr

    @pytest.mark.parametrize("n", [2, cl._SMALL])
    def test_finite_vector_whose_sum_overflows_is_accepted(self, n):
        # the short check's Python sum is inf; the numpy checks accept the vector
        vec = [1.7e308] * n
        assert sum(vec) == np.inf
        assert np.array_equal(cl.as_measure(vec), vec)
        arr = np.array(vec)
        assert cl.as_measure(arr) is arr

    # one measure, and a pair through each kind of caller: a closed form, the
    # Tsallis form with its q gate, and the geodesic with its t gate
    @pytest.mark.parametrize(
        "check",
        [
            lambda p, q: cl.as_measure(p),
            lambda p, q: cl.alpha_divergence_closed(p, q, 0.3),
            lambda p, q: cl.tsallis_q_divergence(p, q, 0.4),
            lambda p, q: cl.alpha_geodesic(p, q, 0.3, 0.5),
        ],
        ids=["as_measure", "alpha_divergence_closed", "tsallis_q_divergence", "alpha_geodesic"],
    )
    def test_small_vectors_skip_the_numpy_checks(self, monkeypatch, check):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy check reached")

        monkeypatch.setattr(cl.np, "isfinite", refuse)
        check([1.0] * cl._SMALL, [2.0] * cl._SMALL)
        with pytest.raises(AssertionError, match="numpy check reached"):
            check([1.0] * (cl._SMALL + 1), [2.0] * (cl._SMALL + 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cl.fisher_metric([1.0, 2.0], [1.0], [1.0, 0.0])
        with pytest.raises(ValueError) as exc:
            cl.alpha_divergence_closed([1.0, 2.0], [1.0], 0.0)
        assert str(exc.value) == "measures must share a dimension, got 2 and 1"
        # a bad first measure is named before the shapes are compared
        with pytest.raises(ValueError) as exc:
            cl.alpha_divergence_closed([1.0, -2.0], [1.0], 0.0)
        assert str(exc.value) == (
            f"measure entries must be strictly positive, got {np.array([1.0, -2.0])!r}"
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tangent_refused(self, bad):
        for x, y in (([1.0, bad], [1.0, 0.0]), ([1.0, 0.0], [bad, 1.0])):
            with pytest.raises(ValueError, match="^tangent entries must be finite$"):
                cl.fisher_metric([1.0, 2.0], x, y)

    def test_alpha_limits_rejected_by_divergences(self):
        for a in (-1.0, 1.0):
            with pytest.raises(ValueError):
                cl.alpha_divergence_closed([1.0], [2.0], a)
            with pytest.raises(ValueError):
                cl.canonical_divergence_numeric([1.0], [2.0], a)

    def test_t_outside_unit_interval(self):
        with pytest.raises(ValueError):
            cl.alpha_geodesic([1.0], [2.0], 0.0, 1.5)
        with pytest.raises(ValueError):
            cl.geodesic_velocity([1.0], [2.0], 0.0, -0.1)


def reference_as_measure(p):
    """`as_measure` with a short-vector check of its own, as it stood when each
    measure of a pair was checked apart."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 1 and 0 < p.size <= cl._SMALL:
        entries = p.tolist()
        if 0.0 < min(entries) and sum(entries) < math.inf:
            return p
    if p.ndim != 1 or p.size == 0:
        raise ValueError("a measure must be a nonempty 1-D vector")
    if np.count_nonzero(np.isfinite(p)) != p.size:
        raise ValueError("measure entries must be finite")
    if np.count_nonzero(p <= 0.0):
        raise ValueError(f"measure entries must be strictly positive, got {p!r}")
    return p


def reference_measure_pair(p, q):
    p = reference_as_measure(p)
    q = reference_as_measure(q)
    if p.shape != q.shape:
        raise ValueError(f"measures must share a dimension, got {p.size} and {q.size}")
    return p, q


def outcome(check, p, q):
    """The pair a check returns, or the type and message of what it raises."""
    try:
        return "returned", check(p, q)
    except Exception as exc:
        return "raised", type(exc), str(exc)


BAD_ENTRIES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -2.0])


@st.composite
def measure_like(draw, n):
    """n entries in [1e-3, 1e3], as one of the forms a caller may pass: a float
    vector, a list, a list of ints, a 0-d array or a 2-D array.  Some carry a
    bad entry, or 1e308, whose sum with another such vector overflows."""
    entries = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    change = draw(st.sampled_from(["none", "bad", "huge"]))
    if change != "none" and n:
        value = draw(BAD_ENTRIES) if change == "bad" else 1e308
        entries[draw(st.integers(0, n - 1))] = value
    form = draw(st.sampled_from(["array", "array", "list", "ints", "0-d", "2-D"]))
    if form == "list":
        return entries
    if form == "ints":
        return [int(x) if math.isfinite(x) else x for x in entries]
    if form == "0-d":
        return np.array(entries[0] if n else 1.0)
    if form == "2-D":
        return np.array(entries).reshape(1, n)
    return np.array(entries)


@st.composite
def measure_pairs(draw):
    """Sizes 0 to _SMALL + 1, mostly equal; sometimes q is p itself."""
    n = draw(st.integers(0, cl._SMALL + 1))
    p = draw(measure_like(n))
    if draw(st.integers(0, 4)) == 0:
        return p, p
    m = draw(st.one_of(st.just(n), st.just(n), st.integers(0, cl._SMALL + 1)))
    return p, draw(measure_like(m))


class TestMeasurePairOracle:
    """`_measure_pair` checks a short pair in one pass; every other pair goes
    through `as_measure` on each side and a shape test.  Either way it returns
    what the measure-by-measure check returns, or refuses with its message."""

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(measure_pairs())
    @example((np.array([1.0, -2.0]), np.array([1.0])))  # a bad p beside a mismatch
    @example((np.array([1e308, 1.0]), np.array([1e308, 2.0])))  # the sums overflow together
    @example((np.full(cl._SMALL, 1.5),) * 2)  # q is p
    def test_same_objects_or_same_refusal(self, pair):
        p, q = pair
        want = outcome(reference_measure_pair, p, q)
        got = outcome(cl._measure_pair, p, q)
        if want[0] == "raised":
            assert got == want
            return
        assert got[0] == "returned"
        for given_arg, w, g in zip((p, q), want[1], got[1]):
            if isinstance(given_arg, np.ndarray) and given_arg.dtype == np.float64:
                assert w is given_arg and g is given_arg
            else:
                assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


class TestFisherMetric:
    def test_unit_example(self):
        assert cl.fisher_metric([1.0, 1.0], [1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_weighted_example(self):
        # 1*1/2 + 1*(-1)/4
        assert cl.fisher_metric([2.0, 4.0], [1.0, 1.0], [1.0, -1.0]) == pytest.approx(0.25, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.uniform(0.1, 5.0, 4)
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            assert cl.fisher_metric(p, x, y) == pytest.approx(cl.fisher_metric(p, y, x), rel=1e-14)


class TestChristoffel:
    def test_mixture_connection_is_flat(self):
        assert np.all(cl.alpha_christoffel([1.0, 2.0, 3.0], -1.0) == 0.0)

    def test_exponential_connection_values(self):
        g = cl.alpha_christoffel([2.0, 1.0], 1.0)
        assert g[0, 0, 0] == pytest.approx(-0.5, abs=1e-15)
        assert g[1, 1, 1] == pytest.approx(-1.0, abs=1e-15)

    def test_off_diagonal_entries_vanish(self):
        g = cl.alpha_christoffel([1.5, 2.5, 0.5], 0.3)
        idx = np.arange(3)
        g[idx, idx, idx] = 0.0
        assert np.all(g == 0.0)


class TestGeodesic:
    def test_endpoints_exact(self):
        p, q = np.array([1.0, 3.0]), np.array([2.0, 0.5])
        for a in ALPHAS:
            assert np.array_equal(cl.alpha_geodesic(p, q, a, 0.0), p)
            assert np.array_equal(cl.alpha_geodesic(p, q, a, 1.0), q)

    def test_mixture_geodesic_is_linear(self):
        p, q = np.array([1.0, 3.0]), np.array([2.0, 0.5])
        for t in (0.25, 0.5, 0.75):
            assert np.allclose(
                cl.alpha_geodesic(p, q, -1.0, t), (1 - t) * p + t * q, atol=1e-15, rtol=0
            )

    def test_alpha_zero_midpoint(self):
        # square-root interpolation then squaring
        out = cl.alpha_geodesic([1.0], [4.0], 0.0, 0.5)
        assert out[0] == pytest.approx(2.25, abs=1e-14)

    def test_velocity_zero_for_equal_endpoints(self):
        p = np.array([1.0, 2.0])
        for a in ALPHAS:
            assert np.all(cl.geodesic_velocity(p, p, a, 0.3) == 0.0)

    def test_mixture_velocity_constant(self):
        p, q = np.array([1.0, 3.0]), np.array([2.0, 0.5])
        for t in (0.0, 0.4, 1.0):
            assert np.allclose(cl.geodesic_velocity(p, q, -1.0, t), q - p, atol=1e-15, rtol=0)

    def test_velocity_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(10):
            p, q = random_pair(rng, 3, 0.5, 3.0)
            for a in ALPHAS:
                vel = cl.geodesic_velocity(p, q, a, 0.3)
                fd = (cl.alpha_geodesic(p, q, a, 0.3 + h) - cl.alpha_geodesic(p, q, a, 0.3 - h)) / (
                    2 * h
                )
                assert np.max(np.abs(vel - fd)) <= 1e-8


def _old_interpolant(p, q, beta, t):
    return (1.0 - t) * p**beta + t * q**beta


def _old_geodesic(p, q, beta, t):
    if t == 0.0:
        return p.copy()
    if t == 1.0:
        return q.copy()
    return _old_interpolant(p, q, beta, t) ** (1.0 / beta)


def _old_velocity(p, q, beta, t):
    delta = q**beta - p**beta
    return (1.0 / beta) * _old_interpolant(p, q, beta, t) ** ((1.0 - beta) / beta) * delta


def _old_residual(p, q, beta, t):
    delta = q**beta - p**beta
    m = _old_interpolant(p, q, beta, t)
    gamma = m ** (1.0 / beta)
    vel = (1.0 / beta) * m ** ((1.0 - beta) / beta) * delta
    acc = ((1.0 - beta) / beta**2) * m ** ((1.0 - 2.0 * beta) / beta) * delta**2
    return float(np.max(np.abs(acc - (1.0 - beta) * vel**2 / gamma)))


class TestChartLineAgainstReference:
    """The geodesic, its velocity and its equation's residual share one chart
    line; each returns the bits of its own formula over the powers, held here."""

    @pytest.mark.parametrize("alpha", [-1.0, -0.9, -0.5, 0.0, 0.3, 0.9, 0.999])
    def test_bit_identical_to_the_separate_formulas(self, alpha):
        rng = np.random.default_rng(int(1000 * alpha) + 2000)
        beta = chart_exponent(alpha, geodesic=True)
        for dim in (1, 2, 5, 17, 39):
            p, q = random_pair(rng, dim, 0.05, 20.0)
            for t in (0.0, 1.0, float(rng.uniform())):
                point = cl.alpha_geodesic(p, q, alpha, t)
                assert point is not p and point is not q
                assert point.tobytes() == _old_geodesic(p, q, beta, t).tobytes()
                velocity = cl.geodesic_velocity(p, q, alpha, t).tobytes()
                assert velocity == _old_velocity(p, q, beta, t).tobytes()
                residual = cl.geodesic_ode_residual(p, q, alpha, t)
                assert residual == _old_residual(p, q, beta, t)


class TestGeodesicEquation:
    def test_residual_vanishes_on_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p, q = random_pair(rng, 4)
            for a in ALPHAS:
                for t in np.linspace(0.1, 0.9, 9):
                    assert cl.geodesic_ode_residual(p, q, a, t) <= 1e-10

    def test_mixture_residual_exactly_zero(self):
        rng = np.random.default_rng(4)
        p, q = random_pair(rng, 3)
        assert cl.geodesic_ode_residual(p, q, -1.0, 0.5) == 0.0

    def test_wrong_curve_violates_equation(self):
        # swap alpha for -alpha in the curve and test it against the
        # alpha-equation, with the second derivative taken numerically
        p, q = np.array([1.0, 2.0]), np.array([2.0, 1.0])
        a, t, h = 0.5, 0.5, 1e-5
        gamma = cl.alpha_geodesic(p, q, -a, t)
        vel = cl.geodesic_velocity(p, q, -a, t)
        acc = (
            cl.geodesic_velocity(p, q, -a, t + h) - cl.geodesic_velocity(p, q, -a, t - h)
        ) / (2 * h)
        residual = np.max(np.abs(acc - 0.5 * (1 + a) * vel**2 / gamma))
        assert residual > 1e-3


class TestInverseExponential:
    def test_mixture_case(self):
        p, q = np.array([1.0, 3.0]), np.array([2.0, 0.5])
        assert np.allclose(cl.geodesic_velocity(p, q, -1.0, 0.0), q - p, atol=1e-15, rtol=0)

    def test_equal_points(self):
        p = np.array([1.0, 2.0])
        assert np.all(cl.geodesic_velocity(p, p, 0.3, 0.0) == 0.0)

    def test_alpha_zero_value(self):
        # 2 sqrt(p) (sqrt(q) - sqrt(p)) at p=1, q=4
        assert cl.geodesic_velocity([1.0], [4.0], 0.0, 0.0)[0] == pytest.approx(2.0, abs=1e-14)


class TestCanonicalDivergence:
    def test_zero_on_diagonal(self):
        p = np.array([1.3, 0.4, 2.2])
        for a in ALPHAS:
            assert cl.canonical_divergence_numeric(p, p, a) == 0.0

    def test_worked_constant(self):
        p, q = [1.0, 2.0], [2.0, 1.0]
        expected = 12.0 - 8.0 * np.sqrt(2.0)
        closed = cl.alpha_divergence_closed(p, q, 0.0)
        numeric = cl.canonical_divergence_numeric(p, q, 0.0)
        assert closed == pytest.approx(expected, abs=1e-12)
        assert abs(numeric - closed) <= 1e-10

    def test_matches_closed_form_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            dim = int(rng.integers(1, 7))
            p, q = random_pair(rng, dim)
            for a in ALPHAS:
                closed = cl.alpha_divergence_closed(p, q, a)
                numeric = cl.canonical_divergence_numeric(p, q, a)
                assert abs(numeric - closed) <= 1e-9 * (1.0 + abs(closed))

    def test_refinement_restores_accuracy_on_extreme_ratios(self):
        # entry ratios of 5000 at alpha = -0.9 push the integrand's
        # singularity close to t = 1; the fix is a larger rule, not adaptivity
        from alphadiv.numkit import gauss_legendre_rule

        p, q = np.array([0.01, 50.0]), np.array([50.0, 0.01])
        ref = cl.alpha_divergence_closed(p, q, -0.9)
        coarse = cl.canonical_divergence_numeric(p, q, -0.9, gauss_legendre_rule(64))
        fine = cl.canonical_divergence_numeric(p, q, -0.9, gauss_legendre_rule(512))
        assert abs(coarse - ref) / (1 + abs(ref)) > 1e-6
        assert abs(fine - ref) / (1 + abs(ref)) <= 1e-10

    def test_limit_toward_kl(self):
        p, q = [2.0, 1.0], [1.0, 1.0]
        value = cl.canonical_divergence_numeric(p, q, -1.0 + 1e-8)
        assert abs(value - cl.kl_extended(p, q)) <= 1e-6

    def test_limit_toward_reversed_kl(self):
        p, q = [1.0, 1.0], [2.0, 1.0]
        value = cl.canonical_divergence_numeric(p, q, 1.0 - 1e-8)
        assert abs(value - cl.kl_extended(q, p)) <= 1e-6


def within_gate_or_refused(p, q, alpha):
    """The 64-node quadrature within 1e-9 relative of the closed form, or refused."""
    closed = cl.alpha_divergence_closed(p, q, alpha)
    try:
        value = cl.canonical_divergence_numeric(p, q, alpha)
    except NumericalDomainError:
        return
    assert abs(value - closed) <= 1e-9 * abs(closed), (value, closed)


class TestSilentQuadratureErrors:
    """Inputs outside verify's draws, where the quadrature answers wrong without a refusal."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="(b - a)**2 underflows for components below about 1e-162 at alpha = -0.9, "
        "so the quadrature returns 0.0 against a closed form of 7.24e-301 (ROADMAP item 7)",
    )
    def test_tiny_measures_are_not_flushed_to_zero(self):
        within_gate_or_refused([1e-300, 2e-300, 5e-301], [2e-300, 1e-300, 7e-301], -0.9)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="a component ratio of 5e6 puts the integrand's branch point just outside "
        "[0, 1], where 64 nodes give 41.49 against 56.59 (ROADMAP item 2)",
    )
    def test_boundary_ratio_is_integrated_or_refused(self):
        within_gate_or_refused([1e-6, 1.0, 5.0], [5.0, 1.0, 1e-6], -0.9)


class TestDualDivergence:
    def test_zero_on_diagonal(self):
        p = np.array([0.7, 1.9])
        assert cl.canonical_divergence_numeric(p, p, -0.4) == 0.0

    def test_equals_argument_swap(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p, q = random_pair(rng, 3, 0.5, 3.0)
            for a in ALPHAS:
                dual = cl.canonical_divergence_numeric(p, q, -a)
                swapped = cl.canonical_divergence_numeric(q, p, a)
                assert abs(dual - swapped) <= 1e-10

    def test_self_dual_at_alpha_zero(self):
        # alpha = 0 is the self-dual point: the divergence is symmetric in its arguments
        rng = np.random.default_rng(12)
        for _ in range(10):
            p, q = random_pair(rng, 3, 0.5, 3.0)
            forward = cl.canonical_divergence_numeric(p, q, 0.0)
            assert forward > 0.0
            assert abs(forward - cl.canonical_divergence_numeric(q, p, 0.0)) <= 1e-12 * forward


class TestClosedForm:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q = random_pair(rng, 4)
            for a in ALPHAS:
                assert cl.alpha_divergence_closed(p, p, a) == 0.0
                assert cl.alpha_divergence_closed(p, q, a) > 1e-14

    def test_exchange_symmetry(self):
        # the grouped evaluation that makes D(p, p) exactly zero computes the
        # two sides differently, so symmetry holds to a few ulps of the value
        rng = np.random.default_rng(8)
        for _ in range(20):
            p, q = random_pair(rng, 3)
            for a in ALPHAS:
                lhs = cl.alpha_divergence_closed(p, q, a)
                rhs = cl.alpha_divergence_closed(q, p, -a)
                assert abs(lhs - rhs) <= 3e-14 * (1.0 + abs(lhs))

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p, q = random_pair(rng, 5)
            for a in ALPHAS:
                assert cl.alpha_divergence_closed(p, q, a) >= -1e-12


def numpy_kernel_terms(p, q, beta):
    """The three terms of the shared closed-form kernel, as numpy arrays."""
    a = p**beta
    b = q**beta
    mexp = 1.0 / beta
    mm1 = (1.0 - beta) / beta
    return a**mexp, b**mexp, mexp * b**mm1 * (a - b)


# components log-uniform in [1e-3, 1e3]; beta over (1e-3, 1 - 1e-3), with
# draws held within 1e-3 of each end, where one power amplifies roundoff 1/beta
# times
COMPONENTS = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
BETAS = st.one_of(
    st.floats(1e-3, 1.0 - 1e-3), st.floats(1e-3, 2e-3), st.floats(1.0 - 2e-3, 1.0 - 1e-3)
)


@st.composite
def kernel_arguments(draw):
    n = draw(st.integers(1, cl._SMALL + 1))
    p = np.array(draw(st.lists(COMPONENTS, min_size=n, max_size=n)))
    q = np.array(draw(st.lists(COMPONENTS, min_size=n, max_size=n)))
    return p, q, draw(BETAS)


class _NoPower(np.ndarray):
    def __pow__(self, other):
        raise AssertionError("numpy power reached")


class TestSharedKernel:
    """`_bregman_power_sum`: plain Python up to `_SMALL` entries, numpy above."""

    # the bound is fixed in advance: 4 n eps (1 + 1/beta) times the sum of the
    # terms' magnitudes
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(kernel_arguments())
    def test_both_branches_within_roundoff_of_the_numpy_expression(self, args):
        p, q, beta = args
        terms = numpy_kernel_terms(p, q, beta)
        reference = float((terms[0] - terms[1] - terms[2]).sum())
        scale = float(sum(np.abs(t).sum() for t in terms))
        bound = 4.0 * p.size * np.finfo(float).eps * (1.0 + 1.0 / beta) * scale
        assert abs(cl._bregman_power_sum(p, q, beta) - reference) <= bound

    @pytest.mark.parametrize("n", [1, cl._SMALL, cl._SMALL + 1])
    def test_identical_arguments_exactly_zero(self, n):
        p = np.random.default_rng(n).uniform(1e-3, 1e3, n)
        for a in ALPHAS:
            assert cl.alpha_divergence_closed(p, p.copy(), a) == 0.0
        assert cl.tsallis_q_divergence(p, p.copy(), 0.3) == 0.0

    def test_short_vectors_skip_numpy(self):
        p = np.full(cl._SMALL + 1, 1.5).view(_NoPower)
        q = np.full(cl._SMALL + 1, 2.5).view(_NoPower)
        assert cl._bregman_power_sum(p[: cl._SMALL], q[: cl._SMALL], 0.3) > 0.0
        with pytest.raises(AssertionError, match="numpy power reached"):
            cl._bregman_power_sum(p, q, 0.3)

    def test_overflow_falls_back_to_numpy(self):
        p, q = [sys.float_info.max, 1.0], [1.0, 2.0]
        beta = chart_exponent(0.98)
        # a Python power raises where numpy's returns inf
        with pytest.raises(OverflowError):
            (p[0] ** beta) ** (1.0 / beta)
        with pytest.warns(RuntimeWarning, match="overflow"):
            cl.alpha_divergence_closed(p, q, 0.98)
        with np.errstate(over="ignore"):
            assert cl.alpha_divergence_closed(p, q, 0.98) == math.inf


class TestKL:
    def test_zero_on_diagonal(self):
        p = [0.5, 1.5, 2.5]
        assert cl.kl_extended(p, p) == 0.0

    def test_worked_value(self):
        # -1 + 2 log 2
        assert cl.kl_extended([2.0, 1.0], [1.0, 1.0]) == pytest.approx(
            -1.0 + 2.0 * np.log(2.0), abs=1e-15
        )

    def test_simplex_reduction(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = rng.uniform(0.1, 1.0, 4)
            q = rng.uniform(0.1, 1.0, 4)
            p, q = p / p.sum(), q / q.sum()
            plain = float(np.sum(p * np.log(p / q)))
            assert cl.kl_extended(p, q) == pytest.approx(plain, abs=1e-13)


class TestTsallis:
    def test_zero_on_diagonal(self):
        p = [1.0, 2.0]
        assert cl.tsallis_q_divergence(p, p, 0.3) == 0.0

    def test_q_range_validated(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                cl.tsallis_q_divergence([1.0], [2.0], bad)

    def test_scaling_identity_exact_on_roundtrip_q(self):
        # q -> alpha = 1 - 2q -> beta reproduces q bitwise for these values,
        # so both paths share the same power sums
        rng = np.random.default_rng(12)
        for _ in range(20):
            p, q = random_pair(rng, 4, 0.1, 2.0)
            for qp in (0.25, 0.3, 0.5, 0.7, 0.75):
                a = 1.0 - 2.0 * qp
                lhs = cl.tsallis_q_divergence(p, q, qp)
                rhs = 0.5 * (1.0 - a) * cl.alpha_divergence_closed(p, q, a)
                assert abs(lhs - rhs) <= 1e-13

    def test_limit_toward_kl(self):
        p, q = [2.0, 1.0], [1.0, 1.0]
        value = cl.tsallis_q_divergence(p, q, 1.0 - 1e-8)
        assert abs(value - cl.kl_extended(p, q)) <= 1e-6


class TestLimitContinuity:
    def test_monotone_approach_with_linear_rate(self):
        p, q = np.array([2.0, 1.0]), np.array([1.0, 1.0])
        errors = [
            abs(cl.canonical_divergence_numeric(p, q, -1.0 + 10.0**-k) - cl.kl_extended(p, q))
            for k in range(2, 7)
        ]
        for tighter, looser in zip(errors[1:], errors):
            assert tighter < looser
        c = errors[0] / 10.0**-2
        for k, err in zip(range(2, 7), errors):
            assert err <= 1.5 * c * 10.0**-k


class TestTransportedInverseExponentialIdentity:
    def test_three_expressions_agree(self):
        # t times the chart image of the velocity equals t times the chart
        # difference of the endpoints, and equals the chart image of the
        # reparametrized geodesic's endpoint velocity
        rng = np.random.default_rng(13)
        for _ in range(10):
            p, q = random_pair(rng, 3, 0.5, 3.0)
            for a in (-0.5, 0.0, 0.5):
                for t in (0.25, 0.5, 0.75):
                    chart_gap = t * (cl.alpha_coordinates(q, a) - cl.alpha_coordinates(p, a))
                    mid = cl.alpha_geodesic(p, q, a, t)
                    image_vel = cl.alpha_pushforward(mid, t * cl.geodesic_velocity(p, q, a, t), a)
                    end_vel = cl.geodesic_velocity(p, mid, a, 1.0)
                    image_end = cl.alpha_pushforward(mid, end_vel, a)
                    assert np.max(np.abs(chart_gap - image_vel)) <= 1e-12
                    assert np.max(np.abs(chart_gap - image_end)) <= 1e-12


# Relative bound against a 50-digit sum, set from the worst case measured on
# the seeded pairs below: 2.6e-14.
TSALLIS_MPMATH_RTOL = 1e-13


class TestTsallisAgainstMpmath:
    @pytest.mark.parametrize("qparam", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_seeded_pairs(self, qparam):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            s = mp.mpf(qparam)
            for seed in range(40):
                p, q = random_pair(np.random.default_rng(seed), 1 + seed % 6)
                expected = sum(
                    s * mp.mpf(a) + (1 - s) * mp.mpf(b) - mp.mpf(a) ** s * mp.mpf(b) ** (1 - s)
                    for a, b in zip(p, q)
                ) / (1 - s)
                value = cl.tsallis_q_divergence(p, q, qparam)
                assert abs((value - expected) / expected) <= TSALLIS_MPMATH_RTOL
