"""Structural invariants of the package source, checked on its syntax tree.

The benchmark counts eigendecompositions by rebinding ``numpy.linalg.eigh``,
so every decomposition must be that attribute call, made in one of the two
places that decompose: ``numkit.hermitian_eig`` for single matrices and the
block function of the quadrature integrand for the batched geodesic
interpolant.  Operators that skip ``PositiveOperator.__init__`` are built in
one place, the inverse chart, and chart inverses reach it only through the
memo of ``operator_from_chart``.
Each convention shared by several operations, such as the chart exponent
beta = (1 - alpha)/2, is written once, and so is each refusal: the positivity
gate, the range of alpha (in the chart exponent) and of q, the gate error of
the quadrature checks, and the refusal of a stencil point off a contrast's
domain, which no command re-decides.  The quantum relative entropy has no
logarithm of its own: it is the classical KL kernel on the Nussbaum-Szkola
pair.  Nor has Furuichi's form a power sum: it is the q-divergence plus the
trace gap, and the Tsallis scaling of the kernel is written once.  Mixed
partials and gradients share one stencil grid, the one reader of the stencil
table.
Every name a module exports is used by the package itself, except the
reference metric the tests hold others against.  Exact array tests are
``np.count_nonzero`` calls and Frobenius norms ``numkit._frobenius``, the one
``math.sqrt``, never ``ndarray.all``/``any``, ``np.all``/``any`` or
``np.linalg.norm``, whose Python-level dispatch costs microseconds on small
arrays.  The alpha-chart contrast is built in one place,
``quantum.alpha_chart_contrast``, the one caller of the inverse chart's memo.
The adjoint of an eigenbasis is formed once, by ``SpectralDecomposition``,
and every product with it reads the stored one; a chart inverse shares the
chart decomposition's eigenbasis and adjoint.  A product of two matrices is
``ndarray.dot``, which makes the BLAS call ``@`` makes without matmul's
gufunc dispatch (about 0.4 us on a 2 x 2 matrix); ``@`` stays only where it
broadcasts over a stack of matrices.
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "alphadiv"


def sites(match):
    """(module, enclosing qualified name) of every node for which match is true."""
    found = []
    for path in sorted(SRC.glob("*.py")):

        def visit(node, scope):
            if match(node):
                found.append((path.stem, ".".join(scope)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = scope + [node.name]
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text()), [])
    return found


def dotted(node):
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def test_eigh_is_called_only_in_the_two_decomposing_places():
    calls = sites(lambda n: isinstance(n, ast.Call) and dotted(n.func) == "np.linalg.eigh")
    assert sorted(calls) == [
        ("numkit", "hermitian_eig"),
        ("quantum", "_divergence_integrand.block"),
    ]
    # any other spelling (an import, an alias, a bare reference) escapes the counter
    mentions = sites(
        lambda n: (isinstance(n, ast.Attribute) and n.attr == "eigh")
        or (isinstance(n, ast.Name) and n.id == "eigh")
        or (isinstance(n, ast.alias) and n.name.split(".")[-1] == "eigh")
    )
    assert sorted(mentions) == sorted(calls)


def test_stencil_table_is_read_in_one_place():
    # mixed partials and the gradient share one stencil grid and contraction
    reads = sites(
        lambda n: (isinstance(n, ast.Name) and n.id == "_STENCILS" and isinstance(n.ctx, ast.Load))
        or (isinstance(n, ast.Attribute) and n.attr == "_STENCILS")
        or (isinstance(n, ast.alias) and n.name == "_STENCILS")
    )
    assert reads == [("numkit", "_stencil_derivative")]


def test_positive_operator_bypasses_init_only_in_the_inverse_chart():
    def bypass(n):
        return (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "__new__"
            and any(dotted(a) == "PositiveOperator" for a in n.args)
        )

    assert sites(bypass) == [("quantum", "PositiveOperator._from_chart")]


def test_chart_contrast_is_the_one_caller_of_the_inverse_chart_memo():
    # any reference, so that an alias cannot escape the check
    mentions = sites(
        lambda n: (isinstance(n, ast.Name) and n.id == "operator_from_chart")
        or (isinstance(n, ast.Attribute) and n.attr == "operator_from_chart")
    )
    assert mentions == [("quantum", "alpha_chart_contrast.contrast")] * 2


def test_inverse_chart_is_reached_through_the_memo_or_the_geodesic():
    calls = sites(lambda n: isinstance(n, ast.Call) and dotted(n.func) == "PositiveOperator._from_chart")
    assert sorted(calls) == [("quantum", "_chart_operator"), ("quantum", "alpha_geodesic_q")]
    # a bare reference (an alias, a getattr target) would escape the check
    mentions = sites(lambda n: isinstance(n, ast.Attribute) and n.attr == "_from_chart")
    assert sorted(mentions) == sorted(calls)


def test_eigenbasis_adjoint_is_formed_once():
    # any spelling of a conjugate transpose: x.conj().T, np.conj(x).T or
    # x.T.conj().  Besides the stored adjoint, the sites left are the
    # Hermitian part, the Hermiticity defect and the unitary conjugation of
    # random_positive_operator, none of which reads an eigenbasis twice
    def conjugate(n):  # x.conj(), x.conjugate(), np.conj(x) or np.conjugate(x)
        return isinstance(n, ast.Call) and (
            dotted(n.func) in ("np.conj", "np.conjugate")
            or (isinstance(n.func, ast.Attribute) and n.func.attr in ("conj", "conjugate"))
        )

    def transposed(n):
        return isinstance(n, ast.Attribute) and n.attr == "T"

    def adjoint(n):  # a conjugate's .T, or the conjugate of a .T
        return (transposed(n) and conjugate(n.value)) or (
            conjugate(n) and isinstance(n.func, ast.Attribute) and transposed(n.func.value)
        )

    assert sorted(sites(adjoint)) == [
        ("numkit", "SpectralDecomposition.__post_init__"),
        ("numkit", "as_hermitian"),
        ("numkit", "hermitian_part"),
        ("quantum", "random_positive_operator"),
    ]


def test_matmul_only_on_stacks_of_matrices():
    # the batched interpolant of the quadrature integrand and the rotated
    # basis of the metric components; any other product is ndarray.dot
    def matmul(n):
        return isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult)

    assert sorted(sites(matmul)) == [
        *[("quantum", "_divergence_integrand.block")] * 2,
        *[("quantum", "wyd_components_theta")] * 2,
    ]
    # nor any spelling of matmul itself: a method, a numpy function or an import
    named = sites(
        lambda n: (isinstance(n, ast.Attribute) and n.attr == "matmul")
        or (isinstance(n, ast.Name) and n.id == "matmul")
        or (isinstance(n, ast.alias) and n.name.split(".")[-1] == "matmul")
    )
    assert named == []


def test_no_dispatching_array_test_or_norm():
    # any spelling: a method, a numpy function, an import or an alias
    found = sites(
        lambda n: (isinstance(n, ast.Attribute) and n.attr in ("all", "any", "norm"))
        or (isinstance(n, ast.alias) and n.name.split(".")[-1] in ("all", "any", "norm"))
    )
    assert found == []


def test_frobenius_norm_is_written_once():
    # any spelling of a square root from math: an attribute call or an import
    roots = sites(
        lambda n: (isinstance(n, ast.Attribute) and dotted(n) == "math.sqrt")
        or (isinstance(n, ast.alias) and n.name.split(".")[-1] == "sqrt")
    )
    assert roots == [("numkit", "_frobenius")]


def test_chart_exponent_is_written_once():
    def beta(n):  # 0.5 * (1.0 - <anything>)
        return (
            isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Mult)
            and isinstance(n.left, ast.Constant)
            and n.left.value == 0.5
            and isinstance(n.right, ast.BinOp)
            and isinstance(n.right.op, ast.Sub)
            and isinstance(n.right.left, ast.Constant)
            and n.right.left.value == 1.0
        )

    assert sites(beta) == [("numkit", "chart_exponent")]


def test_entropy_limit_check_is_built_once():
    named = sites(lambda n: isinstance(n, ast.Constant) and n.value == "limit approach is monotone")
    assert named == [("suites", "_limit_check")]


def test_positivity_threshold_is_read_only_by_the_gate():
    reads = sites(
        lambda n: (isinstance(n, ast.Name) and n.id == "POSITIVITY_RTOL" and isinstance(n.ctx, ast.Load))
        or (isinstance(n, ast.Attribute) and n.attr == "POSITIVITY_RTOL")
        or (isinstance(n, ast.alias) and n.name == "POSITIVITY_RTOL")
    )
    assert reads == [("numkit", "require_positive")]


def refusals(prefix):
    """Where a string literal (or an f-string's literal part) begins with prefix."""
    return sites(
        lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.startswith(prefix)
    )


def test_alpha_range_is_refused_only_by_the_chart_exponent():
    # both messages, the divergence and the geodesic range, in the one gate
    assert refusals("alpha must lie") == [("numkit", "chart_exponent")] * 2


def test_q_range_is_refused_only_by_its_gate():
    assert refusals("q must lie") == [("numkit", "check_q")]


def test_quantum_relative_entropy_is_reached_only_through_the_kl_kernel():
    # no logarithm of its own in the quantum module: the one relative entropy
    # is the classical kernel on the Nussbaum-Szkola pair
    logs = sites(lambda n: isinstance(n, ast.Call) and dotted(n.func) in ("np.log", "math.log"))
    assert not [site for site in logs if site[0] == "quantum"]
    kernel = sites(lambda n: isinstance(n, ast.Call) and dotted(n.func) == "_kl_sum")
    assert [site for site in kernel if site[0] == "quantum"] == [("quantum", "quantum_relative_entropy")]


def test_every_power_sum_is_the_one_kernel():
    # the quantum module reaches the power-sum kernel only from the alpha
    # closed form; Furuichi's form is the q-divergence plus the trace gap,
    # with no power or sum of its own; and the Tsallis scaling q/(1-q) of the
    # kernel, with its q gate, is written once, for both cones
    kernel = sites(
        lambda n: (isinstance(n, ast.Name) and n.id == "_bregman_power_sum")
        or (isinstance(n, ast.Attribute) and n.attr == "_bregman_power_sum")
    )
    assert [site for site in kernel if site[0] == "quantum"] == [
        ("quantum", "quantum_alpha_divergence_closed")
    ]
    own = sites(
        lambda n: (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow))
        or (isinstance(n, ast.Attribute) and n.attr in ("sum", "fsum", "power"))
        or (isinstance(n, ast.Name) and n.id == "sum")
    )
    assert not [site for site in own if site[1].startswith("furuichi_q_divergence")]

    def scaled_kernel(n):  # <anything> * _bregman_power_sum(...), either order
        return (
            isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Mult)
            and any(
                isinstance(side, ast.Call) and dotted(side.func) == "_bregman_power_sum"
                for side in (n.left, n.right)
            )
        )

    assert sites(scaled_kernel) == [("classical", "_tsallis_sum")]
    gates = sites(lambda n: isinstance(n, ast.Call) and dotted(n.func) == "check_q")
    assert gates == [("classical", "_tsallis_sum")]


def test_gate_error_normalization_is_written_once():
    def one_plus_abs(n):  # 1 + abs(<anything>)
        return (
            isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Add)
            and isinstance(n.left, ast.Constant)
            and n.left.value == 1
            and isinstance(n.right, ast.Call)
            and dotted(n.right.func) == "abs"
        )

    assert sites(one_plus_abs) == [("suites", "gate_error")]


def test_cli_catches_value_errors_only_to_map_input_errors():
    # main maps ValueError to exit 2, and the document loader and the two text
    # parsers re-raise it as an input error; a contrast's refusal at a stencil
    # point is decided in numkit.mixed_partials
    def catches_value_error(n):
        if not isinstance(n, ast.ExceptHandler) or n.type is None:
            return False
        names = n.type.elts if isinstance(n.type, ast.Tuple) else [n.type]
        return any(dotted(t) == "ValueError" for t in names)

    handlers = sorted({scope for module, scope in sites(catches_value_error) if module == "cli"})
    assert handlers == ["_parse_alphas", "_tolerance", "load_document", "main"]


# the reference metric in the chart, against which the tests hold the
# recovered metric and the WYD pairing
UNUSED_EXPORTS = {"alphadiv.quantum.wyd_components_theta"}


def test_every_exported_name_is_used_by_the_package():
    # a top-level definition is used when module-level code names it, or a
    # used definition other than itself does: a name that only test-facing
    # helpers reach is not used
    users = {}  # name -> the top-level definitions (None: module level) naming it
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    users.setdefault(name, set()).add(owner)
    used, grown = set(), {None}
    while grown != used:
        used = grown
        grown = used | {name for name, owners in users.items() if owners & used}
    modules = ["alphadiv"] + [f"alphadiv.{p.stem}" for p in SRC.glob("[!_]*.py")]
    exported = {f"{m}.{name}" for m in modules for name in importlib.import_module(m).__all__}
    unused = sorted(e for e in exported - UNUSED_EXPORTS if e.rsplit(".", 1)[1] not in used)
    assert not unused, f"exported but not used by the package: {unused}"
