"""Every input refusal of the library, held to its exact message.

Each case is a public call whose input the library refuses with a
ValueError before any computation; the command-line refusals are held in
test_cli.py.
"""

import numpy as np
import pytest

from alphadiv import classical, numkit, quantum, suites


CFG = numkit.FDConfig()


def constant(x, y):
    return 0.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: quantum.quantum_alpha_divergence_closed(np.eye(2), np.eye(3), 0.5),
         "operators must share a dimension, got 2 and 3"),
        (lambda: quantum.alpha_representation(np.eye(2), np.eye(3), 0.5),
         "tangent vector must match the base operator's shape"),
        (lambda: quantum.hermitian_basis(0), "dimension must be a positive integer, got 0"),
        (lambda: quantum.hermitian_basis(2.0), "dimension must be a positive integer, got 2.0"),
        (lambda: quantum.hermitian_basis(True), "dimension must be a positive integer, got True"),
        (lambda: suites.run_suite("nope", 1, 0), "unknown suite 'nope'"),
        (lambda: numkit.quadrature_sum(numkit.gauss_legendre_rule(2), [1.0]),
         "one integrand value per node is required"),
        (lambda: numkit.QuadratureRule([0.5], [0.5, 0.5]),
         "nodes and weights must be equal-length 1-D vectors"),
        (lambda: numkit.SpectralDecomposition([1.0, 2.0], np.ones((2, 3))),
         "eigenvector matrix must be square and match eigenvalues"),
        (lambda: classical.alpha_christoffel([1.0, 2.0], float("nan")), "alpha must be finite"),
        (lambda: numkit.mixed_partials(constant, np.ones((1, 2)), np.ones(2), "pq", CFG),
         "coordinate blocks must be 1-D vectors"),
        (lambda: numkit.mixed_partials(constant, np.ones(2), np.ones((2, 1)), "p", CFG),
         "coordinate blocks must be 1-D vectors"),
        (lambda: numkit.stencil_gradient(np.sum, np.ones((2, 2)), CFG),
         "coordinate blocks must be 1-D vectors"),
        (lambda: numkit.mixed_partials(constant, np.ones(2), np.ones(2), "qppq", CFG),
         "pattern must keep each block's derivatives adjacent, got 'qppq'"),
    ],
    ids=[
        "operators-of-two-dimensions", "tangent-of-another-shape", "basis-of-dimension-0",
        "basis-of-dimension-2.0", "basis-of-dimension-True", "unknown-suite",
        "one-value-short", "unequal-nodes-and-weights", "non-square-eigenvectors",
        "christoffel-at-nan", "mixed-partials-2d-p", "mixed-partials-2d-q",
        "gradient-2d-point", "interleaved-qppq",
    ],
)
def test_refusal_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
