"""Command-line front end.

Subcommands:

    divergence   compute divergences between named objects from a JSON file
    verify       run the seeded invariant suites
    recover      recover the metric and connections from a divergence
    sweep        tabulate divergences over a grid of alpha values as CSV

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 numerical-domain error.

Input documents are JSON::

    {"kind": "classical", "objects": {"p": [1.0, 2.0], "q": [2.0, 1.0]}}
    {"kind": "quantum",
     "objects": {"rho": [[[2.0, 0.0], [1.0, 0.0]],
                         [[1.0, 0.0], [2.0, 0.0]]]}}

Quantum matrix entries are [re, im] pairs, row-major; matrices are
symmetrized on load and must be Hermitian and positive definite.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import classical, numkit, quantum, recovery, suites
from .numkit import NumericalDomainError, gauss_legendre_rule

__all__ = ["load_document", "main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

FAMILIES = ("canonical", "alpha", "kl", "tsallis", "relative-entropy", "furuichi")

# Most values an alpha range may expand to, whatever its stop and step.
MAX_ALPHA_VALUES = 10_000

# what json.load makes of a JSON number
_NUMBER_TYPES = frozenset((int, float))


class InputError(ValueError):
    """Malformed document, unknown name, or inconsistent flags."""


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise InputError(f"duplicate object name {key!r} in document")
        seen[key] = value
    return seen


def load_document(path, expected_kind=None):
    """Load and validate an input document; returns (kind, {name: object}).

    A given ``expected_kind`` (the ``--kind`` flag) must match the document's.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_reject_duplicate_keys)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("classical", "quantum"):
        raise InputError(f"document kind must be 'classical' or 'quantum', got {kind!r}")
    if expected_kind and expected_kind != kind:
        raise InputError(f"--kind {expected_kind} does not match document kind {kind!r}")
    objects = doc.get("objects")
    if not isinstance(objects, dict) or not objects:
        raise InputError("document must provide a nonempty 'objects' mapping")
    loaded = {}
    for name, raw in objects.items():
        try:
            _require_numbers(raw)
            if kind == "classical":
                loaded[name] = classical.as_measure(raw)
            else:
                loaded[name] = quantum.PositiveOperator(_complex_matrix(raw))
        except (ValueError, ArithmeticError) as exc:
            raise InputError(f"object {name!r} is invalid: {exc}") from exc
    return kind, loaded


def _require_numbers(raw):
    """Refuse any entry of a (nested) JSON array that is not a JSON number.

    numpy's float conversion would read "2" as 2.0 and true as 1.0.  A list
    of numbers passes in one C-level pass; any other list is walked.
    """
    pending = [raw]
    while pending:
        item = pending.pop()
        if type(item) is not list:
            if type(item) not in _NUMBER_TYPES:  # bool is not a JSON number
                raise ValueError(f"entries must be JSON numbers, got {item!r}")
        elif not _NUMBER_TYPES.issuperset(map(type, item)):
            pending.extend(reversed(item))  # first bad entry in document order


def _complex_matrix(raw):
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(
            "a quantum object must be a square matrix of [re, im] entry pairs"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _parse_pairs(text, names):
    if text:
        pairs = []
        for chunk in text.split(","):
            parts = chunk.split(":")
            if len(parts) != 2 or not all(parts):
                raise InputError(f"malformed pair {chunk!r}; expected 'name1:name2'")
            pairs.append(tuple(parts))
    else:
        pairs = [(a, b) for a in names for b in names if a != b]
        if not pairs:
            raise InputError("document holds a single object; give --pairs explicitly")
    for a, b in pairs:
        for name in (a, b):
            if name not in names:
                raise InputError(f"unknown object name {name!r}")
    return pairs


def _parse_alphas(text):
    values = []
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError("alpha range must be 'start:stop:step'")
        try:
            start, stop, step = (float(x) for x in parts)
        except ValueError as exc:
            raise InputError(f"malformed alpha range {text!r}") from exc
        if not step > 0:  # NaN too
            raise InputError("alpha range step must be positive")
        x = start
        while x <= stop + 1e-12:
            values.append(round(x, 12))
            if not -1.0 < values[-1] < 1.0:
                break  # refused below
            if len(values) > MAX_ALPHA_VALUES:
                raise InputError(f"alpha range {text!r} holds more than {MAX_ALPHA_VALUES} values")
            x += step
    else:
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                values.append(float(chunk))
            except ValueError as exc:
                raise InputError(f"malformed alpha value {chunk!r}") from exc
    if not values:
        raise InputError("empty alpha list")
    for a in values:
        if not (-1.0 < a < 1.0):
            raise InputError(f"alpha values must lie inside (-1, 1), got {a}")
    return sorted(values)


# (document kind, family) -> value(x, y, alpha, q, rule); "quadrature" is the
# geodesic integral, "alpha" also the closed form of the canonical family.
# Entries look their function up in the module at call time, so a wrapper
# bound to the module attribute (a profiler's, say) sees the call.
_EVALUATORS = {
    ("classical", "quadrature"): (
        lambda x, y, a, q, rule: classical.canonical_divergence_numeric(x, y, a, rule)
    ),
    ("classical", "alpha"): lambda x, y, a, q, rule: classical.alpha_divergence_closed(x, y, a),
    ("classical", "kl"): lambda x, y, a, q, rule: classical.kl_extended(x, y),
    ("classical", "tsallis"): lambda x, y, a, q, rule: classical.tsallis_q_divergence(x, y, q),
    ("quantum", "quadrature"): (
        lambda x, y, a, q, rule: quantum.canonical_divergence_numeric_q(x, y, a, rule)
    ),
    ("quantum", "alpha"): lambda x, y, a, q, rule: quantum.quantum_alpha_divergence_closed(x, y, a),
    ("quantum", "relative-entropy"): (
        lambda x, y, a, q, rule: quantum.quantum_relative_entropy(x, y, extended=True)
    ),
    ("quantum", "tsallis"): lambda x, y, a, q, rule: quantum.quantum_q_divergence(x, y, q),
    ("quantum", "furuichi"): lambda x, y, a, q, rule: quantum.furuichi_q_divergence(x, y, q),
}

# the alpha -> -1 limit that sweep tabulates beside the alpha-divergences
_SWEEP_LIMITS = {
    "classical": ("kl", "kl_reference"),
    "quantum": ("relative-entropy", "relative_entropy_reference"),
}


def _evaluate(kind, family, x, y, alpha, qparam, rule):
    """One table entry's value; a non-finite value is a numerical-domain error."""
    entry = _EVALUATORS.get((kind, family))
    if entry is None:
        raise InputError(f"family {family!r} is not defined on {kind} documents")
    value = entry(x, y, alpha, qparam, rule)
    if not np.isfinite(value):
        raise NumericalDomainError(f"{family} value is not finite: {value}")
    return value


def _check_family_flags(args, method):
    needs_alpha = args.family in ("canonical", "alpha")
    needs_q = args.family in ("tsallis", "furuichi")
    if needs_alpha and args.alpha is None:
        raise InputError(f"--alpha is required for family {args.family!r}")
    if needs_q and args.q is None:
        raise InputError(f"--q is required for family {args.family!r}")
    if not needs_q and args.q is not None:
        raise InputError("--q is only meaningful with the tsallis/furuichi families")
    if not needs_alpha and args.alpha is not None:
        raise InputError(f"--alpha is not meaningful with family {args.family!r}")
    if not needs_alpha and method != "closed":
        raise InputError(
            f"family {args.family!r} has no quadrature path; use --method closed"
        )


def cmd_divergence(args):
    kind, objects = load_document(args.input, args.kind)
    default_method = "quadrature" if args.family == "canonical" else "closed"
    method = args.method or default_method
    _check_family_flags(args, method)
    pairs = _parse_pairs(args.pairs, list(objects))
    rule = numkit.DEFAULT_RULE if args.nodes is None else gauss_legendre_rule(args.nodes)
    closed = "alpha" if args.family == "canonical" else args.family
    cases = []
    for a, b in pairs:
        x, y = objects[a], objects[b]
        first = closed if method == "closed" else "quadrature"
        value = _evaluate(kind, first, x, y, args.alpha, args.q, rule)
        reference = abs_err = rel_err = None
        if method == "both":
            reference = _evaluate(kind, closed, x, y, args.alpha, args.q, rule)
            abs_err = abs(value - reference)
            rel_err = suites.gate_error(value, reference)
        cases.append(
            {
                "pair": [a, b],
                "family": args.family,
                "method": method,
                "value": value,
                "alpha": args.alpha,
                "q": args.q,
                "reference": reference,
                "abs_error": abs_err,
                "rel_error": rel_err,
            }
        )
    # cases without a reference value contribute nothing to the gate
    errors = [c["rel_error"] for c in cases if c["rel_error"] is not None]
    max_error = max(errors) if errors else 0.0
    summary = {
        "max_error": max_error,
        "tolerance": args.tolerance,
        "pass": max_error <= args.tolerance,
    }
    _emit({"cases": cases, "summary": summary}, args.out)
    return EXIT_OK


def _severity(r):
    """A NaN max_error first, then max_error / tolerance, then max_error; a
    failure at zero tolerance ranks above every finite ratio."""
    error = r["max_error"]
    if math.isnan(error):
        return True, 0.0, 0.0
    if r["tolerance"]:
        return False, error / r["tolerance"], error
    return False, (0.0 if r["pass"] else float("inf")), error


def cmd_verify(args):
    records = suites.run_suite(args.suite, args.trials, args.seed, args.tolerance)
    failed = [r for r in records if not r["pass"]]
    worst = max(failed or records, key=_severity)
    report = {
        "suite": args.suite,
        "seed": args.seed,
        "trials": args.trials,
        "checks": records,
        "summary": {"pass": not failed, "worst": worst},
    }
    _emit(report, args.out)
    if failed:
        print(f"verification failed, worst case: {json.dumps(worst)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_recover(args):
    kind, objects = load_document(args.input, args.kind)
    if args.point not in objects:
        raise InputError(f"unknown object name {args.point!r}")
    cfg = dataclasses.replace(recovery.DEFAULT_CFG, step=args.step)
    alpha = args.alpha
    if args.reference_euclidean and alpha is not None:
        raise InputError("--alpha is not meaningful with --reference-euclidean")
    if alpha is None and not args.reference_euclidean:
        raise InputError("--alpha is required to recover from the alpha-divergence")

    if args.reference_euclidean:
        divergence = recovery.half_squared_distance
        if kind == "classical":
            point = objects[args.point]
        else:
            basis = quantum.hermitian_basis(objects[args.point].dim)
            point = quantum.theta_coordinates(objects[args.point].matrix, basis)
    elif kind == "classical":
        point = objects[args.point]

        def divergence(x, y):
            return classical.alpha_divergence_closed(x, y, alpha)

    else:
        rho = objects[args.point]
        basis = quantum.hermitian_basis(rho.dim)
        point = quantum.theta_coordinates(quantum.alpha_embedding(rho, alpha), basis)

        def divergence(x, y):
            r1 = quantum.operator_from_chart(x, basis, alpha)
            r2 = quantum.operator_from_chart(y, basis, alpha)
            return quantum.quantum_alpha_divergence_closed(r1, r2, alpha)

    structure = recovery.recover_structure(divergence, point, cfg)
    defect = recovery.duality_defect(structure, divergence, cfg)
    curvature = within = None  # null: the check did not run
    if point.size <= recovery.CURVATURE_MAX_DIM:
        curvature = recovery.curvature_max(divergence, structure)
        within = curvature <= recovery.FLATNESS_BOUND
    report = {
        "kind": kind,
        "point": args.point,
        "alpha": args.alpha,
        "step": args.step,
        "metric": structure.metric.tolist(),
        "christoffel": structure.christoffel.tolist(),
        "christoffel_dual": structure.christoffel_dual.tolist(),
        "duality_defect": defect,
        "curvature_max": curvature,
        "summary": {
            "defect_within": defect <= args.tolerance,
            "curvature_within": within,
        },
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_sweep(args):
    kind, objects = load_document(args.input, args.kind)
    if not args.pair or "," in args.pair:
        raise InputError(f"malformed --pair {args.pair!r}; expected 'name1:name2'")
    ((first, second),) = _parse_pairs(args.pair, objects)
    alphas = _parse_alphas(args.alphas)
    rule = numkit.DEFAULT_RULE if args.nodes is None else gauss_legendre_rule(args.nodes)
    x, y = objects[first], objects[second]

    limit_family, ref_column = _SWEEP_LIMITS[kind]
    limit = _evaluate(kind, limit_family, x, y, None, None, rule)
    lines = [f"alpha,canonical_numeric,closed,{ref_column},abs_gap_to_limit"]
    for a in alphas:
        numeric = _evaluate(kind, "quadrature", x, y, a, None, rule)
        closed = _evaluate(kind, "alpha", x, y, a, None, rule)
        gap = abs(closed - limit)
        lines.append(f"{a!r},{numeric!r},{closed!r},{limit!r},{gap!r}")
    text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return EXIT_OK


def _emit(payload, out):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _tolerance(text):
    """argparse type of ``--tolerance``: a finite, nonnegative float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and nonnegative, got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="alphadiv",
        description="Alpha-divergences on positive measures and positive operators, "
        "by closed form or geodesic quadrature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_div = sub.add_parser("divergence", help="compute divergences between named objects")
    p_div.add_argument("input", help="JSON input document")
    p_div.add_argument("--kind", choices=("classical", "quantum"))
    p_div.add_argument("--family", choices=FAMILIES, default="alpha")
    p_div.add_argument("--alpha", type=float)
    p_div.add_argument("--q", type=float)
    p_div.add_argument("--method", choices=("closed", "quadrature", "both"))
    p_div.add_argument("--nodes", type=int)
    p_div.add_argument("--pairs", help="comma-separated name1:name2 pairs (default: all)")
    p_div.add_argument("--tolerance", type=_tolerance, default=1e-8)
    p_div.add_argument("--out", help="write the JSON report here instead of stdout")
    p_div.set_defaults(func=cmd_divergence)

    p_ver = sub.add_parser("verify", help="run the seeded invariant suites")
    p_ver.add_argument("--suite", choices=(*suites.SUITE_TOLERANCES, "all"), default="all")
    p_ver.add_argument(
        "--trials",
        type=int,
        default=100,
        help="seeded draws of the classical and quantum suites (default 100); the recovery "
        "suite always recovers at its ten seeded points and does not read it",
    )
    p_ver.add_argument("--seed", type=int, required=True)
    p_ver.add_argument(
        "--tolerance",
        type=_tolerance,
        default=None,
        help="override the per-suite default tolerance ("
        + ", ".join(f"{name} {tol:g}" for name, tol in suites.SUITE_TOLERANCES.items())
        + ")",
    )
    p_ver.add_argument("--out", help="write the JSON report here instead of stdout")
    p_ver.set_defaults(func=cmd_verify)

    p_rec = sub.add_parser("recover", help="recover metric and connections at a point")
    p_rec.add_argument("input", help="JSON input document")
    p_rec.add_argument("--kind", choices=("classical", "quantum"))
    p_rec.add_argument("--alpha", type=float)
    p_rec.add_argument("--point", required=True, help="name of the base point object")
    p_rec.add_argument("--step", type=float, default=recovery.DEFAULT_CFG.step)
    p_rec.add_argument("--tolerance", type=_tolerance, default=suites.SUITE_TOLERANCES["recovery"])
    p_rec.add_argument(
        "--reference-euclidean",
        action="store_true",
        help="recover from the built-in half squared distance instead",
    )
    p_rec.add_argument("--out", help="write the JSON report here instead of stdout")
    p_rec.set_defaults(func=cmd_recover)

    p_swp = sub.add_parser("sweep", help="tabulate divergences over alpha values")
    p_swp.add_argument("input", help="JSON input document")
    p_swp.add_argument("--kind", choices=("classical", "quantum"))
    p_swp.add_argument("--pair", required=True, help="name1:name2")
    p_swp.add_argument("--alphas", required=True, help="'start:stop:step' or 'a,b,c'")
    p_swp.add_argument("--nodes", type=int)
    p_swp.add_argument("--out", required=True, help="CSV output path")
    p_swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # Every non-finite result is refused with EXIT_NUMERICAL, so numpy's
        # floating-point warnings would only repeat that on stderr.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalDomainError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
