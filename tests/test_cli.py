import csv
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from alphadiv import classical, cli, numkit, quantum, suites
from alphadiv.cli import _parse_alphas, load_document, main
from alphadiv.quantum import wyd_components_theta

SRC = Path(__file__).resolve().parent.parent / "src"


def read_rows(path):
    """The rows of a sweep CSV, read through a handle that is closed again."""
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def classical_doc(tmp_path):
    path = tmp_path / "classical.json"
    path.write_text(
        json.dumps({"kind": "classical", "objects": {"p": [1.0, 2.0], "q": [2.0, 1.0]}})
    )
    return str(path)


@pytest.fixture
def quantum_doc(tmp_path):
    path = tmp_path / "quantum.json"
    doc = {
        "kind": "quantum",
        "objects": {
            "rho1": [[[2.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],
            "rho2": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
        },
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestDocumentLoading:
    def test_classical_roundtrip(self, classical_doc):
        kind, objects = load_document(classical_doc)
        assert kind == "classical"
        assert np.array_equal(objects["p"], [1.0, 2.0])

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"kind": "classical", "objects": {"p": [1.0], "p": [2.0]}}')
        with pytest.raises(ValueError, match="duplicate"):
            load_document(str(path))

    def test_nonpositive_measure_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "classical", "objects": {"p": [1.0, -1.0]}}')
        with pytest.raises(ValueError, match="invalid"):
            load_document(str(path))

    def test_non_hermitian_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "kind": "quantum",
            "objects": {"rho": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="invalid"):
            load_document(str(path))

    def test_entries_near_the_float_max_refused_at_load(self, tmp_path, capsys):
        # symmetrizing diag(1e308, 1) stays finite, and its spectrum fails the
        # positivity ratio: a usage error at load, not a NaN later
        path = tmp_path / "huge.json"
        doc = {
            "kind": "quantum",
            "objects": {"h": [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        }
        path.write_text(json.dumps(doc))
        rc = main(["divergence", str(path), "--family", "alpha", "--alpha", "0", "--pairs", "h:h"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: object 'h' is invalid: operator is not")

    @pytest.mark.parametrize(
        "doc, name, shown",
        [
            ({"kind": "classical", "objects": {"p": [1, "2"], "q": [True, 1]}}, "p", "'2'"),
            ({"kind": "classical", "objects": {"q": [True, 1]}}, "q", "True"),
            ({"kind": "classical", "objects": {"p": [1.0, None]}}, "p", "None"),
            ({"kind": "classical", "objects": {"p": {"a": 1.0}}}, "p", "{'a': 1.0}"),
            (
                {
                    "kind": "quantum",
                    "objects": {"rho": [[[2.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], ["2", 0.0]]]},
                },
                "rho",
                "'2'",
            ),
            (
                {
                    "kind": "quantum",
                    "objects": {"rho": [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2, 0]]]},
                },
                "rho",
                "True",
            ),
        ],
        ids=[
            "classical-string", "classical-bool", "classical-null", "classical-object",
            "quantum-string", "quantum-bool",
        ],
    )
    def test_non_numeric_entries_refused(self, tmp_path, capsys, doc, name, shown):
        # numpy's float conversion would read "2" as 2.0 and true as 1.0
        path = tmp_path / "strings.json"
        path.write_text(json.dumps(doc))
        rc = main(["divergence", str(path), "--family", "alpha", "--alpha", "0.3", "--pairs", f"{name}:{name}"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: object {name!r} is invalid: entries must be JSON numbers, got {shown}\n"
        )

    def test_integer_entries_accepted(self, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text('{"kind": "classical", "objects": {"p": [1, 2]}}')
        assert np.array_equal(load_document(str(path))[1]["p"], [1.0, 2.0])

    def test_complex_entries_parsed(self, tmp_path):
        path = tmp_path / "cpx.json"
        doc = {
            "kind": "quantum",
            "objects": {"rho": [[[2.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [2.0, 0.0]]]},
        }
        path.write_text(json.dumps(doc))
        _, objects = load_document(str(path))
        assert objects["rho"].matrix[0, 1] == pytest.approx(-1j)


class TestDivergenceCommand:
    def test_both_methods_agree(self, classical_doc, capsys):
        rc = main(
            ["divergence", classical_doc, "--family", "alpha", "--alpha", "0",
             "--method", "both", "--pairs", "p:q"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        case = report["cases"][0]
        assert case["value"] == pytest.approx(12 - 8 * np.sqrt(2), abs=1e-10)
        assert case["abs_error"] <= 1e-10
        assert report["summary"]["pass"] is True

    def test_identical_pair_is_zero(self, classical_doc, capsys):
        rc = main(
            ["divergence", classical_doc, "--family", "alpha", "--alpha", "0.5",
             "--method", "both", "--pairs", "p:p"]
        )
        assert rc == 0
        case = json.loads(capsys.readouterr().out)["cases"][0]
        assert case["value"] == 0.0
        assert case["abs_error"] == 0.0

    # a and b load as two operators with one matrix: every closed form, and
    # the quadrature, is exactly zero on them
    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "alpha", "--alpha", "0.5", "--method", "both"],
            ["--family", "relative-entropy"],
            ["--family", "tsallis", "--q", "0.4"],
            ["--family", "furuichi", "--q", "0.4"],
        ],
        ids=["alpha-both", "relative-entropy", "tsallis", "furuichi"],
    )
    def test_equal_operators_are_exactly_zero(self, tmp_path, capsys, argv):
        path = tmp_path / "same.json"
        m = [[[2.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]]
        path.write_text(json.dumps({"kind": "quantum", "objects": {"a": m, "b": m}}))
        assert main(["divergence", str(path), "--pairs", "a:b"] + argv) == 0
        [case] = json.loads(capsys.readouterr().out)["cases"]
        assert case["value"] == 0.0
        if "both" in argv:
            assert case["reference"] == 0.0

    def test_quantum_worked_value(self, quantum_doc, capsys):
        rc = main(
            ["divergence", quantum_doc, "--family", "canonical", "--alpha", "0",
             "--method", "both", "--pairs", "rho1:rho2"]
        )
        assert rc == 0
        case = json.loads(capsys.readouterr().out)["cases"][0]
        expected = 14.0 - 2.0 * (np.sqrt(3) + np.sqrt(6) + 1.0 + np.sqrt(2))
        assert case["value"] == pytest.approx(expected, abs=1e-9)
        assert case["rel_error"] <= 1e-9

    def test_default_pairs_are_all_ordered(self, classical_doc, capsys):
        rc = main(["divergence", classical_doc, "--family", "kl"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(tuple(c["pair"]) for c in report["cases"]) == [("p", "q"), ("q", "p")]

    def test_tsallis_requires_q(self, classical_doc, capsys):
        assert main(["divergence", classical_doc, "--family", "tsallis"]) == 2

    def test_q_with_alpha_family_rejected(self, classical_doc):
        assert (
            main(["divergence", classical_doc, "--family", "alpha", "--alpha", "0",
                  "--q", "0.5"])
            == 2
        )

    def test_kl_has_no_quadrature_path(self, classical_doc):
        assert main(["divergence", classical_doc, "--family", "kl", "--method", "quadrature"]) == 2

    def test_unknown_name(self, classical_doc):
        assert (
            main(["divergence", classical_doc, "--family", "kl", "--pairs", "p:nope"]) == 2
        )

    def test_kind_mismatch(self, classical_doc, capsys):
        # the document's own "kind" decides; a --kind flag is refused, not ignored
        assert (
            main(["divergence", classical_doc, "--kind", "quantum", "--family", "kl"]) == 2
        )
        assert "unrecognized arguments: --kind quantum" in capsys.readouterr().err

    def test_invalid_alpha_is_usage_error(self, classical_doc):
        assert (
            main(["divergence", classical_doc, "--family", "alpha", "--alpha", "1.0"]) == 2
        )

    def test_relative_entropy_on_quantum(self, quantum_doc, capsys):
        rc = main(
            ["divergence", quantum_doc, "--family", "relative-entropy", "--pairs", "rho1:rho2"]
        )
        assert rc == 0
        case = json.loads(capsys.readouterr().out)["cases"][0]
        # the extended form on the README pair, 3 ln 3 - 2 ln 2 - 1
        assert abs(case["value"] - (3 * np.log(3) - 2 * np.log(2) - 1)) <= 1e-12

    def test_furuichi_at_q_zero_is_usage_error(self, quantum_doc, capsys):
        # at q = 0 the form is the trace gap Tr rho1 - Tr rho2 alone
        argv = ["divergence", quantum_doc, "--family", "furuichi", "--q", "0", "--pairs", "rho2:rho1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: q must lie strictly inside (0, 1), got 0.0\n"

    @pytest.mark.parametrize(
        "kind, argv",
        [
            ("classical", ["--family", "relative-entropy"]),
            ("classical", ["--family", "furuichi", "--q", "0.5"]),
            ("quantum", ["--family", "kl"]),
        ],
        ids=["classical-relative-entropy", "classical-furuichi", "quantum-kl"],
    )
    def test_family_undefined_on_kind_rejected(self, request, capsys, kind, argv):
        doc = request.getfixturevalue(f"{kind}_doc")
        assert main(["divergence", doc] + argv) == 2
        assert f"is not defined on {kind} documents" in capsys.readouterr().err

    # the last case overflows a Python float power inside the short-vector
    # kernel, which falls back to numpy; the divergence command refuses the inf
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "first, argv, family",
        [
            (1e308, ["--family", "alpha", "--alpha", "-0.5"], "alpha"),
            (1e308, ["--family", "kl"], "kl"),
            (sys.float_info.max, ["--family", "alpha", "--alpha", "0.98"], "alpha"),
        ],
        ids=["alpha", "kl", "alpha-python-power"],
    )
    def test_overflowing_closed_form_is_numerical_error(
        self, tmp_path, capsys, first, argv, family
    ):
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"kind": "classical", "objects": {"p": [first, 1.0], "q": [1.0, 2.0]}})
        )
        rc = main(["divergence", str(path), "--pairs", "p:q"] + argv)
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        assert err == f"numerical error: {family} value is not finite: inf\n"

    def test_exit_code_contract_for_missing_file(self):
        assert main(["divergence", "/nonexistent.json", "--family", "kl"]) == 2


# measures of dimensions 2 and 3: each command that pairs them refuses the
# pair before any kernel runs, where a zip over the entries would stop at the
# shorter one and print a wrong number
@pytest.mark.parametrize(
    "argv",
    [
        ["divergence", "{doc}", "--pairs", "p:q", "--family", "alpha", "--alpha", "0.5"],
        ["divergence", "{doc}", "--pairs", "p:q", "--family", "canonical", "--alpha", "0.5"],
        ["divergence", "{doc}", "--pairs", "p:q", "--family", "kl"],
        ["divergence", "{doc}", "--pairs", "p:q", "--family", "tsallis", "--q", "0.4"],
        ["sweep", "{doc}", "--pair", "p:q", "--alphas=0.5", "--out", "{out}"],
    ],
    ids=["alpha", "canonical", "kl", "tsallis", "sweep"],
)
def test_measures_of_two_dimensions_are_a_usage_error(tmp_path, capsys, argv):
    doc = tmp_path / "mismatch.json"
    doc.write_text(
        json.dumps({"kind": "classical", "objects": {"p": [1.0, 2.0], "q": [2.0, 1.0, 0.5]}})
    )
    out = tmp_path / "sweep.csv"
    assert main([a.format(doc=doc, out=out) for a in argv]) == 2
    assert capsys.readouterr() == ("", "error: measures must share a dimension, got 2 and 3\n")
    assert not out.exists()


MEASURES = {"p": [1.0, 2.0], "q": [2.0, 1.0]}


# each input refusal of the command line: exit 2, one "error: " line naming
# it, nothing on standard output and no --out file
@pytest.mark.parametrize(
    "document, argv, message",
    [
        ("{", ["divergence", "{doc}", "--family", "kl"],
         "invalid JSON in {doc}: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        ([], ["divergence", "{doc}", "--family", "kl"], "document must be a JSON object"),
        ({"kind": "mixed", "objects": MEASURES}, ["divergence", "{doc}", "--family", "kl"],
         "document kind must be 'classical' or 'quantum', got 'mixed'"),
        ({"kind": "classical"}, ["divergence", "{doc}", "--family", "kl"],
         "document must provide a nonempty 'objects' mapping"),
        ({"kind": "classical", "objects": {}}, ["divergence", "{doc}", "--family", "kl"],
         "document must provide a nonempty 'objects' mapping"),
        ({"kind": "quantum", "objects": {"rho": [[[1.0, 0.0], [0.0, 0.0]]]}},
         ["divergence", "{doc}", "--family", "relative-entropy"],
         "object 'rho' is invalid: "
         "a quantum object must be a square matrix of [re, im] entry pairs"),
        ({"kind": "classical", "objects": {"p": [1.0, 2.0]}},
         ["divergence", "{doc}", "--family", "kl"],
         "document holds a single object; give --pairs explicitly"),
        ({"kind": "classical", "objects": MEASURES},
         ["sweep", "{doc}", "--pair", "p:q", "--alphas=0:1", "--out", "{out}"],
         "alpha range must be 'start:stop:step'"),
        ({"kind": "classical", "objects": MEASURES},
         ["sweep", "{doc}", "--pair", "p:q", "--alphas=a:b:c", "--out", "{out}"],
         "malformed alpha range 'a:b:c'"),
        ({"kind": "classical", "objects": MEASURES},
         ["sweep", "{doc}", "--pair", "p:q", "--alphas=0.1,x", "--out", "{out}"],
         "malformed alpha value 'x'"),
        ({"kind": "classical", "objects": MEASURES},
         ["divergence", "{doc}", "--family", "canonical", "--out", "{out}"],
         "--alpha is required for family 'canonical'"),
        ({"kind": "classical", "objects": MEASURES}, ["divergence", "{doc}", "--family", "alpha"],
         "--alpha is required for family 'alpha'"),
        ({"kind": "classical", "objects": MEASURES},
         ["divergence", "{doc}", "--family", "kl", "--alpha", "0.5"],
         "--alpha is not meaningful with family 'kl'"),
        ({"kind": "classical", "objects": MEASURES},
         ["divergence", "{doc}", "--family", "kl", "--tolerance", "abc", "--out", "{out}"],
         "argument --tolerance: invalid float value: 'abc'"),
    ],
    ids=[
        "invalid-json", "not-an-object", "unknown-kind", "no-objects", "empty-objects",
        "not-a-square-matrix", "single-object", "range-of-two", "range-not-numbers",
        "list-not-a-number", "canonical-without-alpha", "alpha-without-alpha", "kl-with-alpha",
        "tolerance-not-a-number",
    ],
)
def test_input_refusal_is_usage_error(tmp_path, capsys, document, argv, message):
    doc, out = tmp_path / "doc.json", tmp_path / "out.txt"
    doc.write_text(document if isinstance(document, str) else json.dumps(document))
    assert main([a.format(doc=doc, out=out) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if message.startswith("argument "):  # argparse prints its usage first
        assert captured.err.splitlines()[-1] == f"alphadiv {argv[0]}: error: {message}"
    else:
        assert captured.err == f"error: {message.format(doc=doc)}\n"
    assert not out.exists()


EVERY_COMMAND = pytest.mark.parametrize(
    "argv",
    [
        ["divergence", "{classical}", "--alpha", "0", "--pairs", "p:q"],
        ["verify", "--suite", "classical", "--trials", "1", "--seed", "7"],
        ["recover", "{classical}", "--alpha", "0", "--point", "p"],
        ["sweep", "{quantum}", "--pair", "rho1:rho2", "--alphas=0.5"],
    ],
    ids=["divergence", "verify", "recover", "sweep"],
)


class TestUnwritableOut:
    @EVERY_COMMAND
    def test_is_usage_error(self, classical_doc, quantum_doc, tmp_path, capsys, argv):
        # a write that fails exits 2 as an unreadable document does, never 1,
        # which is verify's "verification failed"
        out = tmp_path / "missing" / "out.txt"
        argv = [a.format(classical=classical_doc, quantum=quantum_doc) for a in argv]
        rc = main(argv + ["--out", str(out)])
        stdout, err = capsys.readouterr()
        assert rc == 2
        assert stdout == ""
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1
        assert not out.parent.exists()

    @EVERY_COMMAND
    def test_is_refused_before_the_work(
        self, classical_doc, quantum_doc, tmp_path, capsys, monkeypatch, argv
    ):
        # neither the document nor the suites are touched: the refusal comes
        # first, not after the whole computation
        def work(*args):
            raise AssertionError("the work ran before --out was refused")

        monkeypatch.setattr(cli, "load_document", work)
        monkeypatch.setattr(suites, "run_suite", work)
        out = tmp_path / "missing" / "out.txt"
        argv = [a.format(classical=classical_doc, quantum=quantum_doc) for a in argv]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_failed_run_leaves_no_file_and_keeps_an_old_one(self, tmp_path, capsys):
        # the probe creates no file that outlives a run that fails (exit 3),
        # and changes nothing in a file that was there before
        path = tmp_path / "overflow.json"
        objects = {"p": [1.7976931348623157e308, 1.0], "q": [1.0, 2.0]}
        path.write_text(json.dumps({"kind": "classical", "objects": objects}))
        argv = ["divergence", str(path), "--family", "alpha", "--alpha", "0.98", "--out"]
        out = tmp_path / "out.json"
        assert main(argv + [str(out)]) == 3
        assert not out.exists()
        out.write_text("an earlier report\n")
        assert main(argv + [str(out)]) == 3
        assert out.read_text() == "an earlier report\n"
        assert capsys.readouterr().err.count("numerical error: alpha value is not finite") == 2

    @pytest.mark.parametrize("target", ["closed pipe", "/dev/full"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["divergence", "{classical}", "--alpha", "0", "--pairs", "p:q"],
            ["verify", "--suite", "classical", "--trials", "1", "--seed", "7"],
            ["recover", "{classical}", "--alpha", "0", "--point", "p"],
        ],
        ids=["divergence", "verify", "recover"],
    )
    def test_unwritable_standard_output_is_usage_error(self, classical_doc, argv, target):
        # a report printed to a pipe whose reader has gone (EPIPE) or to a
        # full device (ENOSPC): one stderr line and exit 2, not a traceback
        # and exit 1, and nothing more when the interpreter flushes at exit
        if target == "/dev/full":
            if not os.path.exists(target):
                pytest.skip("no /dev/full on this system")
            stdout = os.open(target, os.O_WRONLY)
        else:
            reader, stdout = os.pipe()
            os.close(reader)
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        argv = [a.format(classical=classical_doc) for a in argv]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "alphadiv.cli", *argv],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
                stdout=stdout,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(stdout)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: cannot write standard output: ")
        assert proc.stderr.count("\n") == 1


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = main(
            ["verify", "--suite", "classical", "--trials", "10", "--seed", "7",
             "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["summary"]["pass"] is True
        assert all(c["pass"] for c in report["checks"])

    def test_seed_is_required(self, capsys):
        assert main(["verify", "--suite", "classical"]) == 2

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--suite", "quantum", "--trials", "5", "--seed", "3", "--out", str(a)])
        main(["verify", "--suite", "quantum", "--trials", "5", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_impossible_tolerance_fails_with_exit_one(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(
            ["verify", "--suite", "classical", "--trials", "5", "--seed", "1",
             "--tolerance", "1e-30", "--out", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "worst" in err
        report = json.loads(out.read_text())
        assert report["summary"]["pass"] is False

    def test_zero_tolerance_names_a_failing_check_as_worst(self, tmp_path, capsys):
        # a zero tolerance leaves no error ratio to rank by; the worst case
        # reported must still be a check that failed
        out = tmp_path / "r.json"
        rc = main(
            ["verify", "--suite", "classical", "--trials", "3", "--seed", "1",
             "--tolerance", "0", "--out", str(out)]
        )
        assert rc == 1
        worst = json.loads(out.read_text())["summary"]["worst"]
        assert worst["pass"] is False
        err = capsys.readouterr().err
        assert err == f"verification failed, worst case: {json.dumps(worst)}\n"

    def test_worst_case_ranks_zero_tolerance_failures_first_then_by_error(
        self, tmp_path, capsys, monkeypatch
    ):
        def record(check, error, tolerance):
            return {"check": check, "max_error": error, "tolerance": tolerance,
                    "pass": error <= tolerance, "suite": "recovery"}

        records = [
            record("passes at zero", 0.0, 0.0),
            record("small miss at zero", 3.6e-15, 0.0),
            record("large ratio", 2e-3, 1e-5),
            record("large miss at zero", 1.3e-6, 0.0),
            record("passes", 1e-7, 1e-4),
        ]
        monkeypatch.setattr(suites, "run_suite", lambda *args: records)
        out = tmp_path / "r.json"
        assert main(["verify", "--seed", "1", "--tolerance", "0", "--out", str(out)]) == 1
        assert json.loads(out.read_text())["summary"]["worst"]["check"] == "large miss at zero"
        capsys.readouterr()
        # all passing: the largest ratio is named, the zero-tolerance pass last
        monkeypatch.setattr(suites, "run_suite", lambda *args: [records[0], records[4]])
        assert main(["verify", "--seed", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["summary"]["worst"]["check"] == "passes"

    @pytest.mark.parametrize("position", range(5))
    def test_worst_case_names_a_nan_error_wherever_it_sits(
        self, tmp_path, capsys, monkeypatch, position
    ):
        def record(check, error, tolerance):
            return {"check": check, "max_error": error, "tolerance": tolerance,
                    "pass": error <= tolerance, "suite": "recovery"}

        records = [
            record("passes", 1e-7, 1e-4),
            record("large ratio", 2e-3, 1e-5),
            record("miss at zero", 1.3e-6, 0.0),
            record("infinite", float("inf"), 1e-4),
        ]
        records.insert(position, record("nan", float("nan"), 1e-4))
        monkeypatch.setattr(suites, "run_suite", lambda *args: records)
        out = tmp_path / "r.json"
        assert main(["verify", "--seed", "1", "--out", str(out)]) == 1
        assert json.loads(out.read_text())["summary"]["worst"]["check"] == "nan"
        capsys.readouterr()

    @pytest.mark.parametrize(
        "gap",
        [
            lambda nan: suites.quadrature_gap(
                [(np.ones(2), np.ones(2))], lambda x, y, a: 1.0, nan
            ),
            lambda nan: suites.tsallis_gap(
                [(np.ones(2), np.ones(2))], nan, lambda x, y, a: 1.0, (0.3,)
            ),
        ],
        ids=["quadrature_gap", "tsallis_gap"],
    )
    def test_nan_error_fails_its_check(self, gap):
        worst = gap(lambda *args: float("nan"))
        assert np.isnan(worst)
        assert suites._check("a check", worst, 1e-9)["pass"] is False

    def test_worst_keeps_a_nan_against_later_errors(self):
        assert np.isnan(suites._worst([1.0, float("nan"), 2.0]))
        assert suites._worst([1.0, 3.0, 2.0]) == 3.0
        assert suites._worst([]) == 0.0

    def test_recovery_suite_passes(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "--suite", "recovery", "--seed", "7", "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert len(checks) == 8
        assert all(c["pass"] and c["suite"] == "recovery" for c in checks)

    def test_geodesic_check_fails_on_the_wrong_geodesic(self, tmp_path, monkeypatch):
        # the mixture (alpha = -1) geodesic is straight in another chart only
        geodesic = quantum.alpha_geodesic_q
        monkeypatch.setattr(
            quantum, "alpha_geodesic_q", lambda r1, r2, alpha, t: geodesic(r1, r2, -1.0, t)
        )
        out = tmp_path / "r.json"
        argv = ["verify", "--suite", "quantum", "--trials", "10", "--seed", "7", "--out", str(out)]
        assert main(argv) == 1
        failed = [c["check"] for c in json.loads(out.read_text())["checks"] if not c["pass"]]
        assert failed == ["alpha-geodesic is the straight chart line"]

    @pytest.mark.parametrize("suite", ["classical", "quantum"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, tmp_path, capsys, suite, trials):
        # no trial builds no pair, so every check would pass on nothing
        out = tmp_path / "r.json"
        rc = main(["verify", "--suite", suite, "--trials", trials, "--seed", "7", "--out", str(out)])
        assert rc == 2
        assert f"trials must be at least 1, got {trials}" in capsys.readouterr().err
        assert not out.exists()


class TestRecoverCommand:
    def test_classical_fisher(self, classical_doc, capsys):
        rc = main(["recover", classical_doc, "--alpha", "0", "--point", "p"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        metric = np.array(report["metric"])
        assert np.max(np.abs(metric - np.diag([1.0, 0.5]))) <= 1e-6
        assert report["duality_defect"] <= 1e-4
        assert report["curvature_max"] <= 1e-3
        assert report["summary"]["defect_within"] is True

    def test_builtin_euclidean(self, classical_doc, capsys):
        rc = main(["recover", classical_doc, "--point", "p", "--reference-euclidean"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert np.max(np.abs(np.array(report["metric"]) - np.eye(2))) <= 1e-5
        assert np.max(np.abs(np.array(report["christoffel"]))) <= 1e-5
        assert np.max(np.abs(np.array(report["christoffel_dual"]))) <= 1e-5

    def test_builtin_euclidean_on_an_operator_document(self, quantum_doc, capsys):
        # the half squared distance in the Hermitian-basis coordinates of rho1
        rc = main(["recover", quantum_doc, "--point", "rho1", "--reference-euclidean"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert np.max(np.abs(np.array(report["metric"]) - np.eye(4))) <= 1e-5
        assert np.max(np.abs(np.array(report["christoffel"]))) <= 1e-5
        assert np.max(np.abs(np.array(report["christoffel_dual"]))) <= 1e-5
        assert report["summary"] == {"defect_within": True, "curvature_within": True}

    def test_alpha_required_for_divergence_recovery(self, classical_doc):
        assert main(["recover", classical_doc, "--point", "p"]) == 2

    def test_alpha_refused_with_the_euclidean_reference(self, classical_doc, tmp_path, capsys):
        # the half squared distance has no alpha to take
        out = tmp_path / "r.json"
        argv = ["recover", classical_doc, "--point", "p", "--reference-euclidean"]
        assert main([*argv, "--alpha", "0.7", "--out", str(out)]) == 2
        assert "--alpha is not meaningful with --reference-euclidean" in capsys.readouterr().err
        assert not out.exists()

    def test_skipped_curvature_check_reads_null(self, tmp_path, capsys):
        # five coordinates exceed CURVATURE_MAX_DIM: the check does not run,
        # so its flag is neither a pass nor a fail
        path = tmp_path / "dim5.json"
        path.write_text(
            json.dumps({"kind": "classical", "objects": {"p": [1.5, 0.8, 2.2, 1.1, 0.9]}})
        )
        assert main(["recover", str(path), "--point", "p", "--reference-euclidean"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["curvature_max"] is None
        assert report["summary"] == {"defect_within": True, "curvature_within": None}

    def test_each_point_recovered_once(self, tmp_path, capsys, monkeypatch):
        # recover_structure 3,601 + duality_defect 1,728 + the 361 distinct
        # points of the curvature check's "ppqq" block; a second recovery
        # inside the curvature check would add 3,601
        calls = []
        closed = classical.alpha_divergence_closed

        def counted(x, y, alpha):
            calls.append(alpha)
            return closed(x, y, alpha)

        monkeypatch.setattr(classical, "alpha_divergence_closed", counted)
        path = tmp_path / "dim3.json"
        path.write_text(json.dumps({"kind": "classical", "objects": {"p": [1.5, 0.8, 2.2]}}))
        assert main(["recover", str(path), "--alpha", "0.5", "--point", "p"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"] == {
            "defect_within": True,
            "curvature_within": True,
        }
        assert len(calls) == 3601 + 1728 + 361

    def test_unknown_point(self, classical_doc):
        assert main(["recover", classical_doc, "--alpha", "0", "--point", "zz"]) == 2

    def test_stencil_leaving_the_cone_is_numerical_error(self, tmp_path, capsys):
        # chart stencils around an operator with a near-threshold eigenvalue
        # step outside the cone, which is a numerical-domain failure (exit 3),
        # not a usage error
        path = tmp_path / "tiny.json"
        doc = {
            "kind": "quantum",
            "objects": {"tiny": [[[1e-6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        }
        path.write_text(json.dumps(doc))
        rc = main(["recover", str(path), "--alpha", "0.2", "--point", "tiny"])
        assert rc == 3
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alpha, code, prefix", [("0.2", 3, "numerical error: "), ("1.0", 2, "error: alpha ")]
    )
    def test_classical_stencil_leaving_the_cone_is_numerical_error(
        self, tmp_path, capsys, alpha, code, prefix
    ):
        # the stencil around a near-zero entry steps below zero: a
        # numerical-domain failure as on the quantum path, while an invalid
        # alpha stays a usage error
        path = tmp_path / "edge.json"
        path.write_text(
            json.dumps({"kind": "classical", "objects": {"p": [1e-4, 1.0], "q": [1.0, 2.0]}})
        )
        rc = main(["recover", str(path), "--alpha", alpha, "--point", "p"])
        assert rc == code
        assert capsys.readouterr().err.startswith(prefix)

    def test_quantum_chart_recovery(self, quantum_doc, tmp_path):
        # the README operator document: in the alpha-chart the recovered
        # metric is the WYD metric's components, and the chart is flat
        outs = [tmp_path / "first.json", tmp_path / "rerun.json"]
        for out in outs:
            argv = ["recover", quantum_doc, "--alpha", "0.5", "--point", "rho1", "--out", str(out)]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        report = json.loads(outs[0].read_text())
        assert report["summary"] == {"defect_within": True, "curvature_within": True}
        rho = load_document(quantum_doc)[1]["rho1"]
        expected = wyd_components_theta(rho, 0.5)
        assert np.max(np.abs(np.array(report["metric"]) - expected)) <= 1e-5


class TestToleranceFlag:
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["divergence", "{doc}", "--family", "kl"],
            ["verify", "--suite", "classical", "--trials", "1", "--seed", "7"],
            ["recover", "{doc}", "--alpha", "0", "--point", "p"],
        ],
        ids=["divergence", "verify", "recover"],
    )
    def test_non_finite_or_negative_refused(self, classical_doc, tmp_path, capsys, argv, value):
        out = tmp_path / "r.json"
        argv = [classical_doc if a == "{doc}" else a for a in argv]
        rc = main([*argv, f"--tolerance={value}", "--out", str(out)])
        assert rc == 2
        assert "tolerance must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()


    # a quadrature off its closed form by 5e-9 of the gate error: inside the
    # quantum cone's default of 1e-8, outside the classical cone's 1e-9
    @pytest.mark.parametrize(
        "kind, pair, default, quadrature",
        [
            ("classical", "p:q", 1e-9, (classical, "canonical_divergence_numeric")),
            ("quantum", "rho1:rho2", 1e-8, (quantum, "canonical_divergence_numeric_q")),
        ],
        ids=["classical", "quantum"],
    )
    def test_divergence_defaults_to_the_kind_tolerance(
        self, request, capsys, monkeypatch, kind, pair, default, quadrature
    ):
        module, name = quadrature
        closed = {"classical": classical.alpha_divergence_closed,
                  "quantum": quantum.quantum_alpha_divergence_closed}[kind]

        def off(x, y, alpha, rule):
            reference = closed(x, y, alpha)
            return reference + 5e-9 * (1.0 + abs(reference))

        monkeypatch.setattr(module, name, off)
        argv = ["divergence", request.getfixturevalue(f"{kind}_doc"), "--family", "canonical",
                "--alpha", "0.5", "--method", "both", "--pairs", pair]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["tolerance"] == default == suites.SUITE_TOLERANCES[kind]
        assert summary["pass"] is (kind == "quantum")
        assert main([*argv, "--tolerance", "1e-8"]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["tolerance"] == 1e-8 and summary["pass"] is True


class TestNodeCount:
    def test_default_is_the_library_rule(self, classical_doc, capsys, monkeypatch):
        # without --nodes the CLI integrates with numkit.DEFAULT_RULE, so a
        # change of the library's default reaches the command line
        argv = ["divergence", classical_doc, "--family", "canonical", "--alpha", "0.3"]
        assert main([*argv, "--nodes", "2"]) == 0
        two = capsys.readouterr().out
        monkeypatch.setattr(numkit, "DEFAULT_RULE", numkit.gauss_legendre_rule(2))
        assert main(argv) == 0
        assert capsys.readouterr().out == two

    @pytest.mark.parametrize(
        "flags",
        [["--family", "alpha", "--alpha", "0.5", "--method", "closed"], ["--family", "kl"]],
        ids=["alpha-closed", "kl"],
    )
    def test_nodes_refused_without_quadrature(self, classical_doc, tmp_path, capsys, flags):
        # a closed form integrates nothing, so a node count there is a mistake
        out = tmp_path / "r.json"
        assert main(["divergence", classical_doc, *flags, "--nodes", "7", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--nodes is only meaningful with --method quadrature or both" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["divergence", "--family", "canonical", "--alpha", "0", "--nodes", "100000"],
            ["sweep", "--pair", "p:q", "--alphas=0", "--nodes", "100000"],
        ],
        ids=["divergence", "sweep"],
    )
    def test_node_count_above_the_cap_refused_promptly(self, classical_doc, tmp_path, argv):
        # a child process under a 1 GB address-space limit: an uncapped rule
        # of 100,000 nodes would ask for about 80 GB, or run into the timeout
        def limit_memory():
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            resource.setrlimit(resource.RLIMIT_AS, (2**30, hard))

        out = tmp_path / "out"
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        command, *flags = argv
        proc = subprocess.run(
            [sys.executable, "-m", "alphadiv.cli", command, classical_doc, *flags, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=limit_memory,
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: quadrature order must be at most 1024, got 100000\n"
        assert not out.exists()


class TestSweepCommand:
    def test_csv_columns_and_sorting(self, classical_doc, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", classical_doc, "--pair", "p:q", "--alphas=0.5,-0.5,0", "--out", str(out)]
        )
        assert rc == 0
        rows = read_rows(out)
        assert list(rows[0].keys()) == [
            "alpha", "canonical_numeric", "closed", "kl_reference", "abs_gap_to_limit",
        ]
        alphas = [float(r["alpha"]) for r in rows]
        assert alphas == sorted(alphas)

    def test_gap_shrinks_toward_limit(self, classical_doc, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", classical_doc, "--pair", "p:q", "--alphas=-0.99:-0.5:0.09",
             "--out", str(out)]
        )
        assert rc == 0
        rows = read_rows(out)
        gaps = [float(r["abs_gap_to_limit"]) for r in rows]
        assert gaps[0] < gaps[1]

    def test_numeric_matches_closed_in_rows(self, classical_doc, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", classical_doc, "--pair", "p:q", "--alphas", "0", "--out", str(out)])
        row = read_rows(out)[0]
        assert abs(float(row["canonical_numeric"]) - float(row["closed"])) <= 1e-10

    def test_quantum_reference_column(self, quantum_doc, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", quantum_doc, "--pair", "rho1:rho2", "--alphas=-0.5,0.5", "--out", str(out)]
        )
        assert rc == 0
        rows = read_rows(out)
        assert "relative_entropy_reference" in rows[0]

    def test_empty_alpha_list_is_usage_error(self, classical_doc, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", classical_doc, "--pair", "p:q", "--alphas", "", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_alpha_outside_range_rejected(self, classical_doc, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", classical_doc, "--pair", "p:q", "--alphas", "1.0", "--out", str(out)]
        )
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("alphas", ["0.5,1.0", "0.5:1.0:0.5"], ids=["list", "range"])
    def test_alpha_refused_as_divergence_refuses_it(self, classical_doc, tmp_path, capsys, alphas):
        # one alpha gate: sweep refuses 1.0 with the message of divergence
        divergence = ["divergence", classical_doc, "--family", "alpha", "--alpha", "1.0"]
        assert main([*divergence, "--pairs", "p:q"]) == 2
        expected = capsys.readouterr().err
        assert expected.startswith("error: alpha must lie strictly inside (-1, 1), got 1.0;")
        out = tmp_path / "sweep.csv"
        sweep = ["sweep", classical_doc, "--pair", "p:q", f"--alphas={alphas}", "--out", str(out)]
        assert main(sweep) == 2
        assert capsys.readouterr().err == expected
        assert not out.exists()

    @pytest.mark.parametrize("pair", ["a:", "p:q,q:p", "", "p:zz"])
    def test_malformed_or_unknown_pair_refused(self, classical_doc, tmp_path, capsys, pair):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", classical_doc, "--pair", pair, "--alphas=0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_readme_grid_values(self):
        assert _parse_alphas("-0.99:0.99:0.03") == [(3 * k - 99) / 100 for k in range(67)]

    def test_range_value_near_one_is_not_rounded_onto_it(self, classical_doc, tmp_path, capsys):
        # round(x, 12) would turn -0.9999999999999 into -1.0, which the list
        # form never refuses and the range form must not either
        assert _parse_alphas("-0.9999999999999:0:0.5") == [-0.9999999999999, -0.5, 0.0]
        assert _parse_alphas("-0.9999999999999") == [-0.9999999999999]
        out = tmp_path / "sweep.csv"
        argv = ["sweep", classical_doc, "--pair", "p:q", "--out", str(out)]
        assert main([*argv, "--alphas=-0.9999999999999:0:0.5"]) == 0
        assert [float(r["alpha"]) for r in read_rows(out)] == [-0.9999999999999, -0.5, 0.0]
        assert main([*argv, "--alphas=0.5:1.0000000000001:0.5000000000001"]) == 2
        assert "got 1.0000000000001" in capsys.readouterr().err
        # a typed stop inside (-1, 1) is kept; a stop of 1 that the step's
        # drift reaches as 0.9999999999999999 still rounds onto 1 and is refused
        assert _parse_alphas("0:0.9999999999999:0.3333333333333")[-1] == 0.9999999999999
        with pytest.raises(ValueError, match=r"got 1\.0;"):
            _parse_alphas("0:1:0.1")
        assert main([*argv, "--alphas=0:1:0.1"]) == 2
        assert "got 1.0;" in capsys.readouterr().err
        assert main([*argv, "--alphas=-1:0:0.1"]) == 2
        assert "got -1.0;" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas", ["0:inf:0.5", "-0.5:0.5:1e-300", "-0.5:0.5:nan"])
    def test_unbounded_range_refused_promptly(self, classical_doc, tmp_path, alphas):
        # a child process under a 1 GB address-space limit: a range that never
        # ends fails this test by the timeout instead of hanging the suite
        def limit_memory():
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            resource.setrlimit(resource.RLIMIT_AS, (2**30, hard))

        out = tmp_path / "sweep.csv"
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "alphadiv.cli", "sweep", classical_doc, "--pair", "p:q",
             f"--alphas={alphas}", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=limit_memory,
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: alpha ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, pair", [("classical", "p:q"), ("quantum", "rho1:rho2")], ids=["classical", "quantum"]
    )
    def test_row_equals_divergence_both(self, request, capsys, tmp_path, kind, pair):
        doc = request.getfixturevalue(f"{kind}_doc")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", doc, "--pair", pair, "--alphas=-0.3", "--out", str(out)]) == 0
        row = read_rows(out)[0]
        rc = main(
            ["divergence", doc, "--family", "alpha", "--alpha", "-0.3", "--method", "both",
             "--pairs", pair]
        )
        assert rc == 0
        case = json.loads(capsys.readouterr().out)["cases"][0]
        assert float(row["canonical_numeric"]) == case["value"]
        assert float(row["closed"]) == case["reference"]

    def test_byte_identical_reruns(self, classical_doc, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", classical_doc, "--pair", "p:q", "--alphas=-0.9:0.9:0.3"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
