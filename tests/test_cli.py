import csv
import json

import numpy as np
import pytest

from alphadiv.cli import load_document, main


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

    def test_kind_mismatch(self, classical_doc):
        assert (
            main(["divergence", classical_doc, "--kind", "quantum", "--family", "kl"]) == 2
        )

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
        assert case["value"] > 0.0

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [["--family", "alpha", "--alpha", "-0.5"], ["--family", "kl"]],
        ids=["alpha", "kl"],
    )
    def test_overflowing_closed_form_is_numerical_error(self, tmp_path, capsys, argv):
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"kind": "classical", "objects": {"p": [1e308, 1.0], "q": [1.0, 2.0]}})
        )
        rc = main(["divergence", str(path), "--pairs", "p:q"] + argv)
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        assert "not finite" in err

    def test_exit_code_contract_for_missing_file(self):
        assert main(["divergence", "/nonexistent.json", "--family", "kl"]) == 2


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

    def test_alpha_required_for_divergence_recovery(self, classical_doc):
        assert main(["recover", classical_doc, "--point", "p"]) == 2

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


class TestSweepCommand:
    def test_csv_columns_and_sorting(self, classical_doc, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", classical_doc, "--pair", "p:q", "--alphas=0.5,-0.5,0", "--out", str(out)]
        )
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
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
        rows = list(csv.DictReader(out.open()))
        gaps = [float(r["abs_gap_to_limit"]) for r in rows]
        assert gaps[0] < gaps[1]

    def test_numeric_matches_closed_in_rows(self, classical_doc, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", classical_doc, "--pair", "p:q", "--alphas", "0", "--out", str(out)])
        row = next(csv.DictReader(out.open()))
        assert abs(float(row["canonical_numeric"]) - float(row["closed"])) <= 1e-10

    def test_quantum_reference_column(self, quantum_doc, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", quantum_doc, "--pair", "rho1:rho2", "--alphas=-0.5,0.5", "--out", str(out)]
        )
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
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

    @pytest.mark.parametrize(
        "kind, pair", [("classical", "p:q"), ("quantum", "rho1:rho2")], ids=["classical", "quantum"]
    )
    def test_row_equals_divergence_both(self, request, capsys, tmp_path, kind, pair):
        doc = request.getfixturevalue(f"{kind}_doc")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", doc, "--pair", pair, "--alphas=-0.3", "--out", str(out)]) == 0
        row = next(csv.DictReader(out.open()))
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
