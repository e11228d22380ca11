import json

import numpy as np
import pytest

from effectorder import (
    HermFactor,
    SpinFactor,
    algebra,
    dump_document,
    load_document,
    random_composite_iso,
    random_element,
    sup_norm,
)
from effectorder.cli import main

ALG = algebra(HermFactor(1), HermFactor(2), SpinFactor(3))


@pytest.fixture
def paths(tmp_path):
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(dump_document(ALG))
    iso_path = tmp_path / "iso.json"
    iso_path.write_text(dump_document(random_composite_iso(ALG, ALG, np.random.default_rng(4))))
    x_path = tmp_path / "x.json"
    x_path.write_text(dump_document(random_element(ALG, 11, "effect")))
    return tmp_path, alg_path, iso_path, x_path


class TestVerify:
    def test_passes_and_writes_report(self, paths, capsys):
        tmp, alg_path, _, _ = paths
        out = tmp / "report.json"
        code = main(
            ["verify", "--algebra", str(alg_path), "--seed", "42", "--trials", "20",
             "--tol", "1e-8", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "suite identity" in text and "PASS" in text
        doc = json.loads(out.read_text())
        assert doc["type"] == "report"
        assert all(s["passed"] for s in doc["suites"])

    def test_impossible_tolerance_exits_two(self, paths):
        _, alg_path, _, _ = paths
        code = main(
            ["verify", "--algebra", str(alg_path), "--seed", "1", "--trials", "5",
             "--tol", "1e-30"]
        )
        assert code == 2

    def test_routed_target_algebra(self, paths, tmp_path):
        _, alg_path, _, _ = paths
        permuted = algebra(*reversed(ALG.factors))
        target_path = tmp_path / "target.json"
        target_path.write_text(dump_document(permuted))
        code = main(
            ["verify", "--algebra", str(alg_path), "--target", str(target_path),
             "--seed", "2", "--trials", "8"]
        )
        assert code == 0

    def test_incompatible_target_exits_one(self, paths, tmp_path, capsys):
        _, alg_path, _, _ = paths
        other_path = tmp_path / "other.json"
        other_path.write_text(dump_document(algebra(HermFactor(4))))
        code = main(
            ["verify", "--algebra", str(alg_path), "--target", str(other_path),
             "--seed", "2", "--trials", "8"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_deterministic_output_modulo_elapsed(self, paths, tmp_path):
        _, alg_path, _, _ = paths
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                ["verify", "--algebra", str(alg_path), "--seed", "9", "--trials", "10",
                 "--out", str(out)]
            )
            assert code == 0
            doc = json.loads(out.read_text())
            for suite in doc["suites"]:
                suite["elapsed_seconds"] = 0.0
            outputs.append(json.dumps(doc))
        assert outputs[0] == outputs[1]


class TestApplyInvert:
    def test_roundtrip_recovers_input(self, paths):
        tmp, _, iso_path, x_path = paths
        y_path = tmp / "y.json"
        back_path = tmp / "back.json"
        assert main(["apply", "--iso", str(iso_path), "--in", str(x_path), "--out", str(y_path)]) == 0
        assert main(["invert", "--iso", str(iso_path), "--in", str(y_path), "--out", str(back_path)]) == 0
        x = load_document(x_path.read_text())
        back = load_document(back_path.read_text())
        assert sup_norm(x - back) <= 1e-8

    def test_missing_file_exits_one(self, paths, capsys):
        tmp, _, iso_path, _ = paths
        code = main(["apply", "--iso", str(iso_path), "--in", str(tmp / "nope.json"),
                     "--out", str(tmp / "y.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_wrong_algebra_exits_one(self, paths, capsys):
        tmp, _, iso_path, _ = paths
        other = tmp / "other.json"
        other.write_text(dump_document(random_element(algebra(HermFactor(3)), 0, "effect")))
        code = main(["apply", "--iso", str(iso_path), "--in", str(other), "--out", str(tmp / "y.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_schema_violation_reports_code(self, paths, capsys):
        tmp, _, iso_path, _ = paths
        bad = tmp / "bad.json"
        doc = json.loads((tmp / "iso.json").read_text())
        doc["engaged"][0]["t"] = 2.0
        bad.write_text(json.dumps(doc))
        code = main(["apply", "--iso", str(bad), "--in", str(tmp / "x.json"), "--out", str(tmp / "y.json")])
        assert code == 1
        assert "PHI_PARAM_RANGE" in capsys.readouterr().err

    def test_non_finite_phi_param_reports_code(self, paths, capsys):
        tmp, _, iso_path, x_path = paths
        bad = tmp / "bad.json"
        doc = json.loads(iso_path.read_text())
        doc["scalar_isos"][0] = {"kind": "phi", "t": float("-inf")}
        bad.write_text(json.dumps(doc))
        y_path = tmp / "y.json"
        code = main(["apply", "--iso", str(bad), "--in", str(x_path), "--out", str(y_path)])
        assert code == 1
        assert "error[PHI_PARAM_RANGE]" in capsys.readouterr().err
        assert not y_path.exists()

    def test_malformed_number_reports_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"type": "algebra", "factors": [{"kind": "herm", "n": None}]}))
        code = main(["random", "--algebra", str(bad), "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "error[BAD_SCHEMA]" in capsys.readouterr().err


class TestRecover:
    def test_single_factor_roundtrip(self, tmp_path, capsys):
        falg = algebra(HermFactor(2))
        iso = random_composite_iso(falg, falg, np.random.default_rng(3))
        iso_path = tmp_path / "f.json"
        iso_path.write_text(dump_document(iso))
        out = tmp_path / "recovered.json"
        assert main(["recover", "--iso", str(iso_path), "--out", str(out)]) == 0
        rec = load_document(out.read_text())
        x = random_element(falg, 17, "invertible_effect")
        assert sup_norm(rec.apply(x) - iso.apply(x)) <= 1e-6

    def test_multi_factor_rejected(self, paths, capsys):
        tmp, _, iso_path, _ = paths
        code = main(["recover", "--iso", str(iso_path), "--out", str(tmp / "r.json")])
        assert code == 1
        assert "single engaged factor" in capsys.readouterr().err


class TestRandom:
    def test_deterministic(self, paths):
        tmp, alg_path, _, _ = paths
        a, b = tmp / "a.json", tmp / "b.json"
        for out in (a, b):
            assert main(["random", "--algebra", str(alg_path), "--seed", "5",
                         "--class", "effect", "--out", str(out)]) == 0
        assert a.read_text() == b.read_text()

    def test_bad_class_rejected(self, paths):
        tmp, alg_path, _, _ = paths
        code = main(["random", "--algebra", str(alg_path), "--seed", "5",
                     "--class", "bogus", "--out", str(tmp / "x.json")])
        assert code == 1


class TestDemoCounterexample:
    def test_exact_coordinates_in_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["demo-counterexample", "--n", "20", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        coords = doc["suites"][0]["data"]["coordinates"]
        assert coords == [2.0 ** -(k + 1) for k in range(20)]
        assert "counterexample" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["conjure"]) == 1
        capsys.readouterr()

    def test_unknown_flag(self, paths, capsys):
        _, alg_path, _, _ = paths
        assert main(["verify", "--algebra", str(alg_path), "--frobnicate"]) == 1
        capsys.readouterr()
