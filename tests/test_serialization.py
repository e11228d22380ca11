import json

import numpy as np
import pytest

from effectorder import (
    HermFactor,
    Ring,
    SpinFactor,
    algebra,
    dump_document,
    load_document,
    random_composite_iso,
    random_element,
    run_identity_suite,
    sup_norm,
    unit,
)
from effectorder.serialization import (
    BAD_KNOTS,
    BAD_SCHEMA,
    NON_HERMITIAN,
    NOT_BIJECTION,
    NOT_ISOMETRY,
    PHI_PARAM_RANGE,
    SHAPE_MISMATCH,
    SchemaError,
    report_from_obj,
    report_to_obj,
)

MIXED = algebra(HermFactor(1), HermFactor(2, Ring.COMPLEX), SpinFactor(3), HermFactor(2, Ring.QUATERNION))


class TestRoundTrips:
    def test_algebra_byte_stable(self):
        text = dump_document(MIXED)
        again = dump_document(load_document(text))
        assert text == again

    def test_unit_element_byte_stable(self):
        text = dump_document(unit(algebra(HermFactor(2))))
        assert dump_document(load_document(text)) == text

    def test_random_elements_roundtrip(self):
        for seed in range(5):
            x = random_element(MIXED, seed, "general")
            y = load_document(dump_document(x))
            assert x.algebra == y.algebra
            assert sup_norm(x - y) <= 1e-15
            assert dump_document(x) == dump_document(y)

    def test_iso_roundtrip_preserves_action(self):
        rng = np.random.default_rng(8)
        src = algebra(HermFactor(1), HermFactor(2), SpinFactor(3))
        iso = random_composite_iso(src, src, rng)
        text = dump_document(iso)
        iso2 = load_document(text)
        assert dump_document(iso2) == text
        x = random_element(src, 3, "effect")
        assert sup_norm(iso.apply(x) - iso2.apply(x)) <= 1e-12

    def test_report_roundtrip(self):
        report = run_identity_suite(algebra(HermFactor(2)), seed=0, trials=3)
        text = dump_document(report_to_obj([report]))
        loaded = report_from_obj(json.loads(text))
        assert loaded[0].suite == report.suite
        assert loaded[0].worst_residual == report.worst_residual
        assert loaded[0].checks[0].name == report.checks[0].name


class TestValidationErrors:
    def element_doc(self, blocks):
        return json.dumps(
            {
                "type": "element",
                "algebra": {"type": "algebra", "factors": [{"kind": "herm", "n": 2, "ring": "R"}]},
                "blocks": blocks,
            }
        )

    def iso_doc(self, t=0.5, u=None):
        if u is None:
            u = [[1.0, 0.0], [0.0, 1.0]]
        return json.dumps(
            {
                "type": "iso",
                "source": {"factors": [{"kind": "herm", "n": 2, "ring": "R"}]},
                "target": {"factors": [{"kind": "herm", "n": 2, "ring": "R"}]},
                "sigma": [],
                "scalar_isos": [],
                "engaged": [
                    {
                        "match": [0, 0],
                        "t": t,
                        "z": [[1.0, 0.0], [0.0, 1.0]],
                        "J": {"u": u, "tau": "id"},
                    }
                ],
            }
        )

    @pytest.mark.parametrize(
        "doc",
        [
            {"type": "algebra", "factors": [{"kind": "herm", "n": None}]},
            {"type": "algebra", "factors": [{"kind": "spin", "d": [3]}]},
            {"sigma": [[None, 0]]},
            {"sigma": [[0, 0]], "scalar_isos": [{"kind": "phi", "t": None}]},
            {
                "type": "element",
                "algebra": {"factors": [{"kind": "spin", "d": 2}]},
                "blocks": [{"alpha": None, "v": [0.0, 0.0]}],
            },
            {"type": "report", "suites": 5},
            {"type": "algebra", "factors": [{"kind": "herm", "n": 2.9}]},
            {"type": "algebra", "factors": [{"kind": "herm", "n": True}]},
            {"type": "algebra", "factors": [{"kind": "herm", "n": "3"}]},
            {"sigma": [[0.7, 0]]},
            {"engaged": [{"match": [0, 0], "t": 0.5, "z": [[1.0, 0.0], [0.0, 1.0]], "J": []}]},
            {"engaged": [{"match": [0, 0], "t": 0.5, "z": [[1.0, 0.0], [0.0, 1.0]], "J": 5}]},
        ],
        ids=[
            "herm_n_null", "spin_d_list", "sigma_null", "phi_t_null", "spin_alpha_null", "suites_int",
            "herm_n_fraction", "herm_n_bool", "herm_n_string", "sigma_fraction", "J_list", "J_int",
        ],
    )
    def test_malformed_numeric_field(self, doc):
        if "type" not in doc:
            doc = {**json.loads(self.iso_doc()), **doc}
        with pytest.raises(SchemaError) as err:
            load_document(json.dumps(doc))
        assert err.value.code == BAD_SCHEMA

    def routed_iso_doc(self, scalar_iso):
        """herm(1) + herm(2) onto itself, routing coordinate 0 through ``scalar_iso``."""
        doc = json.loads(self.iso_doc())
        doc["source"] = doc["target"] = {"factors": [{"kind": "herm", "n": 1}, {"kind": "herm", "n": 2}]}
        doc["sigma"] = [[0, 0]]
        doc["scalar_isos"] = [scalar_iso]
        doc["engaged"][0]["match"] = [1, 1]
        return json.dumps(doc)

    def test_phi_param_out_of_range(self):
        docs = [
            self.iso_doc(t=1.5),
            self.iso_doc(t=float("-inf")),
            self.routed_iso_doc({"kind": "phi", "t": float("-inf")}),
        ]
        for doc in docs:
            with pytest.raises(SchemaError) as err:
                load_document(doc)
            assert err.value.code == PHI_PARAM_RANGE

    def test_non_finite_knots(self):
        knots = [[0.0, 0.0], [float("nan"), float("nan")], [1.0, 1.0]]
        with pytest.raises(SchemaError) as err:
            load_document(self.routed_iso_doc({"kind": "pwl", "knots": knots}))
        assert err.value.code == BAD_KNOTS

    def test_shape_mismatch(self):
        with pytest.raises(SchemaError) as err:
            load_document(self.element_doc([[[1.0, 0.0]]]))
        assert err.value.code == SHAPE_MISMATCH

    def test_non_hermitian(self):
        with pytest.raises(SchemaError) as err:
            load_document(self.element_doc([[[1.0, 0.9], [0.2, 1.0]]]))
        assert err.value.code == NON_HERMITIAN

    def test_not_isometry(self):
        nan = float("nan")
        spin = json.loads(self.iso_doc())
        spin["source"] = spin["target"] = {"factors": [{"kind": "spin", "d": 2}]}
        spin["engaged"][0]["z"] = {"alpha": 1.0, "v": [0.0, 0.0]}
        spin["engaged"][0]["J"] = {"O": [[nan, nan], [nan, nan]]}
        docs = [
            self.iso_doc(u=[[1.0, 1.0], [0.0, 1.0]]),
            self.iso_doc(u=[[nan, nan], [nan, nan]]),
            json.dumps(spin),
        ]
        for doc in docs:
            with pytest.raises(SchemaError) as err:
                load_document(doc)
            assert err.value.code == NOT_ISOMETRY

    def test_bad_bijection(self):
        doc = json.loads(self.iso_doc())
        doc["sigma"] = [[0, 0]]
        doc["scalar_isos"] = [{"kind": "phi", "t": 0.0}]
        with pytest.raises(SchemaError) as err:
            load_document(json.dumps(doc))
        assert err.value.code == NOT_BIJECTION

    def test_unknown_document_type(self):
        with pytest.raises(SchemaError):
            load_document(json.dumps({"type": "mystery"}))

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            load_document("{not json")

    def test_error_carries_path(self):
        with pytest.raises(SchemaError) as err:
            load_document(self.element_doc([[[1.0, 0.9], [0.2, 1.0]]]))
        assert "blocks" in err.value.path
