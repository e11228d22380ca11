import copy
import json
import math
import random
import warnings

import numpy as np
import pytest

from effectorder import (
    CompositeOrderIso,
    FactorJordanIso,
    FactorOrderIso,
    HermFactor,
    PhiScalarIso,
    PwlScalarIso,
    Ring,
    SpinFactor,
    algebra,
    dump_document,
    element_in_factor,
    identity_jordan,
    load_document,
    quad_rep,
    random_composite_iso,
    random_element,
    run_identity_suite,
    sample_element,
    single_factor,
    sup_norm,
    unit,
)
from effectorder.serialization import (
    BAD_FACTOR,
    BAD_KNOTS,
    BAD_SCHEMA,
    NON_FINITE,
    NON_HERMITIAN,
    NOT_BIJECTION,
    NOT_INTERIOR,
    NOT_ISOMETRY,
    PHI_PARAM_RANGE,
    SHAPE_MISMATCH,
    UNKNOWN_KIND,
    SchemaError,
    algebra_to_obj,
    element_to_obj,
    iso_to_obj,
    report_from_obj,
    report_to_obj,
)

MIXED = algebra(HermFactor(1), HermFactor(2, Ring.COMPLEX), SpinFactor(3), HermFactor(2, Ring.QUATERNION))


class TestRoundTrips:
    def test_algebra_byte_stable(self):
        text = dump_document(MIXED)
        again = dump_document(load_document(text))
        assert text == again

    def test_loaded_algebra_is_the_interned_descriptor(self):
        assert load_document(dump_document(MIXED)) is MIXED
        assert algebra(HermFactor(2)) is single_factor(HermFactor(2, Ring.REAL))
        # so a loaded map's algebra is the caller's own, and its apply compares by identity
        iso = load_document(dump_document(random_composite_iso(MIXED, MIXED, np.random.default_rng(0))))
        assert iso.source is MIXED and iso.target is MIXED
        x = load_document(dump_document(unit(MIXED)))
        assert x.algebra is MIXED

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
        assert [c.worst_trial for c in loaded[0].checks] == [c.worst_trial for c in report.checks]

    def test_report_without_worst_trial_loads(self):
        obj = report_to_obj(run_identity_suite(algebra(HermFactor(2)), seed=0, trials=3))
        for check in obj["suites"][0]["checks"]:
            del check["worst_trial"]
        loaded = load_document(json.dumps(obj))
        assert all(c.worst_trial is None for c in loaded[0].checks)

    def test_report_keeps_non_finite_residual(self):
        from effectorder.harness import CheckResult, SuiteReport

        check = CheckResult("roundtrip", 1e-8, fails=1, worst=float("inf"))
        report = SuiteReport("order_iso", "herm(2,R)", 0, 1, 1e-8, (check,), 0.0)
        loaded = load_document(dump_document(report))
        assert loaded[0].checks[0].worst == float("inf")


GOLDEN_ELEMENT = {
    "type": "element",
    "algebra": {
        "type": "algebra",
        "factors": [
            {"kind": "herm", "n": 1, "ring": "R"},
            {"kind": "herm", "n": 2, "ring": "R"},
            {"kind": "herm", "n": 2, "ring": "C"},
            {"kind": "herm", "n": 2, "ring": "H"},
            {"kind": "spin", "d": 2},
        ],
    },
    "blocks": [
        [[-0.25]],
        [[0.5, 1e-300], [1e-300, -0.25]],
        [[[0.1, 0.0], [0.5, -0.25]], [[0.5, 0.25], [-0.25, 0.0]]],
        [[[1.0, 0.0, 0.0, 0.0], [0.1, 0.5, -0.25, 1e-300]],
         [[0.1, -0.5, 0.25, -1e-300], [0.5, 0.0, 0.0, 0.0]]],
        {"alpha": 0.5, "v": [-0.25, 1e-300]},
    ],
}

GOLDEN_ISO = {
    "type": "iso",
    "source": {"type": "algebra", "factors": [{"kind": "herm", "n": 1, "ring": "R"},
                                              {"kind": "herm", "n": 2, "ring": "C"},
                                              {"kind": "spin", "d": 2}]},
    "target": {"type": "algebra", "factors": [{"kind": "herm", "n": 1, "ring": "R"},
                                              {"kind": "herm", "n": 2, "ring": "C"},
                                              {"kind": "spin", "d": 2}]},
    "sigma": [[0, 0]],
    "scalar_isos": [{"kind": "phi", "t": -0.25}],
    "engaged": [
        {
            "match": [1, 1],
            "t": 0.5,
            "z": [[[1.0, 0.0], [0.1, -0.25]], [[0.1, 0.25], [0.5, 0.0]]],
            "J": {"u": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]], "tau": "conj"},
        },
        {
            "match": [2, 2],
            "t": -0.25,
            "z": {"alpha": 1.0, "v": [0.5, -0.25]},
            "J": {"O": [[0.0, -1.0], [1.0, 0.0]]},
        },
    ],
}


class TestGoldenText:
    """The text format against hand-written documents, not against the
    library's own output: a change to the format fails here."""

    def test_element(self):
        text = json.dumps(GOLDEN_ELEMENT, indent=1)
        x = load_document(text)
        assert dump_document(x) == text
        expected = [
            np.array([[-0.25]]),
            np.array([[0.5, 1e-300], [1e-300, -0.25]]),
            np.array([[0.1, 0.5 - 0.25j], [0.5 + 0.25j, -0.25]]),
            np.array([[[1.0, 0.0, 0.0, 0.0], [0.1, 0.5, -0.25, 1e-300]],
                      [[0.1, -0.5, 0.25, -1e-300], [0.5, 0.0, 0.0, 0.0]]]),
            np.array([0.5, -0.25, 1e-300]),
        ]
        for got, want in zip(x.blocks, expected, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_iso(self):
        text = json.dumps(GOLDEN_ISO, indent=1)
        iso = load_document(text)
        assert dump_document(iso) == text
        herm, spin = iso.engaged_isos
        assert herm.jordan.conjugate
        u = np.array([[1j, 0.0], [0.0, -1.0]])
        z = np.array([[1.0, 0.1 - 0.25j], [0.1 + 0.25j, 0.5]])
        assert herm.jordan.u.dtype == u.dtype and np.array_equal(herm.jordan.u, u)
        assert herm.z.block(0).dtype == z.dtype and np.array_equal(herm.z.block(0), z)
        assert np.array_equal(spin.jordan.u, [[0.0, -1.0], [1.0, 0.0]])
        assert np.array_equal(spin.z.block(0), [1.0, 0.5, -0.25])
        assert iso.scalar_isos[0].t == -0.25


def one_block_element(factor, block):
    return {"type": "element", "algebra": {"factors": [factor]}, "blocks": [block]}


def spin_iso(O):
    """Overrides of the herm(2) iso document that make it a spin(2) iso with rotation O."""
    spin = {"factors": [{"kind": "spin", "d": 2}]}
    engaged = {"match": [0, 0], "t": 0.5, "z": {"alpha": 1.0, "v": [0.0, 0.0]}, "J": {"O": O}}
    return {"source": spin, "target": spin, "engaged": [engaged]}


def spin_tau_iso(tau):
    """:func:`spin_iso` with O = I and a ``tau``, which spin shares with the other kinds."""
    doc = spin_iso([[1.0, 0.0], [0.0, 1.0]])
    doc["engaged"][0]["J"]["tau"] = tau
    return doc


def routed_iso(scalar_iso):
    """Overrides of the herm(2) iso document that make it herm(1) + herm(2)
    onto itself, routing coordinate 0 through ``scalar_iso``."""
    alg = {"factors": [{"kind": "herm", "n": 1}, {"kind": "herm", "n": 2}]}
    engaged = {"match": [1, 1], "t": 0.5, "z": [[1.0, 0.0], [0.0, 1.0]],
               "J": {"u": [[1.0, 0.0], [0.0, 1.0]], "tau": "id"}}
    return {"source": alg, "target": alg, "sigma": [[0, 0]],
            "scalar_isos": [scalar_iso], "engaged": [engaged]}


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
        return json.dumps({**json.loads(self.iso_doc()), **routed_iso(scalar_iso)})

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

    @pytest.mark.parametrize(
        "doc, path",
        [
            (
                {
                    "type": "element",
                    "algebra": {"factors": [{"kind": "herm", "n": 2, "ring": "C"}]},
                    "blocks": [[[[1.0, 0.0], [0.0, math.nan]], [[0.0, 0.0], [1.0, 0.0]]]],
                },
                "element.blocks[0]",
            ),
            (
                {
                    "type": "element",
                    "algebra": {"factors": [{"kind": "herm", "n": 1}, {"kind": "spin", "d": 2}]},
                    "blocks": [[[0.5]], {"alpha": 1.0, "v": [math.inf, 0.0]}],
                },
                "element.blocks[1]",
            ),
            ({"engaged": [{"match": [0, 0], "t": 0.5, "z": [[math.nan, 0.0], [0.0, 1.0]],
                           "J": {"u": [[1.0, 0.0], [0.0, 1.0]]}}]}, "iso.engaged[0].z"),
        ],
        ids=["herm_nan", "spin_inf", "iso_z_nan"],
    )
    def test_non_finite_block(self, doc, path):
        if "type" not in doc:
            doc = {**json.loads(self.iso_doc()), **doc}
        with pytest.raises(SchemaError) as err:
            load_document(json.dumps(doc))
        assert err.value.code == NON_FINITE
        assert err.value.path.startswith(path)

    @pytest.mark.parametrize(
        "doc, code, path",
        [
            ({"type": "algebra", "factors": [{"kind": "herm", "n": 2, "ring": "Q"}]},
             BAD_FACTOR, "algebra.factors[0]"),
            ({"type": "algebra", "factors": [{"kind": "torus", "n": 2}]},
             UNKNOWN_KIND, "algebra.factors[0]"),
            (one_block_element({"kind": "herm", "n": 1, "ring": "C"}, [[[1, 0, 0]]]),
             BAD_SCHEMA, "element.blocks[0][0][0]"),
            (one_block_element({"kind": "herm", "n": 1, "ring": "H"}, [[[1, 0]]]),
             BAD_SCHEMA, "element.blocks[0][0][0]"),
            (one_block_element({"kind": "herm", "n": 1, "ring": "C"}, [[[True, 0.0]]]),
             BAD_SCHEMA, "element.blocks[0][0][0]"),
            ({"engaged": [{"match": [0, 0], "t": 10**400, "z": [[1.0, 0.0], [0.0, 1.0]],
                           "J": {"u": [[1.0, 0.0], [0.0, 1.0]]}}]},
             BAD_SCHEMA, "iso.engaged[0].t"),
            (one_block_element({"kind": "spin", "d": 2}, {"alpha": 1.0, "v": [0.0]}),
             SHAPE_MISMATCH, "element.blocks[0]"),
            ({"type": "element",
              "algebra": {"factors": [{"kind": "herm", "n": 1}, {"kind": "herm", "n": 1}]},
              "blocks": [[[0.5]]]},
             SHAPE_MISMATCH, "element.blocks"),
            ({"sigma": [[0, 0]], "scalar_isos": [{"kind": "cubic"}]},
             UNKNOWN_KIND, "iso.scalar_isos[0]"),
            ({"engaged": [{"match": [0, 5], "t": 0.5, "z": [[1.0, 0.0], [0.0, 1.0]],
                           "J": {"u": [[1.0, 0.0], [0.0, 1.0]]}}]},
             NOT_BIJECTION, "iso.engaged[0]"),
            ({"engaged": [{"match": [0, 0], "t": 0.5, "z": [[1.0, 0.0], [0.0, -1.0]],
                           "J": {"u": [[1.0, 0.0], [0.0, 1.0]]}}]},
             NOT_INTERIOR, "iso.engaged[0].z"),
            ({"engaged": [{"match": [0, 0], "t": 0.5, "z": [[1.0, 0.0], [0.0, 1.0]],
                           "J": {"u": [[1.0, 0.0], [0.0]]}}]},
             SHAPE_MISMATCH, "iso.engaged[0].J.u"),
            ({"type": "algebra", "factors": [{"kind": "herm", "n": 2, "ring": ["R"]}]},
             BAD_FACTOR, "algebra.factors[0]"),
            ({"type": "algebra", "factors": [{"kind": "herm", "n": 2, "ring": {"R": 1}}]},
             BAD_FACTOR, "algebra.factors[0]"),
            (routed_iso({"kind": "pwl", "knots": [[0.0, 0.0], [10**400, 0.5], [1.0, 1.0]]}),
             BAD_KNOTS, "iso.scalar_isos[0]"),
            (routed_iso({"kind": "pwl", "knots": [[0.0, 0.0], ["0.3", 0.5], [1.0, 1.0]]}),
             BAD_KNOTS, "iso.scalar_isos[0]"),
            (routed_iso({"kind": "pwl", "knots": [[0.0, 0.0], [0.3, 0.5], [True, 1.0]]}),
             BAD_KNOTS, "iso.scalar_isos[0]"),
            (spin_iso([[1.0, {}], [0.0, 1.0]]), BAD_SCHEMA, "iso.engaged[0].J.O[0][1]"),
            (spin_iso([[1.0, 0.0], [0.0, 10**400]]), BAD_SCHEMA, "iso.engaged[0].J.O[1][1]"),
            (spin_iso([[1.0, 0.0], ["0", 1.0]]), BAD_SCHEMA, "iso.engaged[0].J.O[1][0]"),
            (spin_iso([[1.0, 0.0], [0.0]]), SHAPE_MISMATCH, "iso.engaged[0].J.O"),
            (spin_iso([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
             SHAPE_MISMATCH, "iso.engaged[0].J.O"),
            (spin_tau_iso("conj"), NOT_ISOMETRY, "iso.engaged[0].J"),
            (spin_tau_iso("star"), BAD_SCHEMA, "iso.engaged[0].J.tau"),
        ],
        ids=[
            "unknown_ring", "unknown_factor_kind", "C_scalar_too_long", "H_scalar_too_short",
            "C_scalar_bool", "t_overflow", "spin_v_short", "missing_block",
            "unknown_scalar_iso_kind", "match_out_of_range", "z_not_interior", "ragged_u",
            "ring_list", "ring_object", "knot_overflow", "knot_string", "knot_bool",
            "O_object_entry", "O_overflow", "O_string", "ragged_O", "O_wrong_size",
            "spin_tau_conj", "spin_tau_unknown",
        ],
    )
    def test_error_code_and_path(self, doc, code, path):
        """The loader's error contract, one raise site per case."""
        if "type" not in doc:
            doc = {**json.loads(self.iso_doc()), **doc}
        with pytest.raises(SchemaError) as err:
            load_document(json.dumps(doc))
        assert (err.value.code, err.value.path) == (code, path)

    @pytest.mark.parametrize("text", ["[" * 100000, '{"a": ' * 100000], ids=["list", "object"])
    def test_deep_nesting_is_bad_schema(self, text):
        with pytest.raises(SchemaError) as err:
            load_document(text)
        assert (err.value.code, err.value.path) == (BAD_SCHEMA, "$")

    @pytest.mark.parametrize("tag", [5, None, [], {}, ["report"]], ids=repr)
    def test_non_string_type_tag(self, tag):
        with pytest.raises(SchemaError) as err:
            load_document(json.dumps({"type": tag, "factors": [{"kind": "herm", "n": 2}]}))
        assert (err.value.code, err.value.path) == (BAD_SCHEMA, "$.type")

    def report_obj(self):
        return report_to_obj(run_identity_suite(algebra(HermFactor(1)), seed=0, trials=2))

    def test_check_field_path_names_the_check(self):
        obj = self.report_obj()
        obj["suites"][0]["checks"][1]["tol"] = "1e-8"
        with pytest.raises(SchemaError) as err:
            report_from_obj(obj)
        assert (err.value.code, err.value.path) == (BAD_SCHEMA, "report.suites[0].checks[1].tol")

    @pytest.mark.parametrize(
        "key, path",
        [
            ("trials", "report.suites[0].trials"),
            ("passes", "report.suites[0].checks[1].passes"),
            ("fails", "report.suites[0].checks[1].fails"),
            ("worst_trial", "report.suites[0].checks[1].worst_trial"),
        ],
    )
    @pytest.mark.parametrize("value", [-1, -3])
    def test_negative_counts_refused(self, key, path, value):
        obj = self.report_obj()
        suite = obj["suites"][0]
        (suite if key == "trials" else suite["checks"][1])[key] = value
        with pytest.raises(SchemaError) as err:
            load_document(json.dumps(obj))
        assert (err.value.code, err.value.path) == (BAD_SCHEMA, path)

    def test_non_finite_element_refused_at_dump(self):
        # U_y y overflows to inf and, off the diagonal, to inf * 0 = NaN
        y = element_in_factor(HermFactor(2), np.diag([1e200, 1.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            x = quad_rep(y, y)
        with pytest.raises(SchemaError) as err:
            dump_document(x)
        assert err.value.code == NON_FINITE
        assert err.value.path.startswith("element.blocks[0]")

    def test_non_finite_dict_refused_at_dump(self, rng):
        # a document handed over as a plain dict gets the same refusal
        x = math.nan * unit(algebra(HermFactor(1)))
        with pytest.raises(SchemaError) as err:
            dump_document(element_to_obj(x))
        assert (err.value.code, err.value.path) == (NON_FINITE, "element.blocks[0][0][0]")
        iso = random_composite_iso(MIXED, MIXED, rng)
        obj = iso_to_obj(iso)
        obj["engaged"][0]["t"] = math.inf
        with pytest.raises(SchemaError) as err:
            dump_document(obj)
        assert err.value.path == "iso.engaged[0].t"
        # a dict with no "type" is rooted at "$"
        with pytest.raises(SchemaError) as err:
            dump_document({"x": [math.nan]})
        assert (err.value.code, err.value.path) == (NON_FINITE, "$.x[0]")


FUZZ_ALGEBRA = algebra(
    HermFactor(1),
    HermFactor(1),
    HermFactor(2, Ring.COMPLEX),
    SpinFactor(2),
    HermFactor(2, Ring.QUATERNION),
)
SWAPS = [None, True, "0.5", 0, 1.5, [], {}, [1.0], {"a": 1}]


def _nodes(obj):
    """(parent, key, value) for every node below the root of a JSON tree."""
    if isinstance(obj, (dict, list)):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield obj, k, v
            yield from _nodes(v)


def _scaled(v, sign):
    """Every number in v times sign * 1e300 (exactly, for an int)."""
    if type(v) is float:
        return v * sign * 1e300
    if type(v) is int:
        return v * sign * 10**300
    if isinstance(v, list):
        return [_scaled(c, sign) for c in v]
    if isinstance(v, dict):
        return {k: _scaled(c, sign) for k, c in v.items()}
    return v


def _mutate(doc, rnd):
    """One random edit at a random node: a type swap, a deleted key or entry,
    an extra level of nesting, scaling by 1e300, or a huge integer."""
    nodes = list(_nodes(doc))
    if not nodes:
        return
    parent, key, value = rnd.choice(nodes)
    op = rnd.randrange(5)
    if op == 0:
        parent[key] = copy.deepcopy(rnd.choice(SWAPS))
    elif op == 1:
        del parent[key]
    elif op == 2:
        parent[key] = [value] if rnd.random() < 0.5 else {"v": value}
    elif op == 3:
        parent[key] = _scaled(value, rnd.choice([1, -1]))
    else:
        parent[key] = rnd.choice([10**400, -(10**400), 10**20])


class TestFuzz:
    def base_documents(self):
        rng = np.random.default_rng(0)
        docs = [
            json.loads(dump_document(FUZZ_ALGEBRA)),
            json.loads(dump_document(random_element(FUZZ_ALGEBRA, 0, "general"))),
        ]
        for _ in range(3):
            iso = random_composite_iso(FUZZ_ALGEBRA, FUZZ_ALGEBRA, rng)
            docs.append(json.loads(dump_document(iso)))
        return docs

    def test_mutated_documents_raise_a_coded_error_or_round_trip(self):
        """Seeded mutations of valid documents: each one raises a SchemaError
        with a code and a path, or loads and round-trips through dump_document.
        No other exception and no RuntimeWarning escapes the loader."""
        rnd = random.Random(0)
        base = self.base_documents()
        refused = 0
        for k in range(1000):
            doc = copy.deepcopy(base[k % len(base)])
            for _ in range(rnd.randint(1, 3)):
                _mutate(doc, rnd)
            text = json.dumps(doc)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    loaded = load_document(text)
                except SchemaError as err:
                    assert err.code and err.path, text
                    refused += 1
                    continue
                out = dump_document(loaded)
                assert dump_document(load_document(out)) == out, text
        assert 0 < refused < 1000


def oracle(obj):
    """json's own text of a document's object tree, as dump_document must write it."""
    return json.dumps(obj, indent=1, allow_nan=obj.get("type") == "report")


WRITER_ALGEBRAS = {
    "mixed": MIXED,
    "grouped": algebra(
        HermFactor(2, Ring.QUATERNION), HermFactor(1), HermFactor(3, Ring.COMPLEX),
        HermFactor(1), HermFactor(2, Ring.QUATERNION), SpinFactor(3), HermFactor(4), SpinFactor(3),
    ),
    "lines": algebra(*[HermFactor(1)] * 5),
}


def scalar_and_engaged_iso():
    """A map with a phi and a pwl scalar, a conjugate-linear complex J and a spin O."""
    c, s = HermFactor(2, Ring.COMPLEX), SpinFactor(3)
    alg = algebra(HermFactor(1), c, HermFactor(1), s)
    herm = FactorOrderIso(
        0.3, element_in_factor(c, np.array([[1.2, 0.3j], [-0.3j, 0.8]])),
        FactorJordanIso(c, np.array([[1, 1j], [1j, 1]]) / np.sqrt(2), conjugate=True),
    )
    O = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, -1.0]])
    spin = FactorOrderIso(-2.5, element_in_factor(s, np.array([1.0, 0.2, -0.1, 0.3])), FactorJordanIso(s, O))
    scalars = (PhiScalarIso(-0.75), PwlScalarIso(((0.0, 0.0), (0.25, 0.5), (1.0, 1.0))))
    return CompositeOrderIso(alg, alg, ((0, 2), (2, 0)), scalars, ((1, 1), (3, 3)), (herm, spin))


def report_with_non_finite_residuals():
    from effectorder.harness import CheckResult, SuiteReport

    checks = (
        CheckResult("a", 1e-8, fails=1, worst=math.nan, worst_trial=0),
        CheckResult("b", 1e-8, fails=1, worst=math.inf, worst_trial=1),
        CheckResult("c", 1e-8, passes=2, worst=-math.inf),
        CheckResult("d", 1e-8, passes=1, worst=5e-324, worst_trial=0),
    )
    data = {"grid": [0.0, 0.5, 1.0], "kind": "sum of lines", "n": 3, "nested": {"ok": True, "none": None}}
    return SuiteReport("identity", "herm(2,R)", 7, 2, 1e-8, checks, 0.125, data)


# floats whose repr json writes in each of its forms: signed zero, subnormal,
# exponent at and beyond 1e16, and the repr's switch to exponent notation at 1e-4
AWKWARD_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 1.7976931348623157e308, 1e-4, 1e-5, 0.1, 1.0]

PLAIN = {
    "empty": {"type": "x", "list": [], "dict": {}, "lists": [[], [[]], [{}]], "dicts": {"a": {}, "b": []}},
    "strings": {
        'quo"te\\back\nline\ttab\x00\x1f': ["é", "☃", "\U0001f600", " ", "/", ""],
        "ключ": "値",
    },
    "scalars": {"ints": [0, -7, 2**63, -(10**30), 10**400], "bools": [True, False], "none": None,
                "mixed": [1, 2.5, True, None, "s", [], {}], "t": False, "f": 3},
    "floats": {"lone": AWKWARD_FLOATS[0], "row": AWKWARD_FLOATS, "each": [[v] for v in AWKWARD_FLOATS],
               "block": [AWKWARD_FLOATS[:3], AWKWARD_FLOATS[3:6]], "stack": [[AWKWARD_FLOATS[:2]] * 2] * 2},
    # a list that starts like a float array and is not one
    "ragged": {"short": [[1.0, 2.0], [3.0]], "int_leaf": [[1.0, 2.0], [3, 4.0]], "bool_leaf": [0.5, True],
               "str_leaf": [[0.5, "x"]], "dict_row": [[1.0], {"a": 1.0}], "deeper": [[1.0], [[2.0]]],
               "tuple_row": [[1.0, 2.0], (3.0, 4.0)], "empty_row": [[1.0], []], "list_then_float": [[1.0], 2.0]},
    # json writes a tuple as a list and an np.float64 as a float, wherever it sits
    "numpy_and_tuples": {"t": (1.0, (2.0, 3.0), "a", (4, None)), "f": np.float64(0.1),
                         "fs": [np.float64(0.2), 0.3], "tail": [0.3, np.float64(-0.0)],
                         "arr": [(np.float64(1e22), 2.0)]},
    # keys that are not strings: json converts them
    "keys": {"x": {1: "a", 2.5: "b", True: "c", None: "d"}, "in_array": [[1.0], {1.5: 2.0}]},
}


class TestRoutingIndices:
    """A CompositeOrderIso keeps both routings as pairs of plain ints, so that its
    document writes, and loads back to the same text."""

    ALG = algebra(HermFactor(1), HermFactor(2))

    def build(self, sigma=((0, 0),), engaged_pairs=((1, 1),)):
        engaged = FactorOrderIso(0.3, unit(single_factor(HermFactor(2))), identity_jordan(HermFactor(2)))
        return CompositeOrderIso(self.ALG, self.ALG, sigma, (PhiScalarIso(0.3),), engaged_pairs, (engaged,))

    @pytest.mark.parametrize("field", ["sigma", "engaged_pairs"])
    @pytest.mark.parametrize("array", [False, True], ids=["scalars", "array"])
    def test_numpy_indices_are_stored_as_ints(self, field, array):
        i = {"sigma": 0, "engaged_pairs": 1}[field]
        iso = self.build(**{field: np.array([[i, i]]) if array else ((np.int64(i), np.intp(i)),)})
        assert [type(k) for k in getattr(iso, field)[0]] == [int, int]
        text = dump_document(iso)
        assert text == dump_document(self.build())
        assert dump_document(load_document(text)) == text

    # each equal to the index it stands for, so a routing of them is a bijection
    @pytest.mark.parametrize(
        "field, index", [("sigma", False), ("sigma", 0.0), ("engaged_pairs", True), ("engaged_pairs", 1.0)]
    )
    def test_bool_and_float_indices_are_refused(self, field, index):
        with pytest.raises(ValueError, match=f"^an index of {field} must be an integer"):
            self.build(**{field: ((index, index),)})


class TestWriter:
    """dump_document writes json.dumps(obj, indent=1) of each document's object
    tree, byte for byte; json's text is the oracle."""

    @pytest.mark.parametrize("name", list(WRITER_ALGEBRAS))
    def test_algebra_and_element_documents(self, name, rng):
        alg = WRITER_ALGEBRAS[name]
        assert dump_document(alg) == oracle(algebra_to_obj(alg))
        for cls in ("general", "effect", "projection"):
            x = sample_element(alg, rng, cls)
            assert dump_document(x) == oracle(element_to_obj(x))
        assert dump_document(unit(alg)) == oracle(element_to_obj(unit(alg)))

    def test_iso_documents(self, rng):
        iso = scalar_and_engaged_iso()
        obj = iso_to_obj(iso)
        kinds = [s["kind"] for s in obj["scalar_isos"]]
        assert kinds == ["phi", "pwl"] and obj["engaged"][0]["J"]["tau"] == "conj" and "O" in obj["engaged"][1]["J"]
        assert dump_document(iso) == oracle(obj)
        for alg in WRITER_ALGEBRAS.values():
            iso = random_composite_iso(alg, alg, rng)
            assert dump_document(iso) == oracle(iso_to_obj(iso))

    def test_report_with_non_finite_residuals(self):
        report = report_with_non_finite_residuals()
        text = dump_document(report)
        assert text == oracle(report_to_obj([report]))
        assert "NaN" in text and "Infinity" in text and "-Infinity" in text
        assert dump_document([report, report]) == oracle(report_to_obj([report, report]))
        # a finite report goes through the writer alone
        finite = run_identity_suite(algebra(HermFactor(2)), seed=0, trials=2)
        assert dump_document(finite) == oracle(report_to_obj(finite))

    @pytest.mark.parametrize("name", list(PLAIN))
    def test_plain_dicts(self, name):
        assert dump_document(PLAIN[name]) == json.dumps(PLAIN[name], indent=1, allow_nan=False)

    @pytest.mark.parametrize("value", AWKWARD_FLOATS + [[1.0], [[1.0]], [[[1.0]]]])
    def test_each_depth(self, value):
        for depth in range(4):
            obj = {"x": value}
            for _ in range(depth):
                obj = {"d": [obj]}
            assert dump_document(obj) == json.dumps(obj, indent=1)

    def test_seeded_trees(self):
        """Random trees over the whole vocabulary, arrays of floats among them."""
        rnd = random.Random(1)
        leaves = [lambda: rnd.choice(AWKWARD_FLOATS), lambda: rnd.uniform(-1e3, 1e3), lambda: rnd.randint(-9, 9),
                  lambda: rnd.choice([True, False, None]), lambda: rnd.choice(["", "a", "é\n", '"'])]

        def tree(depth):
            r = rnd.random()
            if depth > 4 or r < 0.3:
                return rnd.choice(leaves)()
            if r < 0.5:  # an array of floats, sometimes ragged
                shape = [rnd.randint(1, 3) for _ in range(rnd.randint(1, 3))]
                arr = np.random.default_rng(rnd.randrange(2**32)).standard_normal(shape).tolist()
                if rnd.random() < 0.2:
                    arr.append(rnd.choice(leaves)())
                return arr
            if r < 0.75:
                return [tree(depth + 1) for _ in range(rnd.randint(0, 3))]
            return {rnd.choice(["k", "ключ", "a\tb"]) + str(i): tree(depth + 1) for i in range(rnd.randint(0, 3))}

        for _ in range(300):
            obj = {"root": tree(0)}
            assert dump_document(obj) == json.dumps(obj, indent=1, allow_nan=False)

    def test_documents_in_the_vocabulary_do_not_call_json(self, monkeypatch, rng):
        docs = [MIXED, sample_element(MIXED, rng, "effect"), scalar_and_engaged_iso(),
                run_identity_suite(algebra(HermFactor(2)), seed=0, trials=2), PLAIN["empty"]]
        texts = [dump_document(d) for d in docs]

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(json, "dumps", refuse)
        assert [dump_document(d) for d in docs] == texts

    def test_values_outside_json_are_json_errors(self):
        for bad in (object(), np.int64(1), np.array([1.0]), {1.0, 2.0}, b"x"):
            with pytest.raises(TypeError):
                dump_document({"x": [0.5, {"y": bad}]})

    @pytest.mark.parametrize("where", ["lone", "array", "row"])
    def test_non_finite_keeps_its_code_and_path(self, where, rng):
        """A non-finite number is refused with NON_FINITE at its path, in an ELEMENT
        and an ISO dict, wherever the writer meets it."""
        x = sample_element(MIXED, rng, "effect")
        obj = element_to_obj(x)
        iso_obj = iso_to_obj(scalar_and_engaged_iso())
        if where == "lone":
            obj["blocks"][2]["alpha"] = math.nan
            path = "element.blocks[2].alpha"
            iso_obj["scalar_isos"][1]["knots"][1][0] = -math.inf
            iso_path = "iso.scalar_isos[1].knots[1][0]"
        elif where == "array":
            obj["blocks"][1][1][0][1] = math.inf
            path = "element.blocks[1][1][0][1]"
            iso_obj["engaged"][0]["z"][0][1][1] = math.nan
            iso_path = "iso.engaged[0].z[0][1][1]"
        else:
            obj["blocks"][2]["v"][2] = -math.inf
            path = "element.blocks[2].v[2]"
            iso_obj["engaged"][1]["J"]["O"][2][0] = math.nan
            iso_path = "iso.engaged[1].J.O[2][0]"
        for doc, want in ((obj, path), (iso_obj, iso_path)):
            with pytest.raises(SchemaError) as err:
                dump_document(doc)
            assert (err.value.code, err.value.path) == (NON_FINITE, want)
