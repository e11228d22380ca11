"""JSON document schemas for algebras, elements, isomorphisms, reports.

The text format is structured and human-writable and mirrors the
composite-isomorphism data one to one:

    ALGEBRA  {"type":"algebra","factors":[{"kind":"herm","n":3,"ring":"C"},
                                          {"kind":"spin","d":4}]}
    ELEMENT  {"type":"element","algebra":ALGEBRA,"blocks":[...]}
             Hermitian blocks are their real views (``algebra._real_view``)
             as nested arrays: scalars are plain reals, [re,im] over C,
             [a,b,c,d] over H; spin blocks are {"alpha":r,"v":[...]}.
    ISO      {"type":"iso","source":ALGEBRA,"target":ALGEBRA,
              "sigma":[[i,j],...],
              "scalar_isos":[{"kind":"phi","t":t}|{"kind":"pwl","knots":[[x,y],...]}],
              "engaged":[{"match":[i,j],"t":t,"z":BLOCK,
                          "J":{"u":...,"tau":"id"|"conj"}|{"O":[[...]]}}]}
    REPORT   {"type":"report","suites":[...]}

Floats are emitted with ``repr`` (shortest round-trip), so parse o
serialize is the identity on serialized documents.  Validation failures
raise :class:`SchemaError` with a machine-parsable code and a path.  A
block is read as one ``np.array`` of its type-checked nested lists and
goes through the validator that also serves the Python constructors,
``algebra._checked_block``.  Every number goes through a typed reader: a
spin ``O`` is read into ``u`` like a real ``u``, a pwl knot by ``_number``.
One parser, ``_parse``, and one type table, ``_TYPES``, serve the CLI too.
"""

from __future__ import annotations

import json
import math
from functools import partial
from typing import Any

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    DomainError,
    Element,
    Factor,
    HermFactor,
    NonFiniteBlockError,
    NonHermitianBlockError,
    Ring,
    SpinFactor,
    _checked_block,
    _element,
    _from_real_view,
    _interned,
    _real_view,
    _real_view_shape,
    single_factor,
)
from .harness import CheckResult, SuiteReport
from .isomorphisms import (
    CompositeOrderIso,
    FactorJordanIso,
    FactorOrderIso,
    PhiScalarIso,
    PwlScalarIso,
    _isometry_factor,
    check_mobius_param,
)

BAD_SCHEMA = "BAD_SCHEMA"
UNKNOWN_KIND = "UNKNOWN_KIND"
BAD_FACTOR = "BAD_FACTOR"
SHAPE_MISMATCH = "SHAPE_MISMATCH"
NON_FINITE = "NON_FINITE"
NON_HERMITIAN = "NON_HERMITIAN"
PHI_PARAM_RANGE = "PHI_PARAM_RANGE"
BAD_KNOTS = "BAD_KNOTS"
NOT_ISOMETRY = "NOT_ISOMETRY"
NOT_INTERIOR = "NOT_INTERIOR"
NOT_BIJECTION = "NOT_BIJECTION"


class SchemaError(ValueError):
    """A document failed schema or invariant validation."""

    def __init__(self, code: str, path: str, message: str):
        super().__init__(f"{code} at {path}: {message}")
        self.code = code
        self.path = path
        self.message = message


def _need(obj: dict, key: str, path: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(BAD_SCHEMA, path, f"missing field {key!r}")
    return obj[key]


def _number(cast: type, value: Any, path: str) -> Any:
    """cast(value) for a numeric document field, which must be a JSON number
    (not a bool or a string) and, for ``int`` fields, integral."""
    # exact types: bool is a subclass of int
    if type(value) is not float and type(value) is not int:
        raise SchemaError(BAD_SCHEMA, path, f"expected a number, got {value!r}")
    if cast is int and type(value) is float and not value.is_integer():
        raise SchemaError(BAD_SCHEMA, path, f"expected an integer, got {value!r}")
    try:
        return cast(value)
    except OverflowError as exc:
        raise SchemaError(BAD_SCHEMA, path, f"number out of range: {value!r}") from exc


def _field(cast: type, obj: Any, key: str, path: str) -> Any:
    return _number(cast, _need(obj, key, path), f"{path}.{key}")


def _list(obj: Any, key: str, path: str) -> list:
    raw = _need(obj, key, path)
    if not isinstance(raw, list):
        raise SchemaError(BAD_SCHEMA, f"{path}.{key}", "expected a list")
    return raw


def _check_type_tag(obj: dict, expected: str, path: str) -> None:
    tag = obj.get("type") if isinstance(obj, dict) else None
    if tag is not None and tag != expected:
        raise SchemaError(BAD_SCHEMA, path, f"expected a {expected} document, got {tag!r}")


# --- algebras ----------------------------------------------------------------

_RINGS = {"R": Ring.REAL, "C": Ring.COMPLEX, "H": Ring.QUATERNION}


def algebra_to_obj(alg: AlgebraDescriptor) -> dict:
    factors = []
    for f in alg.factors:
        if isinstance(f, HermFactor):
            factors.append({"kind": "herm", "n": f.n, "ring": f.ring.value})
        else:
            factors.append({"kind": "spin", "d": f.d})
    return {"type": "algebra", "factors": factors}


def algebra_from_obj(obj: Any, path: str = "algebra") -> AlgebraDescriptor:
    _check_type_tag(obj, "algebra", path)
    raw = _need(obj, "factors", path)
    if not isinstance(raw, list) or not raw:
        raise SchemaError(BAD_SCHEMA, f"{path}.factors", "need a non-empty list")
    factors: list[Factor] = []
    for i, fo in enumerate(raw):
        fp = f"{path}.factors[{i}]"
        kind = _need(fo, "kind", fp)
        try:
            if kind == "herm":
                ring = fo.get("ring", "R")
                if type(ring) is not str or ring not in _RINGS:
                    raise SchemaError(BAD_FACTOR, fp, f"unknown ring {ring!r}")
                factors.append(HermFactor(_field(int, fo, "n", fp), _RINGS[ring]))
            elif kind == "spin":
                factors.append(SpinFactor(_field(int, fo, "d", fp)))
            else:
                raise SchemaError(UNKNOWN_KIND, fp, f"unknown factor kind {kind!r}")
        except ValueError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(BAD_FACTOR, fp, str(exc)) from exc
    return _interned(tuple(factors))


# --- elements ----------------------------------------------------------------

def _block_to_obj(factor: Factor, b: np.ndarray) -> Any:
    if isinstance(factor, SpinFactor):
        alpha, *v = b.tolist()
        return {"alpha": alpha, "v": v}
    return _real_view(factor, b).tolist()


def element_to_obj(x: Element) -> dict:
    return {
        "type": "element",
        "algebra": algebra_to_obj(x.algebra),
        "blocks": [_block_to_obj(f, b) for f, b in zip(x.algebra.factors, x._blocks)],
    }


def _ring_array_from_obj(factor: HermFactor, rows: Any, path: str) -> np.ndarray:
    """A ring array from its real view's nested lists: one ``np.array``."""
    n = factor.n
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise SchemaError(SHAPE_MISMATCH, path, f"expected an {n}x{n} array")
    tail = _real_view_shape(factor)[2:]  # reals per scalar: (), (2,) or (4,)
    for r, row in enumerate(rows):
        for c, s in enumerate(row):
            if tail and not (isinstance(s, list) and len(s) == tail[0]):
                msg = f"bad scalar for ring {factor.ring.value}"
                raise SchemaError(BAD_SCHEMA, f"{path}[{r}][{c}]", msg)
            for v in s if tail else (s,):
                if type(v) is not float:  # the common case; _number tests the rest
                    _number(float, v, f"{path}[{r}][{c}]")
    return _from_real_view(factor, np.array(rows, dtype=float))


def _block_from_obj(factor: Factor, obj: Any, path: str) -> np.ndarray:
    if isinstance(factor, SpinFactor):
        alpha, v = _need(obj, "alpha", path), _need(obj, "v", path)
        if not isinstance(v, list) or len(v) != factor.d:
            raise SchemaError(SHAPE_MISMATCH, path, f"expected a vector of length {factor.d}")
        value = [_number(float, c, path) for c in (alpha, *v)]
    else:
        value = _ring_array_from_obj(factor, obj, path)
    try:
        return _checked_block(factor, value, "block")
    except NonFiniteBlockError as exc:
        raise SchemaError(NON_FINITE, path, str(exc)) from exc
    except NonHermitianBlockError as exc:
        raise SchemaError(NON_HERMITIAN, path, str(exc)) from exc


def element_from_obj(obj: Any, path: str = "element") -> Element:
    _check_type_tag(obj, "element", path)
    alg = algebra_from_obj(_need(obj, "algebra", path), f"{path}.algebra")
    raw, bp = _need(obj, "blocks", path), f"{path}.blocks"
    if not isinstance(raw, list) or len(raw) != len(alg.factors):
        raise SchemaError(
            SHAPE_MISMATCH, bp, f"expected {len(alg.factors)} blocks, got "
            f"{len(raw) if isinstance(raw, list) else type(raw).__name__}"
        )
    pairs = enumerate(zip(alg.factors, raw))
    return _element(alg, [_block_from_obj(f, b, f"{bp}[{i}]") for i, (f, b) in pairs])


# --- isomorphisms -------------------------------------------------------------

def _jordan_to_obj(j: FactorJordanIso) -> dict:
    if isinstance(j.factor, SpinFactor):
        return {"O": j.u.tolist()}
    return {"u": _block_to_obj(j.factor, j._u), "tau": "conj" if j.conjugate else "id"}


def _jordan_from_obj(factor: Factor, obj: Any, path: str) -> FactorJordanIso:
    if not isinstance(obj, dict):
        raise SchemaError(BAD_SCHEMA, path, "expected an object")
    tau = obj.get("tau", "id")
    if tau not in ("id", "conj"):
        raise SchemaError(BAD_SCHEMA, f"{path}.tau", f"unknown tau {tau!r}")
    key = "O" if isinstance(factor, SpinFactor) else "u"
    u = _ring_array_from_obj(_isometry_factor(factor), _need(obj, key, path), f"{path}.{key}")
    try:
        return FactorJordanIso(factor, u, tau == "conj")
    except ValueError as exc:
        raise SchemaError(NOT_ISOMETRY, path, str(exc)) from exc


def iso_to_obj(iso: CompositeOrderIso) -> dict:
    scalars = []
    for s in iso.scalar_isos:
        if isinstance(s, PhiScalarIso):
            scalars.append({"kind": "phi", "t": float(s.t)})
        else:
            scalars.append({"kind": "pwl", "knots": [[a, b] for a, b in s.knots]})
    engaged = []
    for (i, j), f in zip(iso.engaged_pairs, iso.engaged_isos):
        engaged.append(
            {
                "match": [i, j],
                "t": float(f.t),
                "z": _block_to_obj(iso.target.factors[j], f.z._blocks[0]),
                "J": _jordan_to_obj(f.jordan),
            }
        )
    return {
        "type": "iso",
        "source": algebra_to_obj(iso.source),
        "target": algebra_to_obj(iso.target),
        "sigma": [[i, j] for i, j in iso.sigma],
        "scalar_isos": scalars,
        "engaged": engaged,
    }


def _pair_list(raw: Any, path: str) -> tuple[tuple[int, int], ...]:
    if not isinstance(raw, list):
        raise SchemaError(BAD_SCHEMA, path, "expected a list of [i, j] pairs")
    out = []
    for k, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(BAD_SCHEMA, f"{path}[{k}]", "expected [i, j]")
        out.append(tuple(_number(int, v, f"{path}[{k}]") for v in pair))
    return tuple(out)


def _mobius_param_from_obj(obj: Any, path: str) -> float:
    try:
        return check_mobius_param(_field(float, obj, "t", path))
    except DomainError as exc:
        raise SchemaError(PHI_PARAM_RANGE, f"{path}.t", str(exc)) from exc


def iso_from_obj(obj: Any, path: str = "iso") -> CompositeOrderIso:
    _check_type_tag(obj, "iso", path)
    source = algebra_from_obj(_need(obj, "source", path), f"{path}.source")
    target = algebra_from_obj(_need(obj, "target", path), f"{path}.target")
    sigma = _pair_list(_need(obj, "sigma", path), f"{path}.sigma")

    scalars = []
    for k, so in enumerate(_list(obj, "scalar_isos", path)):
        sp = f"{path}.scalar_isos[{k}]"
        kind = _need(so, "kind", sp)
        if kind == "phi":
            scalars.append(PhiScalarIso(_mobius_param_from_obj(so, sp)))
        elif kind == "pwl":
            knots = _need(so, "knots", sp)
            try:
                knots = tuple((_number(float, a, sp), _number(float, b, sp)) for a, b in knots)
                scalars.append(PwlScalarIso(knots))
            except (TypeError, ValueError) as exc:
                raise SchemaError(BAD_KNOTS, sp, str(exc)) from exc
        else:
            raise SchemaError(UNKNOWN_KIND, sp, f"unknown scalar iso kind {kind!r}")

    pairs = []
    isos = []
    for k, eo in enumerate(_list(obj, "engaged", path)):
        ep = f"{path}.engaged[{k}]"
        match = _pair_list([_need(eo, "match", ep)], ep)[0]
        i, j = match
        if not (0 <= j < len(target.factors)):
            raise SchemaError(NOT_BIJECTION, ep, f"target index {j} out of range")
        factor = target.factors[j]
        t = _mobius_param_from_obj(eo, ep)
        zb = _block_from_obj(factor, _need(eo, "z", ep), f"{ep}.z")
        z = _element(single_factor(factor), [zb])
        jord = _jordan_from_obj(factor, _need(eo, "J", ep), f"{ep}.J")
        try:
            isos.append(FactorOrderIso(t, z, jord))
        except ValueError as exc:
            raise SchemaError(NOT_INTERIOR, f"{ep}.z", str(exc)) from exc
        pairs.append(match)

    try:
        return CompositeOrderIso(source, target, sigma, tuple(scalars), tuple(pairs), tuple(isos))
    except ValueError as exc:
        raise SchemaError(NOT_BIJECTION, path, str(exc)) from exc


# --- reports ------------------------------------------------------------------

def _text(obj: Any, key: str, path: str) -> str:
    return str(_need(obj, key, path))


def _count(obj: Any, key: str, path: str) -> int:
    n = _field(int, obj, key, path)
    if n < 0:
        raise SchemaError(BAD_SCHEMA, f"{path}.{key}", f"expected a count, got {n}")
    return n


def _data(obj: Any, key: str, path: str) -> dict:
    data = obj.get(key, {})
    if not isinstance(data, dict):
        raise SchemaError(BAD_SCHEMA, f"{path}.{key}", "expected an object")
    return dict(data)


def _records(cls: type, keys: tuple, obj: Any, key: str, path: str) -> tuple:
    """The list at ``obj[key]``, each entry read through the key table ``keys``."""
    return tuple(
        cls(**{attr: read(o, k, f"{path}.{key}[{i}]") for k, attr, read in keys if read})
        for i, o in enumerate(_list(obj, key, path))
    )


# Each report key in document order: (key, attribute, reader); a derived key
# has none.  Readers take (object, key, its path); the first needs an object.
_CHECK_KEYS = (
    ("name", "name", _text),
    ("tol", "tol", partial(_field, float)),
    ("passes", "passes", _count),
    ("fails", "fails", _count),
    ("worst_residual", "worst", partial(_field, float)),
    # reports written before the field existed lack it
    ("worst_trial", "worst_trial", lambda o, k, p: None if o.get(k) is None else _count(o, k, p)),
)
_SUITE_KEYS = (
    ("suite", "suite", _text),
    ("descriptor", "descriptor", _text),
    ("seed", "seed", partial(_field, int)),
    ("trials", "trials", _count),
    ("tol", "tol", partial(_field, float)),
    ("passed", "passed", None),
    ("worst_residual", "worst_residual", None),
    ("elapsed_seconds", "elapsed_seconds", partial(_field, float)),
    ("checks", "checks", partial(_records, CheckResult, _CHECK_KEYS)),
    ("data", "data", _data),
)


def report_to_obj(reports: list[SuiteReport] | SuiteReport) -> dict:
    if isinstance(reports, SuiteReport):
        reports = [reports]
    suites = []
    for r in reports:
        suites.append({key: getattr(r, attr) for key, attr, _ in _SUITE_KEYS})
        suites[-1]["checks"] = [{k: getattr(c, a) for k, a, _ in _CHECK_KEYS} for c in r.checks]
    return {"type": "report", "suites": suites}


def report_from_obj(obj: Any, path: str = "report") -> list[SuiteReport]:
    _check_type_tag(obj, "report", path)
    return list(_records(SuiteReport, _SUITE_KEYS, obj, "suites", path))


# --- generic documents ---------------------------------------------------------

def _non_finite_path(obj: Any, path: str) -> str | None:
    """Path of the first non-finite number in a JSON object tree."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        children = ((f"{path}.{k}", v) for k, v in obj.items())
    elif isinstance(obj, list):
        children = ((f"{path}[{k}]", v) for k, v in enumerate(obj))
    else:
        return None
    for child_path, child in children:
        found = _non_finite_path(child, child_path)
        if found is not None:
            return found
    return None


# tag -> (class, writer, reader) of each document type
_TYPES = {
    "algebra": (AlgebraDescriptor, algebra_to_obj, algebra_from_obj),
    "element": (Element, element_to_obj, element_from_obj),
    "iso": (CompositeOrderIso, iso_to_obj, iso_from_obj),
    "report": ((SuiteReport, list), report_to_obj, report_from_obj),
}


def _parse(text: str, where: str = "") -> dict:
    """The top-level object; bad or too deep JSON, or a non-object, is BAD_SCHEMA at ``$``."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(BAD_SCHEMA, "$", f"invalid JSON{where}: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(BAD_SCHEMA, "$", "top-level document must be an object")
    return obj


def dump_document(doc) -> str:
    """Serialize a domain object to canonical JSON text.

    ELEMENT and ISO documents with a non-finite entry raise
    ``SchemaError(NON_FINITE)``, as their loader would, also when given as
    plain dicts (the path of a dict with no ``type`` starts at ``$``); a
    REPORT may carry non-finite residuals, so that a failing verification
    is still written.
    """
    writers = [write for cls, write, _ in _TYPES.values() if isinstance(doc, cls)]
    if not writers and not isinstance(doc, dict):
        raise TypeError(f"cannot serialize {type(doc).__name__}")
    obj = writers[0](doc) if writers else doc
    try:
        return json.dumps(obj, indent=1, allow_nan=obj.get("type") == "report")
    except ValueError:
        path = _non_finite_path(obj, obj.get("type", "$"))
        raise SchemaError(NON_FINITE, path, "non-finite entries") from None


def load_document(text: str):
    """Parse a JSON document, dispatching on its ``type`` tag."""
    obj = _parse(text)
    tag = obj.get("type")
    if type(tag) is not str or tag not in _TYPES:
        raise SchemaError(BAD_SCHEMA, "$.type", f"unknown document type {tag!r}")
    _, _, read = _TYPES[tag]
    return read(obj)
