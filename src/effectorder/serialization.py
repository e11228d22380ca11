"""JSON document schemas for algebras, elements, isomorphisms, reports.

The text format is structured and human-writable and mirrors the
composite-isomorphism data one to one:

    ALGEBRA  {"type":"algebra","factors":[{"kind":"herm","n":3,"ring":"C"},
                                          {"kind":"spin","d":4}]}
    ELEMENT  {"type":"element","algebra":ALGEBRA,"blocks":[...]}
             Hermitian blocks are nested arrays with scalars written as
             plain reals, [re,im] over C, [a,b,c,d] over H; spin blocks
             are {"alpha":r,"v":[...]}.
    ISO      {"type":"iso","source":ALGEBRA,"target":ALGEBRA,
              "sigma":[[i,j],...],
              "scalar_isos":[{"kind":"phi","t":t}|{"kind":"pwl","knots":[[x,y],...]}],
              "engaged":[{"match":[i,j],"t":t,"z":BLOCK,
                          "J":{"u":...,"tau":"id"|"conj"}|{"O":[[...]]}}]}
    REPORT   {"type":"report","suites":[...]}

Floats are emitted with ``repr`` (shortest round-trip), so parse o
serialize is the identity on serialized documents.  Validation failures
raise :class:`SchemaError` with a machine-parsable code and a path.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    DomainError,
    Element,
    Factor,
    HermFactor,
    Ring,
    ShapeMismatchError,
    SpinFactor,
    _adjoint_block,
    _block_dtype_shape,
    _block_sup,
    element_from_blocks,
    single_factor,
)
from .harness import CheckResult, SuiteReport
from .isomorphisms import (
    CompositeOrderIso,
    FactorJordanIso,
    FactorOrderIso,
    PhiScalarIso,
    PwlScalarIso,
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
                if ring not in _RINGS:
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
    return AlgebraDescriptor(tuple(factors))


# --- elements ----------------------------------------------------------------

def _scalar_to_obj(ring: Ring, v) -> Any:
    if ring is Ring.REAL:
        return float(v)
    if ring is Ring.COMPLEX:
        return [float(v.real), float(v.imag)]
    return [float(c) for c in v]


def _block_to_obj(factor: Factor, b: np.ndarray) -> Any:
    if isinstance(factor, SpinFactor):
        return {"alpha": float(b[0]), "v": [float(c) for c in b[1:]]}
    return [[_scalar_to_obj(factor.ring, b[r, c]) for c in range(factor.n)] for r in range(factor.n)]


def element_to_obj(x: Element) -> dict:
    return {
        "type": "element",
        "algebra": algebra_to_obj(x.algebra),
        "blocks": [_block_to_obj(f, b) for f, b in zip(x.algebra.factors, x.blocks)],
    }


def _scalar_from_obj(ring: Ring, v: Any, path: str):
    if ring is Ring.REAL:
        return _number(float, v, path)
    if not isinstance(v, list) or len(v) != (2 if ring is Ring.COMPLEX else 4):
        raise SchemaError(BAD_SCHEMA, path, f"bad scalar for ring {ring.value}")
    parts = [_number(float, c, path) for c in v]
    return complex(*parts) if ring is Ring.COMPLEX else np.array(parts)


def _ring_array_from_obj(factor: HermFactor, rows: Any, path: str) -> np.ndarray:
    """An n x n array over the factor's ring from nested lists of scalars."""
    n = factor.n
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise SchemaError(SHAPE_MISMATCH, path, f"expected an {n}x{n} array")
    dtype, shape = _block_dtype_shape(factor)
    b = np.zeros(shape, dtype=dtype)
    for r in range(n):
        for c in range(n):
            b[r, c] = _scalar_from_obj(factor.ring, rows[r][c], f"{path}[{r}][{c}]")
    return b


def _herm_block_from_obj(factor: HermFactor, rows: Any, path: str) -> np.ndarray:
    b = _ring_array_from_obj(factor, rows, path)
    if not np.all(np.isfinite(b)):
        raise SchemaError(NON_FINITE, path, "non-finite entries")
    asym = _block_sup(factor, b - _adjoint_block(factor, b))
    if asym > 1e-6 * (1.0 + _block_sup(factor, b)):
        raise SchemaError(NON_HERMITIAN, path, f"asymmetry {asym:g} exceeds tolerance")
    return b


def _spin_block_from_obj(factor: SpinFactor, obj: Any, path: str) -> np.ndarray:
    alpha = _need(obj, "alpha", path)
    v = _need(obj, "v", path)
    if not isinstance(v, list) or len(v) != factor.d:
        raise SchemaError(SHAPE_MISMATCH, path, f"expected a vector of length {factor.d}")
    b = np.array([_number(float, c, path) for c in (alpha, *v)])
    if not np.all(np.isfinite(b)):
        raise SchemaError(NON_FINITE, path, "non-finite entries")
    return b


def _blocks_from_obj(alg: AlgebraDescriptor, raw: Any, path: str) -> list[np.ndarray]:
    if not isinstance(raw, list) or len(raw) != len(alg.factors):
        raise SchemaError(
            SHAPE_MISMATCH, path, f"expected {len(alg.factors)} blocks, got "
            f"{len(raw) if isinstance(raw, list) else type(raw).__name__}"
        )
    blocks = []
    for i, (f, bo) in enumerate(zip(alg.factors, raw)):
        bp = f"{path}[{i}]"
        if isinstance(f, SpinFactor):
            blocks.append(_spin_block_from_obj(f, bo, bp))
        else:
            blocks.append(_herm_block_from_obj(f, bo, bp))
    return blocks


def element_from_obj(
    obj: Any, alg: AlgebraDescriptor | None = None, path: str = "element"
) -> Element:
    _check_type_tag(obj, "element", path)
    doc_alg = algebra_from_obj(_need(obj, "algebra", path), f"{path}.algebra")
    if alg is not None and doc_alg != alg:
        raise SchemaError(SHAPE_MISMATCH, f"{path}.algebra", "element algebra differs from expected")
    blocks = _blocks_from_obj(doc_alg, _need(obj, "blocks", path), f"{path}.blocks")
    try:
        return element_from_blocks(doc_alg, blocks)
    except ShapeMismatchError as exc:
        raise SchemaError(SHAPE_MISMATCH, f"{path}.blocks", str(exc)) from exc


# --- isomorphisms -------------------------------------------------------------

def _jordan_to_obj(j: FactorJordanIso) -> dict:
    if isinstance(j.factor, SpinFactor):
        return {"O": [[float(v) for v in row] for row in j.rotation]}
    return {"u": _block_to_obj(j.factor, j.u), "tau": "conj" if j.conjugate else "id"}


def _jordan_from_obj(factor: Factor, obj: Any, path: str) -> FactorJordanIso:
    if not isinstance(obj, dict):
        raise SchemaError(BAD_SCHEMA, path, "expected an object")
    try:
        if isinstance(factor, SpinFactor):
            O = np.array(_need(obj, "O", path), dtype=float)
            return FactorJordanIso(factor, rotation=O)
        tau = obj.get("tau", "id")
        if tau not in ("id", "conj"):
            raise SchemaError(BAD_SCHEMA, f"{path}.tau", f"unknown tau {tau!r}")
        u = _ring_array_from_obj(factor, _need(obj, "u", path), f"{path}.u")
        return FactorJordanIso(factor, u=u, conjugate=(tau == "conj"))
    except ShapeMismatchError as exc:
        raise SchemaError(SHAPE_MISMATCH, path, str(exc)) from exc
    except ValueError as exc:
        if isinstance(exc, SchemaError):
            raise
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
                "z": _block_to_obj(iso.target.factors[j], f.z.block(0)),
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
                scalars.append(PwlScalarIso(tuple((float(a), float(b)) for a, b in knots)))
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
        if isinstance(factor, SpinFactor):
            zb = _spin_block_from_obj(factor, _need(eo, "z", ep), f"{ep}.z")
        else:
            zb = _herm_block_from_obj(factor, _need(eo, "z", ep), f"{ep}.z")
        z = element_from_blocks(single_factor(factor), [zb])
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

def report_to_obj(reports: list[SuiteReport] | SuiteReport) -> dict:
    if isinstance(reports, SuiteReport):
        reports = [reports]
    suites = []
    for r in reports:
        suites.append(
            {
                "suite": r.suite,
                "descriptor": r.descriptor,
                "seed": r.seed,
                "trials": r.trials,
                "tol": r.tol,
                "passed": r.passed,
                "worst_residual": r.worst_residual,
                "elapsed_seconds": r.elapsed_seconds,
                "checks": [
                    {
                        "name": c.name,
                        "tol": c.tol,
                        "passes": c.passes,
                        "fails": c.fails,
                        "worst_residual": c.worst,
                    }
                    for c in r.checks
                ],
                "data": r.data,
            }
        )
    return {"type": "report", "suites": suites}


def report_from_obj(obj: Any, path: str = "report") -> list[SuiteReport]:
    _check_type_tag(obj, "report", path)
    out = []
    for k, ro in enumerate(_list(obj, "suites", path)):
        rp = f"{path}.suites[{k}]"
        checks = tuple(
            CheckResult(
                name=str(_need(co, "name", rp)),
                tol=_field(float, co, "tol", rp),
                passes=_field(int, co, "passes", rp),
                fails=_field(int, co, "fails", rp),
                worst=_field(float, co, "worst_residual", rp),
            )
            for co in _list(ro, "checks", rp)
        )
        data = ro.get("data", {})
        if not isinstance(data, dict):
            raise SchemaError(BAD_SCHEMA, f"{rp}.data", "expected an object")
        out.append(
            SuiteReport(
                suite=str(_need(ro, "suite", rp)),
                descriptor=str(_need(ro, "descriptor", rp)),
                seed=_field(int, ro, "seed", rp),
                trials=_field(int, ro, "trials", rp),
                tol=_field(float, ro, "tol", rp),
                checks=checks,
                elapsed_seconds=_field(float, ro, "elapsed_seconds", rp),
                data=dict(data),
            )
        )
    return out


# --- generic documents ---------------------------------------------------------

def dump_document(doc) -> str:
    """Serialize a domain object to canonical JSON text."""
    if isinstance(doc, AlgebraDescriptor):
        obj = algebra_to_obj(doc)
    elif isinstance(doc, Element):
        obj = element_to_obj(doc)
    elif isinstance(doc, CompositeOrderIso):
        obj = iso_to_obj(doc)
    elif isinstance(doc, (SuiteReport, list)):
        obj = report_to_obj(doc)
    elif isinstance(doc, dict):
        obj = doc
    else:
        raise TypeError(f"cannot serialize {type(doc).__name__}")
    return json.dumps(obj, indent=1)


def load_document(text: str):
    """Parse a JSON document, dispatching on its ``type`` tag."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(BAD_SCHEMA, "$", f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(BAD_SCHEMA, "$", "top-level document must be an object")
    tag = obj.get("type")
    if tag == "algebra":
        return algebra_from_obj(obj)
    if tag == "element":
        return element_from_obj(obj)
    if tag == "iso":
        return iso_from_obj(obj)
    if tag == "report":
        return report_from_obj(obj)
    raise SchemaError(BAD_SCHEMA, "$.type", f"unknown document type {tag!r}")
