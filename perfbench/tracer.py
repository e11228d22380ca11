"""Span tracing of the effectorder layers, installed from outside the library.

``Tracer.install`` replaces every public function and method of each layer
module with a wrapper that records a span (name, start, end, parent,
request id), and rebinds the wrapper wherever another ``effectorder`` module
imported the name with ``from .x import y``.  ``numpy.linalg.eigh`` and
``eigvalsh`` are wrapped as the ``lapack`` layer.  Wrappers record only
while a request is open, so checks run between requests stay untraced.

A span's self time is its duration minus the durations of its direct
children.  Self times are kept in integer nanoseconds, so per request the
self times of all layers (plus ``bench``, the benchmark's own code) add up
exactly to the request's wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "algebra",
    "spectral",
    "quaternion",
    "isomorphisms",
    "order",
    "sampling",
    "harness",
    "serialization",
)
# Two more layers take self time: ``lapack`` (the eigensolver calls) and
# ``bench`` (the benchmark's own code inside a request: the untraced remainder).

# Dunder methods that do library work worth a span of their own.
_DUNDER_SPANS = ("__init__", "__call__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__")


def _proj_bytes(dec) -> int:
    return sum(b.nbytes for p in dec.projections for b in p.blocks)


def _one(args, result, duration) -> int:
    return 1


def _trials(args, result, duration) -> int:
    return result.trials


def _eig_dim3(args, result, duration) -> int:
    return args[0].shape[-1] ** 3


# Counters kept at a span's boundary: span name -> ((counter, amount), ...),
# where amount(args, result, duration_ns) is added when the call returns.
_COUNTERS = {
    "spectral.spectral_decompose": (
        ("spectral.decompositions", _one),
        ("spectral.proj_bytes", lambda a, r, d: _proj_bytes(r)),
    ),
    "lapack.eigh": (("spectral.eigensolves", _one), ("spectral.eigensolve_dim3", _eig_dim3)),
    "lapack.eigvalsh": (("spectral.eigensolves", _one), ("spectral.eigensolve_dim3", _eig_dim3)),
    "isomorphisms.FactorOrderIso.__init__": (("isomorphisms.factor_isos_built", _one),),
    "isomorphisms.recover_factor_iso": (("recover_ns", lambda a, r, d: d),),
    "harness.run_identity_suite": (("harness.trials", _trials),),
    "harness.run_interval_suite": (("harness.trials", _trials),),
    "harness.run_order_iso_suite": (("harness.trials", _trials),),
    "serialization.load_document": (("serialization.doc_bytes", lambda a, r, d: len(a[0].encode())),),
    "serialization.dump_document": (("serialization.doc_bytes", lambda a, r, d: len(r.encode())),),
    "bench.probe": (("isomorphisms.probe_calls", _one), ("probe_ns", lambda a, r, d: d)),
}


class Tracer:
    """Records spans and per-layer counters of the requests it is told about."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.requests: list[dict] = []
        self._stack: list[list] = []
        self._request = -1
        self._self_ns: Counter = Counter()
        self._counts: Counter = Counter()
        self._next_span = 0

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_request(self) -> None:
        self._request = len(self.requests)
        self._self_ns = Counter()
        self._counts = Counter()
        self._enter(self._name_id("bench.request"), "bench")

    def end_request(self) -> None:
        frame = self._stack[-1]
        wall_ns = self._exit(frame, "bench", failed=False)
        self.requests.append(
            {"wall_ns": wall_ns, "self_ns": dict(self._self_ns), "counts": dict(self._counts)}
        )
        self._request = -1

    def _enter(self, nid: int, layer: str) -> list:
        frame = [nid, self._next_span, perf_counter_ns(), 0, layer]
        self._next_span += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, layer: str, failed: bool) -> int:
        end = perf_counter_ns()
        nid, span_id, start, child_ns, _ = frame
        self._stack.pop()
        duration = end - start
        self_ns = duration - child_ns
        if self_ns < 0:
            self._counts["negative_self"] += 1
        self._self_ns[layer] += self_ns
        if layer in LAYERS:
            self._counts[layer + ".calls"] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if failed and (parent is None or parent[4] != layer):
            self._counts[layer + ".errors"] += 1
        self.spans.append(
            (self._request, span_id, parent[1] if parent else -1, nid, start, end)
        )
        return duration

    def span(self, fn, name: str, layer: str):
        """Wrap ``fn`` in a span named ``name``, adding its ``_COUNTERS``."""
        nid = self._name_id(name)
        counters = _COUNTERS.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._request < 0:
                return fn(*args, **kwargs)
            frame = self._enter(nid, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, layer, failed=True)
                raise
            duration = self._exit(frame, layer, failed=False)
            for key, amount in counters:
                self._counts[key] += amount(args, result, duration)
            return result

        return traced

    def probe(self, fn):
        """Wrap a black-box callback handed to the library."""
        return self.span(fn, "bench.probe", "bench")

    # -- installation ----------------------------------------------------------

    def install(self, package, linalg) -> None:
        """Wrap the layers of ``package`` (effectorder) and ``linalg``'s
        eigensolvers.  Irreversible: call it in a process that traces last."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            # not getattr(package, layer): the package's ``algebra`` is a function
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.span(obj, f"{layer}.{name}", layer)
                    setattr(module, name, wrapped)
                    originals[id(obj)] = wrapped
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        # rebind names imported with ``from .x import y`` elsewhere in the package
        prefix = package.__name__ + "."
        modules = [package] + [m for n, m in list(sys.modules.items()) if n.startswith(prefix)]
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapped = originals.get(id(obj))
                if wrapped is not None:
                    setattr(module, name, wrapped)
        linalg.eigh = self.span(linalg.eigh, "lapack.eigh", "lapack")
        linalg.eigvalsh = self.span(linalg.eigvalsh, "lapack.eigvalsh", "lapack")

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if not inspect.isfunction(val):
                continue
            if attr.startswith("_") and attr not in _DUNDER_SPANS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name == "algebra.Element.__init__":
                # one per element built: a counter, a span would dwarf it
                def counted(*args, _init=val, **kwargs):
                    if self._request >= 0:
                        self._counts["algebra.elements_built"] += 1
                    return _init(*args, **kwargs)

                setattr(cls, attr, functools.wraps(val)(counted))
                continue
            setattr(cls, attr, self.span(val, name, layer))

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, ms_scale: float = 1.0) -> dict[str, float]:
        """Per-request means of every per-layer metric over the traced
        requests; times are multiplied by ``ms_scale``."""
        n = len(self.requests)
        self_ns: Counter = Counter()
        counts: Counter = Counter()
        for r in self.requests:
            self_ns.update(r["self_ns"])
            counts.update(r["counts"])
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = counts[layer + ".calls"] / n
            out[f"{layer}.self_ms"] = self_ns[layer] / n / 1e6 * ms_scale
            out[f"{layer}.errors"] = counts[layer + ".errors"] / n
        for key in (
            "algebra.elements_built",
            "spectral.decompositions",
            "spectral.eigensolves",
            "spectral.proj_bytes",
            "spectral.eigensolve_dim3",
            "isomorphisms.factor_isos_built",
            "isomorphisms.probe_calls",
            "harness.trials",
            "serialization.doc_bytes",
        ):
            out[key] = counts[key] / n
        out["spectral.eigensolve_ms"] = self_ns["lapack"] / n / 1e6 * ms_scale
        out["isomorphisms.probe_share"] = (
            counts["probe_ns"] / counts["recover_ns"] if counts["recover_ns"] else 0.0
        )
        out["trace.unattributed_ms"] = self_ns["bench"] / n / 1e6 * ms_scale
        return out

    def accounting_errors(self) -> list[str]:
        """Requests whose layer self times do not add up to their wall time."""
        bad = []
        for i, r in enumerate(self.requests):
            total = sum(r["self_ns"].values())
            if total != r["wall_ns"]:
                bad.append(f"request {i}: self times sum to {total} ns, wall {r['wall_ns']} ns")
            if r["counts"].get("negative_self") or min(r["self_ns"].values()) < 0:
                bad.append(f"request {i}: a span has a negative self time")
        return bad

    def write(self, path, meta: dict) -> None:
        """Write every span, as gzipped JSON, with the run's metadata."""
        doc = {
            "meta": meta,
            "names": self.names,
            "span_fields": ["request", "span", "parent", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "requests": self.requests,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
