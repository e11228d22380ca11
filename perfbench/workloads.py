"""The benchmark's workloads: seeded inputs, one request, and its check.

Every workload is a closed loop with one client.  ``generate`` draws all
inputs from the seed before timing starts: the documents parsed at set-up
(``setup_docs``) and a pool of requests that the timed loop cycles through.
``serve`` is one request and calls the library only through the public
``effectorder`` API, looked up at call time so that a traced run sees its
wrappers.  ``check`` verifies a request's output with numpy alone where it
can, so that a fast but wrong library cannot pass it.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass

import numpy as np

import effectorder as eo
from effectorder import HermFactor, Ring, SpinFactor

# Bound before a traced run wraps numpy.linalg: checks stay out of the trace.
_eigvalsh = np.linalg.eigvalsh

SMALL_MIXED = eo.algebra(
    HermFactor(1),
    HermFactor(1),
    HermFactor(1),
    HermFactor(4),
    HermFactor(3, Ring.COMPLEX),
    HermFactor(2, Ring.QUATERNION),
    SpinFactor(6),
)
LARGE_FACTOR = eo.algebra(HermFactor(96), HermFactor(48, Ring.COMPLEX))

# Input classes of the map workloads: clustered and degenerate spectra
# come from projections and from effects clipped at 0 and 1.
MAP_CLASSES = ("effect", "invertible_effect", "projection")

ROUNDTRIP_TOL = 1e-8
EFFECT_TOL = 1e-8
RECOVERY_TOL = 1e-6


@dataclass
class Inputs:
    setup_docs: list[str]
    requests: list
    digest: str


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _element_bytes(x) -> bytes:
    return b"".join(np.ascontiguousarray(b).tobytes() for b in x.blocks)


# --- checks, independent of the library's spectral code ----------------------

def _spectrum(factor, block: np.ndarray) -> np.ndarray:
    if isinstance(factor, SpinFactor):
        nv = float(np.linalg.norm(block[1:]))
        return np.array([block[0] - nv, block[0] + nv])
    if factor.ring is Ring.QUATERNION:
        z = block[..., 0] + 1j * block[..., 1]
        w = block[..., 2] + 1j * block[..., 3]
        return _eigvalsh(np.block([[z, w], [-w.conj(), z.conj()]]))
    return _eigvalsh(block)


def in_effect_interval(x, tol: float = EFFECT_TOL) -> bool:
    """Is every eigenvalue of x within [-tol, 1 + tol]?"""
    for f, b in zip(x.algebra.factors, x.blocks):
        s = _spectrum(f, b)
        if not (s[0] >= -tol and s[-1] <= 1.0 + tol):
            return False
    return True


def rel_residual(a, b) -> float:
    """Largest entry of a - b relative to 1 + the largest entry of b."""
    if a.algebra != b.algebra:
        return float("inf")
    num = max(float(np.abs(x - y).max()) for x, y in zip(a.blocks, b.blocks))
    den = 1.0 + max(float(np.abs(y).max()) for y in b.blocks)
    return num / den


# --- workloads ------------------------------------------------------------------

class MapWorkload:
    """Forward ``apply`` then ``inverse_apply`` of a composite order iso.

    A few isos are parsed once at set-up and rotated over the requests; the
    check is the round-trip residual and that the image lies in [0, e].
    """

    def __init__(self, name: str, alg, n_isos: int, pool: int, trace_requests: int):
        self.name = name
        self.alg = alg
        self.n_isos = n_isos
        self.pool = pool
        self.trace_requests = trace_requests

    def generate(self, seed: int) -> Inputs:
        rng = _rng(self.name, seed)
        docs = [
            eo.dump_document(eo.random_composite_iso(self.alg, self.alg, rng))
            for _ in range(self.n_isos)
        ]
        requests = [
            (i % self.n_isos, eo.sample_element(self.alg, rng, MAP_CLASSES[i % len(MAP_CLASSES)]))
            for i in range(self.pool)
        ]
        digest = _digest(
            [d.encode() for d in docs] + [p for k, x in requests for p in (k, _element_bytes(x))]
        )
        return Inputs(docs, requests, digest)

    def serve(self, state, request, tracer):
        k, x = request
        iso = state[k]
        y = iso.apply(x)
        return y, iso.inverse_apply(y)

    def check(self, request, output) -> bool:
        x = request[1]
        y, back = output
        return in_effect_interval(y) and rel_residual(back, x) <= ROUNDTRIP_TOL


# herm(3,C) appears twice so that the median request falls inside one
# kind's latency band instead of in the gap between two kinds.
RECOVER_ROTATION = (
    HermFactor(4),
    HermFactor(3, Ring.COMPLEX),
    HermFactor(2, Ring.QUATERNION),
    SpinFactor(6),
    HermFactor(3, Ring.COMPLEX),
)


class RecoverWorkload:
    """``effectorder recover`` as a request: parse an ISO document with one
    engaged factor, recover (t, z, J) from its ``apply`` as a black box, and
    emit the recovered document.  The check parses that output and compares
    it with the source map on held-out effects."""

    name = "recover_docs"
    pool = 120
    trace_requests = 10
    held_out = 2

    def generate(self, seed: int) -> Inputs:
        rng = _rng(self.name, seed)
        requests = []
        parts = []
        for i in range(self.pool):
            factor = RECOVER_ROTATION[i % len(RECOVER_ROTATION)]
            alg = eo.single_factor(factor)
            iso = eo.CompositeOrderIso(alg, alg, (), (), ((0, 0),), (eo.random_factor_iso(factor, rng),))
            text = eo.dump_document(iso)
            xs = [eo.sample_element(alg, rng, "effect") for _ in range(self.held_out)]
            refs = [iso.apply(x) for x in xs]
            probe_seed = int(rng.integers(2**31))
            requests.append((text, probe_seed, xs, refs))
            parts += [text.encode(), probe_seed] + [_element_bytes(x) for x in xs]
        return Inputs([], requests, _digest(parts))

    def serve(self, state, request, tracer):
        text, probe_seed = request[0], request[1]
        src = eo.load_document(text)
        g = src.apply if tracer is None else tracer.probe(src.apply)
        rec = eo.recover_factor_iso(g, src.source, src.target, seed=probe_seed)
        out = eo.CompositeOrderIso(src.source, src.target, (), (), ((0, 0),), (rec,))
        return eo.dump_document(out)

    def check(self, request, output) -> bool:
        _, _, xs, refs = request
        got = eo.load_document(output)
        return all(rel_residual(got.apply(x), ref) <= RECOVERY_TOL for x, ref in zip(xs, refs))


class VerifyWorkload:
    """One seeded verification suite per request, rotating over the three
    suites on the small mixed algebra; the check is ``report.passed``.

    Trial counts make the three suites cost about the same at the seed
    commit, so that the median request moves with any of them.
    """

    name = "verify_suites"
    pool = 48
    trace_requests = 6
    trials = (("run_identity_suite", 3), ("run_interval_suite", 1), ("run_order_iso_suite", 1))

    def generate(self, seed: int) -> Inputs:
        rng = _rng(self.name, seed)
        requests = [
            (*self.trials[i % len(self.trials)], int(rng.integers(2**31)))
            for i in range(self.pool)
        ]
        doc = eo.dump_document(SMALL_MIXED)
        return Inputs([doc], requests, _digest([doc.encode(), *requests]))

    def serve(self, state, request, tracer):
        suite, trials, seed = request
        return getattr(eo, suite)(state[0], seed=seed, trials=trials)

    def check(self, request, output) -> bool:
        return output.passed and output.trials == request[1]


WORKLOADS = {
    w.name: w
    for w in (
        MapWorkload("map_small_mixed", SMALL_MIXED, n_isos=4, pool=96, trace_requests=24),
        MapWorkload("map_large_factor", LARGE_FACTOR, n_isos=2, pool=12, trace_requests=6),
        RecoverWorkload(),
        VerifyWorkload(),
    )
}
