"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest -q perfbench/selftest.py

They show that a fast but wrong library cannot post a clean result, that a
seed fixes the inputs and every count, that traced self times add up to
each request's wall time, and that the benchmark refuses to run without
the library's sources.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("map_small_mixed", "map_large_factor", "recover_docs", "verify_suites")

# counts the determinism test requires to repeat exactly under one seed
NAMED_COUNTS = (
    "algebra.elements_built",
    "spectral.decompositions",
    "spectral.eigensolves",
    "isomorphisms.probe_calls",
    "harness.trials",
)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def tagged(proc: subprocess.CompletedProcess, tag: str) -> dict:
    prefix = f"# {tag} "
    return next(json.loads(ln[len(prefix):]) for ln in proc.stdout.splitlines() if ln.startswith(prefix))


def test_wrong_inverse_fails_every_request(monkeypatch):
    """inverse_apply off by 1e-3 e: every round trip fails its check."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import bench
    import effectorder as eo

    clean = bench.run("map_small_mixed", seed=1, seconds=0.5, trace=False)
    assert clean["correct"] and clean["failed"] == 0 and clean["attempted"] > 0

    original = eo.CompositeOrderIso.inverse_apply

    def off_by_a_little(self, y):
        x = original(self, y)
        return x + 1e-3 * eo.unit(x.algebra)

    monkeypatch.setattr(eo.CompositeOrderIso, "inverse_apply", off_by_a_little)
    broken = bench.run("map_small_mixed", seed=1, seconds=0.5, trace=False)
    assert broken["failed"] / broken["attempted"] == 1.0  # error_rate
    assert not broken["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs_and_counts(workload):
    args = ("--workload", workload, "--seconds", "0.2", "--trace", "1")
    first, again, other = (run_bench(*args, "--seed", s) for s in ("7", "7", "8"))
    a, b = result_of(first), result_of(again)
    result_of(other)
    assert tagged(first, "inputs")["sha256"] == tagged(again, "inputs")["sha256"]
    assert tagged(first, "inputs")["sha256"] != tagged(other, "inputs")["sha256"]
    counts = [k for k, m in a["metrics"].items() if m["unit"] in ("count", "B")]
    assert set(NAMED_COUNTS) <= set(counts)
    assert {k: a["metrics"][k]["value"] for k in counts} == {k: b["metrics"][k]["value"] for k in counts}


def test_self_times_add_up_to_wall_time():
    proc = run_bench("--workload", "map_small_mixed", "--seed", "3", "--seconds", "0.2", "--trace", "1")
    assert result_of(proc)["correct"], proc.stderr
    with gzip.open(ROOT / tagged(proc, "spans")["path"], "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    child_ns = defaultdict(int)
    parent_of, name_of = {}, {}
    for _, span, parent, nid, start, end in doc["spans"]:
        child_ns[parent] += end - start
        parent_of[span], name_of[span] = parent, names[nid]
    per_request = defaultdict(lambda: defaultdict(int))
    walls = {}
    for request, span, parent, nid, start, end in doc["spans"]:
        self_ns = end - start - child_ns[span]
        assert self_ns >= 0, names[nid]
        per_request[request][names[nid].split(".")[0]] += self_ns
        if parent < 0:
            walls[request] = end - start
    assert len(walls) == len(doc["requests"]) > 0
    for request, layers in per_request.items():
        assert sum(layers.values()) == walls[request] == doc["requests"][request]["wall_ns"]
        assert dict(layers) == doc["requests"][request]["self_ns"]

    # the nesting FactorOrderIso.apply -> apply_function -> spectral_decompose -> eigh
    chain = ["lapack.eigh", "spectral.spectral_decompose", "spectral.apply_function",
             "isomorphisms.FactorOrderIso.apply"]

    def ancestors(span):
        while span >= 0:
            yield name_of[span]
            span = parent_of[span]

    assert any(
        [n for n in ancestors(s) if n in chain][:4] == chain
        for s, n in name_of.items() if n == "lapack.eigh"
    )


def test_refuses_without_library_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("--workload", "map_small_mixed", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())
    finally:
        shutil.rmtree(bare)
