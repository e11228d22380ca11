"""Benchmark of the effectorder library.

Four closed-loop workloads, one client each, every one in its own process:

    map_small_mixed    apply + inverse_apply on a seven-factor algebra of tiny blocks
    map_large_factor   the same on herm(96,R) + herm(48,C)
    recover_docs       parse an ISO document, recover (t, z, J) from a black box, emit it
    verify_suites      one seeded verification suite per request

Run from the repository root:

    python3 perfbench/run.py --workload map_small_mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5             # every workload, one table
    python3 perfbench/run.py --workload recover_docs --trace 1      # per-layer metrics
    python3 -m pytest -q perfbench/selftest.py                      # the benchmark's own tests

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` the per-layer
metrics of a traced pass, whose spans go to ``.perfbench/``.  Every output
is checked; the last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BLAS threads of every benchmark process.  One client sends one request at
# a time on matrices of order <= 96, where extra BLAS threads only add
# scheduling noise on a shared machine.
BLAS_THREADS = 1
WORKLOAD_NAMES = ("map_small_mixed", "map_large_factor", "recover_docs", "verify_suites")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process of its own, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    print()
    print(f"{'metric':<32}" + "".join(f"{w:>18}" for w in results))
    for m in names:
        unit = next(iter(results.values()))["metrics"][m]["unit"]
        print(f"{m + ' [' + unit + ']':<32}" + "".join(
            f"{r['metrics'][m]['value']:>18.6g}" for r in results.values()))
    print(f"{'error_rate [failed/attempted]':<32}" + "".join(
        f"{r['failed'] / r['attempted']:>18.6g}" for r in results.values()))
    print(f"{'correct':<32}" + "".join(f"{str(r['correct']):>18}" for r in results.values()))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "effectorder" / "__init__.py").is_file():
        print(f"perfbench: no effectorder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # before numpy loads, in this process and every process it starts
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
