"""Command-line interface.

Subcommands: verify, apply, invert, recover, random, demo-counterexample.
Exit codes: 0 success, 1 validation failure, 2 verification-suite failure.
Reports go to stdout, diagnostics to stderr; all randomness is seeded, so
output is deterministic up to the elapsed-time fields.
"""

from __future__ import annotations

import argparse
import shlex
import sys

import numpy as np

from .algebra import HermFactor, Ring, element_in_factor
from .harness import (
    counterexample_report,
    render_report,
    run_identity_suite,
    run_interval_suite,
    run_order_iso_suite,
    scalar_oracle_compare,
)
from .isomorphisms import (
    CompositeOrderIso, FactorOrderIso, RecoveryError, identity_jordan, recover_factor_iso
)
from .sampling import SAMPLE_CLASSES, random_element
from .serialization import _TYPES, SchemaError, _parse, dump_document


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _load_typed(path: str, expected: str):
    """Parse a document of a known type; the ``type`` tag is optional in
    typed contexts but must match when present."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    _, _, read = _TYPES[expected]
    return read(_parse(text, f" in {path}"))


def _cmd_verify(args: argparse.Namespace) -> int:
    alg = _load_typed(args.algebra, "algebra")
    target = _load_typed(args.target, "algebra") if args.target else alg
    # the interval and order_iso suites run half the trials, so their
    # trial k is replayed with --trials 2(k+1)
    halved = max(args.trials // 2, 1)
    seeded = [
        (run_identity_suite(alg, seed=args.seed, trials=args.trials, tol=args.tol), 1),
        (run_interval_suite(alg, seed=args.seed, trials=halved, tol=args.tol), 2),
        (run_order_iso_suite(alg, target, seed=args.seed, trials=halved, tol=args.tol), 2),
    ]
    factor = HermFactor(1, Ring.REAL)
    oracle_iso = FactorOrderIso(
        0.5, element_in_factor(factor, np.array([[2.0]])), identity_jordan(factor)
    )
    reports = [r for r, _ in seeded] + [scalar_oracle_compare(2001, oracle_iso)]
    for r in reports:
        print(render_report(r))
    for r, per_trial in seeded:
        if not r.passed:
            k = max(c.worst_trial for c in r.checks if c.fails)
            replay = ["effectorder", "verify", "--algebra", args.algebra]
            replay += ["--target", args.target] if args.target else []
            replay += ["--seed", str(args.seed), "--trials", str(per_trial * (k + 1))]
            replay += ["--tol", repr(args.tol)]
            print(f"replay {r.suite}: {shlex.join(replay)}", file=sys.stderr)
    if args.out:
        _write(args.out, dump_document(reports))
    return 0 if all(r.passed for r in reports) else 2


def _cmd_apply(args: argparse.Namespace) -> int:
    iso = _load_typed(args.iso, "iso")
    x = _load_typed(args.in_path, "element")
    y = iso.inverse_apply(x) if args.backward else iso.apply(x)
    _write(args.out, dump_document(y))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    iso = _load_typed(args.iso, "iso")
    if len(iso.source.factors) != 1 or len(iso.engaged_pairs) != 1:
        print(
            "error[BAD_SCHEMA]: recover expects an iso with a single engaged factor",
            file=sys.stderr,
        )
        return 1
    recovered = recover_factor_iso(iso.apply, iso.source, iso.target, seed=args.seed)
    out_iso = CompositeOrderIso(
        source=iso.source,
        target=iso.target,
        sigma=(),
        scalar_isos=(),
        engaged_pairs=((0, 0),),
        engaged_isos=(recovered,),
    )
    _write(args.out, dump_document(out_iso))
    print(f"recovered t={recovered.t:.12g}")
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    alg = _load_typed(args.algebra, "algebra")
    x = random_element(alg, args.seed, args.cls)
    _write(args.out, dump_document(x))
    return 0


def _cmd_demo_counterexample(args: argparse.Namespace) -> int:
    report = counterexample_report(args.n)
    print(render_report(report))
    if args.out:
        _write(args.out, dump_document(report))
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effectorder",
        description="Euclidean Jordan algebras and order isomorphisms of effect algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the verification suites on an algebra")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--algebra", required=True)
    p.add_argument("--target", default=None, help="target algebra for the order-iso suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None, help="write a machine-readable report")

    for name, backward, help_ in (
        ("apply", False, "apply a serialized order isomorphism"),
        ("invert", True, "apply the inverse of a serialized isomorphism"),
    ):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=_cmd_apply, backward=backward)
        p.add_argument("--iso", required=True)
        p.add_argument("--in", dest="in_path", required=True)
        p.add_argument("--out", required=True)

    p = sub.add_parser("recover", help="recover closed-form parameters by probing")
    p.set_defaults(run=_cmd_recover)
    p.add_argument("--iso", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("random", help="draw a seeded random element")
    p.set_defaults(run=_cmd_random)
    p.add_argument("--algebra", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--class", dest="cls", default="general", choices=SAMPLE_CLASSES)
    p.add_argument("--out", required=True)

    p = sub.add_parser("demo-counterexample", help="coordinate squeeze map on a sum of lines")
    p.set_defaults(run=_cmd_demo_counterexample)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.run(args)
    except SchemaError as exc:
        print(f"error[{exc.code}] {exc.path}: {exc.message}", file=sys.stderr)
        return 1
    except (ValueError, RecoveryError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
