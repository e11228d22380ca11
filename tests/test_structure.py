"""Structure guards: what a factor kind is lives in its kind class alone, and
every LAPACK call in ``_lapack``."""

import importlib
import inspect
import re
from pathlib import Path

from conftest import FACTOR_KINDS

# the module, not the package's ``algebra`` constructor
algebra_module = importlib.import_module("effectorder.algebra")
SRC = Path(algebra_module.__file__).resolve().parent

# a line that asks which kind a factor is, or which ring it has
KIND_BRANCH = re.compile(
    r"isinstance\([a-z_.]+, (SpinFactor|HermFactor)\)|\.ring (is|is not|==) Ring\.|ring (is|is not) Ring\."
)
MAX_KIND_BRANCHES = 5

# a line that names numpy.linalg, which only ``_lapack`` may
NUMPY_LINALG = re.compile(r"\b(np|numpy)\.linalg\b|from numpy import .*\blinalg\b")


def kind_classes():
    """Every kind class of ``algebra``: the classes that own a block's eigensolve."""
    return {
        obj
        for obj in vars(algebra_module).values()
        if inspect.isclass(obj) and obj.__module__ == algebra_module.__name__ and hasattr(obj, "eigh")
    }


def test_modules_branch_on_no_factor_kind():
    lines = [
        f"{path.name}:{k}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if KIND_BRANCH.search(line)
    ]
    assert len(lines) <= MAX_KIND_BRANCHES, "lines that branch on the factor kind:\n" + "\n".join(lines)


def test_factor_kinds_reach_every_kind_class():
    reached = {type(f._kind) for f in FACTOR_KINDS}
    assert reached == kind_classes(), f"kinds without a FACTOR_KINDS entry: {kind_classes() - reached}"


def test_only_lapack_names_numpy_linalg():
    lines = [
        f"{path.name}:{k}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "_lapack.py"
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if NUMPY_LINALG.search(line)
    ]
    assert not lines, "lines that name numpy.linalg outside _lapack.py:\n" + "\n".join(lines)
