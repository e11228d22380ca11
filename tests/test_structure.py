"""Structure guards: what a factor kind is lives in its kind class alone, every
LAPACK call in ``_lapack``, every spectral membership test in ``spectral``, and
a map's direction in the record a kind's ``solve`` runs, not in a flag."""

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
MAX_KIND_BRANCHES = 0

# a line that names numpy.linalg, which only ``_lapack`` may
NUMPY_LINALG = re.compile(r"\b(np|numpy)\.linalg\b|from numpy import .*\blinalg\b")

# a line that names numpy's private modules or error-state internals, which only
# ``_lapack`` may
NUMPY_PRIVATE = re.compile(r"\b(np|numpy)\._core\b|\b(_umath_linalg|_extobj_contextvar|_make_extobj)\b")

# a call of a kind's ``within``, which only the group loop of ``spectral`` makes,
# and a per-block mode that the kinds no longer have
KIND_WITHIN = re.compile(r"\.within\(")
EACH_ARGUMENT = re.compile(r"\beach=")


def kind_classes():
    """Every kind class of ``algebra``: the classes that own a block's eigensolve."""
    return {
        obj
        for obj in vars(algebra_module).values()
        if inspect.isclass(obj) and obj.__module__ == algebra_module.__name__ and hasattr(obj, "eigh")
    }


def src_lines(pattern, skip=()):
    """Each line of the modules of ``src/effectorder`` but ``skip`` that pattern matches."""
    return [
        f"{path.name}:{k}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in skip
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


def test_modules_branch_on_no_factor_kind():
    lines = src_lines(KIND_BRANCH)
    assert len(lines) <= MAX_KIND_BRANCHES, "lines that branch on the factor kind:\n" + "\n".join(lines)


def test_factor_kinds_reach_every_kind_class():
    reached = {type(f._kind) for f in FACTOR_KINDS}
    assert reached == kind_classes(), f"kinds without a FACTOR_KINDS entry: {kind_classes() - reached}"


def test_only_lapack_names_numpy_linalg():
    lines = src_lines(NUMPY_LINALG, skip=("_lapack.py",))
    assert not lines, "lines that name numpy.linalg outside _lapack.py:\n" + "\n".join(lines)


def test_only_lapack_names_numpys_private_names():
    lines = src_lines(NUMPY_PRIVATE, skip=("_lapack.py",))
    assert not lines, "lines that name numpy's private names outside _lapack.py:\n" + "\n".join(lines)


def test_only_spectral_calls_a_kinds_within():
    lines = src_lines(KIND_WITHIN, skip=("spectral.py",))
    assert not lines, "lines that call a kind's within outside spectral.py:\n" + "\n".join(lines)


def test_no_line_passes_each():
    lines = src_lines(EACH_ARGUMENT)
    assert not lines, "lines that pass each=:\n" + "\n".join(lines)


def test_no_kind_method_takes_a_forward_flag():
    # a kind's pencils returns both directions as records, and its solve runs either one
    methods = [
        f"{cls.__name__}.{name}"
        for cls in kind_classes()
        for name, fn in inspect.getmembers(cls, inspect.isfunction)
        if "forward" in inspect.signature(fn).parameters
    ]
    assert not methods, "kind methods with a forward parameter:\n" + "\n".join(sorted(methods))
