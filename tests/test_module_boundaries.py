"""Only ``cobcalc.series`` reads packed keys, and no module imports
another's private helpers.

Every other module of the package works on series through the public API
of ``series``: none of them reads a series' private state or the packed
key layout of a context.  No module of the package imports a ``_``-prefixed
name from a sibling module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cobcalc"

# the packed-key layout of a context and the private state of a series
PRIVATE_ATTRIBUTES = {"_layout", "_raw", "_terms", "_den", "_graded"}

MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "series.py")


def test_the_package_has_modules_besides_series():
    assert {p.name for p in MODULES} >= {"fgl.py", "bundles.py", "equivariant.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_but_series_reads_packed_keys(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_ATTRIBUTES
    ]
    assert reads == []


def _private_imports(source: str) -> list:
    """The ``_``-prefixed names ``source`` takes from a module of the
    package: imported by name, or read off a name it imports from the
    package (a sibling module, or a class of one)."""
    tree = ast.parse(source)
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "cobcalc")
    ]
    imported = {alias.asname or alias.name for node in imports for alias in node.names}
    return [
        f"{node.lineno} {alias.name}" for node in imports for alias in node.names
        if alias.name.startswith("_")
    ] + [
        f"{node.lineno} {node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and isinstance(node.value, ast.Name) and node.value.id in imported
    ]


def test_private_imports_are_found():
    source = "from .series import _Layout, RingContext\nfrom . import linalg\nlinalg._pivot(RingContext)\n"
    assert _private_imports(source) == ["1 _Layout", "3 linalg._pivot"]
    assert _private_imports("from fractions import _gcd\nfrom .series import Monomial\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_a_sibling(path):
    assert _private_imports(path.read_text()) == []
