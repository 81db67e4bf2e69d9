"""Only ``cobcalc.series`` reads packed keys.

Every other module of the package works on series through the public API
of ``series``: none of them reads a series' private state or the packed
key layout of a context, and none imports a private name of ``series``.
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
    imports = [
        f"{path.name}:{node.lineno} {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").rsplit(".", 1)[-1] == "series"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert reads == [] and imports == []
