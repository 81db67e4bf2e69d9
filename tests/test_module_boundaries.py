"""Only ``cobcalc.series`` reads packed keys, no module imports
another's private helpers, and the package exports exactly what it imports.

Every other module of the package works on series through the public API
of ``series``: none of them reads a series' private state or the packed
key layout of a context.  No module of the package imports a ``_``-prefixed
name from a sibling module.  ``cobcalc/__init__.py`` imports a public name
only to list it in ``__all__``, and every name listed there resolves.
``cli`` draws nothing itself: it imports no sampler, and runs the seeded
suites of ``selftest``.  Only ``fgl`` pairs a law's kind with its
coefficient ring and builds a ``FormalGroupLaw``: every other module asks
``fgl`` for the law or context.  Only ``cli.run`` writes a report's
header and the options it echoes: no ``_run_*`` job body writes a
``schema`` or ``caps`` key, nor the key an ``Option.report`` declares.
"""

import ast
from pathlib import Path

import pytest

from cobcalc.cli import SUBCOMMANDS

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


def test_every_exported_name_resolves():
    import cobcalc

    assert [name for name in cobcalc.__all__ if not hasattr(cobcalc, name)] == []


def test_the_package_imports_no_public_name_it_does_not_export():
    import cobcalc

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert sorted(name for name in imported - set(cobcalc.__all__) if not name.startswith("_")) == []


SAMPLERS = {"random_series", "random_monomial"}


def _names(source: str) -> set:
    """Every name ``source`` imports, reads or reads off another name."""
    return {
        name for node in ast.walk(ast.parse(source))
        for name in ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
    }


def test_names_are_found():
    source = "from .selftest import random_series\nfrom . import selftest\nselftest.random_monomial\n"
    assert _names(source) >= SAMPLERS


def test_the_cli_draws_nothing_itself():
    assert _names((PACKAGE / "cli.py").read_text()) & SAMPLERS == set()


NOT_FGL = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "fgl.py"]


@pytest.mark.parametrize("path", NOT_FGL, ids=lambda p: p.name)
def test_only_fgl_pairs_a_kind_with_its_coefficient_ring(path):
    assert "COEFF_KIND_FOR" not in _names(path.read_text())


def _calls(source: str, name: str) -> list:
    """The lines of ``source`` that call ``name``, bare or off another name."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


# the keys only `cli.run` writes: the header, and the key of each echoed option
RUN_KEYS = {"schema", "caps"} | {
    o.report for row in SUBCOMMANDS.values() for o in row.options if o.report
}


def _header_writes(source: str) -> list:
    """``function key`` for each key of `RUN_KEYS` in a ``_run_*`` function."""
    return [
        f"{fn.name} {node.value}" for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_run_")
        for node in ast.walk(fn) if isinstance(node, ast.Constant) and node.value in RUN_KEYS
    ]


def test_law_calls_and_header_writes_are_found():
    source = "def _run_x(c):\n    law = fgl.FormalGroupLaw(1)\n    return {'caps': FormalGroupLaw(2)}\n"
    assert _calls(source, "FormalGroupLaw") == [2, 3]
    assert _header_writes(source) == ["_run_x caps"]
    assert _header_writes("def run(c):\n    c['schema'] = 1\n") == []
    assert _header_writes("def _run_y(c):\n    return {'seed': c.seed, 'fgl': 1}\n") == [
        "_run_y seed", "_run_y fgl"]
    assert RUN_KEYS == {"schema", "caps", "kind", "fgl", "torder", "samples", "rank",
                        "base_vars", "levels", "seed"}


@pytest.mark.parametrize("path", NOT_FGL, ids=lambda p: p.name)
def test_only_fgl_builds_a_law(path):
    assert _calls(path.read_text(), "FormalGroupLaw") == []


def test_no_job_body_writes_the_report_header():
    assert _header_writes((PACKAGE / "cli.py").read_text()) == []
