"""Every function that ``perfbench/tracer.py`` wraps by name must exist, and
the tracer must run over small jobs in this process.

The tracer replaces ``cobcalc.<module>.<name>`` for each name in its
``TARGETS``; a name deleted from the package would break
``perfbench/run.py --trace 1`` without failing any other test.  Its size
hooks read the arguments of the traced calls by position, so a changed
signature breaks them only when they run.
"""

import importlib
import importlib.util
from pathlib import Path

from cobcalc import cli, equivariant, series
from cobcalc.fgl import build_fgl

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# one small job of each route the benchmark traces
ARGV = [
    ["fgl", "check", "--kind", "universal", "--max-t", "6", "--max-w", "5"],
    ["bg", "--group", "GL3", "--fgl", "universal", "--deg", "0..3", "--torder", "3",
     "--max-t", "3", "--max-w", "2", "--emit-basis"],
    ["tower", "bgm", "--fgl", "universal", "--deg", "0..3", "--levels", "6", "--max-t", "4",
     "--max-w", "3"],
    ["sif", "--samples", "2"],
    ["flag", "--group", "B2", "--pairs", "2"],
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_is_a_function_of_its_module():
    tracer = load_tracer()
    for short, names in tracer.TARGETS.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{short}.{name}"


def test_the_tracer_runs_small_jobs_and_restores_the_package(capsys):
    tracer = load_tracer().Tracer()
    law = build_fgl("universal-rational", 4, 3)
    group = equivariant.preset("B2").weyl
    ctx = law.context(group.rank)
    matrices = group.elements()
    tracer.install()
    try:
        statuses = [cli.main(argv) for argv in ARGV]
        basis = equivariant.invariant_basis(group, law, 1, 3)
        fixed = equivariant.fixed_basis(matrices, law, series.window_basis(ctx, 1, 3), ctx)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.restored()
    assert statuses == [0] * len(ARGV) and basis == fixed
    stats = tracer.summary()
    assert stats["cli.main"]["calls"] == len(ARGV)
    assert stats["equivariant.character_class"]["calls"] > 0
    assert stats["equivariant.character_class"]["distinct"] > 0
    assert stats["equivariant.invariant_basis"]["calls"] == 1
    assert stats["equivariant.invariant_basis"]["dim_sum"] == len(basis) > 0
    assert stats["equivariant.action_matrix"]["calls"] == len(matrices)
