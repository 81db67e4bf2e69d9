"""Every function that ``perfbench/tracer.py`` wraps by name must exist.

The tracer replaces ``cobcalc.<module>.<name>`` for each name in its
``TARGETS``; a name deleted from the package would break
``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_is_a_function_of_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for short, names in tracer.TARGETS.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{short}.{name}"
