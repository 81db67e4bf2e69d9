"""Span tracing of cobcalc's public functions, installed from outside the package.

Each traced function is replaced by a wrapper at every module namespace that
bound it at import (``from .series import substitute`` makes a second binding
in ``fgl``, ``equivariant``, ``bundles``, ...), so calls through any of those
names are seen.  Spans ``(name, start, end, parent)`` are kept in memory; self
time, counts and the size counters are derived from them once the job ends.
"""

from __future__ import annotations

import copy
import sys
from time import perf_counter

PACKAGE = "cobcalc"

# module -> public functions traced in it; these are the layer boundaries
TARGETS = {
    "series": ("series_mul", "substitute", "series_add"),
    "fgl": ("build_fgl", "verify_fgl_axioms", "compositional_inverse", "fgl_sum", "n_series"),
    "equivariant": ("character_class", "weyl_apply", "action_matrix", "invariant_basis"),
    "linalg": ("rref", "mat", "mat_mul", "column_space", "nullspace"),
    "bundles": ("pb_mul", "pb_substitute", "reduce_coords", "thom_class"),
    "towers": ("projective_space_tower", "stabilization_index", "inverse_limit_dims"),
    "cli": ("main",),
}

# size counters kept per function, with their starting values; a set counts
# distinct elements
SIZE_COUNTERS = {
    "series.series_mul": {"pairs": 0, "terms_out": 0, "peak_terms": 0},
    "equivariant.character_class": {"distinct": set()},
    "equivariant.invariant_basis": {"dim_sum": 0},
    "linalg.rref": {"cells": 0, "max_rows": 0, "max_cols": 0, "rank_sum": 0},
}


def _series_mul_sizes(counters, args, result):
    a, b = args[0], args[1]
    counters["pairs"] += len(a._terms) * len(b._terms)
    n = len(result._terms)
    counters["terms_out"] += n
    counters["peak_terms"] = max(counters["peak_terms"], n)


def _character_class_sizes(counters, args, result):
    law, char = args[0], args[1]
    ctx = args[2] if len(args) > 2 else None
    counters["distinct"].add((id(law), tuple(int(c) for c in char), ctx))


def _invariant_basis_sizes(counters, args, result):
    counters["dim_sum"] += len(result)


def _rref_sizes(counters, args, result):
    rows = args[0]
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    counters["cells"] += n_rows * n_cols
    counters["max_rows"] = max(counters["max_rows"], n_rows)
    counters["max_cols"] = max(counters["max_cols"], n_cols)
    counters["rank_sum"] += len(result[1])


SIZE_HOOKS = {
    "series.series_mul": _series_mul_sizes,
    "equivariant.character_class": _character_class_sizes,
    "equivariant.invariant_basis": _invariant_basis_sizes,
    "linalg.rref": _rref_sizes,
}


class Tracer:
    """Installs span-recording wrappers on the loaded ``cobcalc`` modules."""

    def __init__(self):
        self.names: list = []  # span name by id
        self.spans: list = []  # (name_id, start, end, parent_index)
        self.counters: dict = {}
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    @staticmethod
    def _modules():
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        hook = SIZE_HOOKS.get(name)
        counters = self.counters[name] = {
            k: copy.copy(v) for k, v in SIZE_COUNTERS.get(name, {}).items()
        }

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if hook is not None:
                hook(counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper._perfbench_span = name
        return wrapper

    def install(self) -> None:
        modules = self._modules()
        by_short = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for short, functions in TARGETS.items():
            home = by_short[short]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every patched binding is the original again and no wrapper is left."""
        if any(getattr(m, attr) is not orig for m, attr, orig in self._patched):
            return False
        return not any(
            hasattr(value, "_perfbench_span")
            for module in self._modules()
            for value in vars(module).values()
        )

    def summary(self) -> dict:
        """Per-function calls and self time, plus the size counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i, (name_id, start, end, parent) in enumerate(spans):
            entry = stats[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
        for name, counters in self.counters.items():
            stats[name].update(
                {k: len(v) if isinstance(v, set) else v for k, v in counters.items()}
            )
        mul = stats["series.series_mul"]
        mul["yield"] = mul["terms_out"] / mul["pairs"] if mul["pairs"] else 0.0
        return stats

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\n")
            for name_id, start, end, parent in self.spans:
                f.write(f"{self.names[name_id]}\t{start!r}\t{end!r}\t{parent}\n")
