"""Exact linear algebra over Q on sparse integer rows.

A sparse row is a ``{column: int}`` dict of its nonzero entries.
``echelon``, the one elimination kernel, is fraction-free Gauss-Jordan
on such rows (``row = p*row - a*pivot_row``, gcd(p, a) and the row's
content divided out) and returns the reduced row echelon form over Q,
each row scaled to a primitive integer row with a positive pivot.  That
form is unique, so it is a canonical key for the row space.  ``kernel``
and ``inverse`` read their results off it: ``inverse`` eliminates the
augmented rows (rows | 1) and returns sparse integer rows over one least
common denominator, so an integer matrix has an integral inverse exactly
when its determinant is +-1.

``int_rows`` clears the denominators of dense rows that may mix ints and
Fractions, and refuses any other entry: no float comes in, there or
through ``mat`` and ``mat_mul``, which keep the same rule.  ``identity``
builds the dense Fraction transforms of the tower self-check.  ``mat``,
``mat_mul``, ``transpose``, ``rref``, ``nullspace`` and ``column_space``
are dense Fraction adapters over the kernel that no other module calls;
they stay because the benchmark's tracer wraps them by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional


def _exact_rows(rows) -> list:
    """``rows`` as a list; ValueError unless every entry is an int or a Fraction."""
    rows = list(rows)
    for row in rows:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise ValueError(f"matrix entries must be int or Fraction, got {type(x).__name__}")
    return rows


def int_rows(rows) -> tuple:
    """``(sparse, den)``: ``rows == sparse / den`` entrywise, den the lcm of all
    denominators; ValueError unless every entry is an int or a Fraction."""
    rows = _exact_rows(rows)
    ratios = [[(j, x.as_integer_ratio()) for j, x in enumerate(row) if x] for row in rows]
    den = lcm(*[d for row in ratios for _, (n, d) in row if n])
    return [{j: n * (den // d) for j, (n, d) in row if n} for row in ratios], den


def _primitive(row: dict) -> dict:
    """The nonzero row divided by its content, signed so that its smallest column is positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _eliminate(row: dict, c: int, pivot_row: dict) -> dict:
    """``row`` with column c cleared by ``p*row - a*pivot_row``, p > 0, made primitive."""
    p, a = pivot_row[c], row[c]
    g = gcd(p, a)
    p, a = p // g, a // g
    out = {j: p * x for j, x in row.items()}
    for j, y in pivot_row.items():
        x = out.get(j, 0) - a * y
        if x:
            out[j] = x
        else:
            del out[j]
    return _primitive(out) if out else out


def echelon(rows) -> dict:
    """Reduced row echelon form of sparse integer rows, as ``{pivot column: row}``.

    Each row is primitive, has a positive entry at its pivot, its smallest
    column, and is zero at every other pivot column.  The input rows are
    not modified.  Sparsest rows go first (Markowitz's rule); each row is
    reduced at its leading column until that column is new, and the pivot
    rows are reduced by each other at the end, from the right.
    """
    pivots: dict = {}
    for row in sorted(rows, key=len):
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = _primitive(row)
                break
            # c is also the smallest column of the pivot row: the new row starts right of c
            row = _eliminate(row, c, pivots[c])
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        # the pivot rows right of c are reduced already, so clearing one of
        # their columns brings in no other pivot column
        for j in [j for j in row if j != c and j in pivots]:
            row = _eliminate(row, j, pivots[j])
        pivots[c] = row
    return pivots


def _kernel_vectors(red: dict, n_cols: int) -> list:
    """The standard kernel basis of an echelon form: for each free column f,
    1 at f and ``-row[f] / row[c]`` at each pivot c, as ``{column: Fraction}``."""
    basis = []
    for f in range(n_cols):
        if f not in red:
            vec = {f: Fraction(1)}
            for c, row in red.items():
                if f in row:
                    vec[c] = Fraction(-row[f], row[c])
            basis.append(vec)
    return basis


def kernel(rows, n_cols: int) -> list:
    """Canonical basis of the kernel of sparse integer rows: its reduced echelon
    rows, as ``{column: Fraction}`` in pivot order.  With the column order
    reversed, each pivot row ends at its pivot, so the standard kernel
    vector of a free column f is zero left of f and at every other free
    column: it already is the reduced echelon row of the kernel with pivot f.
    """
    last = n_cols - 1
    red = echelon({last - j: x for j, x in row.items()} for row in rows)
    return [
        {last - j: vec[j] for j in sorted(vec, reverse=True)}
        for vec in reversed(_kernel_vectors(red, n_cols))
    ]


def inverse(rows) -> tuple:
    """``(inv, den)``: the square matrix's inverse is ``inv / den``, ``inv`` sparse
    integer rows, den >= 1 least; ValueError if it is not square or singular.
    Pivot row c of (rows | 1) is p_c*(e_c | row c of the inverse), p_c > 0 least."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse needs a square matrix")
    sparse, den = int_rows(rows)
    # (den*rows | den) spans the same rows as (rows | 1)
    red = echelon({**row, n + i: den} for i, row in enumerate(sparse))
    if any(c >= n for c in red):
        raise ValueError("matrix is singular")
    den = lcm(*[red[c][c] for c in red])
    return [{j - n: x * (den // red[c][c]) for j, x in red[c].items() if j >= n}
            for c in range(n)], den


def mat(rows) -> list:
    """``rows`` as dense Fraction rows, under the entry rule of `int_rows`."""
    return [[x if type(x) is Fraction else Fraction(x) for x in row] for row in _exact_rows(rows)]


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b, cols: Optional[int] = None) -> list:
    """Matrix product, under the entry rule of `int_rows`; ``cols`` pins the
    width when b has zero rows."""
    a, b = _exact_rows(a), _exact_rows(b)
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    b_cols = transpose(b) if b else [()] * (cols or 0)
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in b_cols]
            for row in a]


def transpose(a) -> list:
    return [list(col) for col in zip(*a)] if a else []


def rref(rows) -> tuple:
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    if not rows:
        return [], []
    n_cols = len(rows[0])
    red = echelon(int_rows(rows)[0])
    pivots = sorted(red)
    out = [[Fraction(red[c].get(j, 0), red[c][c]) for j in range(n_cols)] for c in pivots]
    out.extend([Fraction(0)] * n_cols for _ in range(len(rows) - len(pivots)))
    return out, pivots


def nullspace(rows, n_cols: Optional[int] = None) -> list:
    """Basis of the kernel of the matrix, via the standard rref parametrization."""
    if n_cols is None:
        if not rows:
            raise ValueError("need n_cols for an empty matrix")
        n_cols = len(rows[0])
    basis = _kernel_vectors(echelon(int_rows(rows)[0]), n_cols)
    return [[v.get(j, Fraction(0)) for j in range(n_cols)] for v in basis]


def column_space(mat_rows) -> tuple:
    """Canonical form of the column span: the nonzero rref rows of the transpose, as a tuple."""
    red, pivots = rref(transpose(mat_rows))
    return tuple(tuple(r) for r in red[: len(pivots)])
