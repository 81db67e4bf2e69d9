"""Exact linear algebra over Q on sparse integer rows.

A sparse row is a ``{column: int}`` dict of its nonzero entries.
``echelon``, the one elimination kernel, is fraction-free Gauss-Jordan
on such rows (``row = p*row - a*pivot_row``, gcd(p, a) and the row's
content divided out) and returns the reduced row echelon form over Q,
each row scaled to a primitive integer row with a positive pivot.  That
form is unique, so it is a canonical key for the row space.

The dense functions are adapters over the kernel: ``int_rows`` clears
the denominators of rows that may mix ints, Fractions and anything
``Fraction()`` accepts, and Fractions are built only for returned
entries.  ``det`` is Bareiss's exact-division elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional


def int_rows(rows) -> tuple:
    """``(sparse, den)``: ``rows == sparse / den`` entrywise, den the lcm of all denominators."""
    ratios = [
        [(j, (x if type(x) is Fraction or type(x) is int else Fraction(x)).as_integer_ratio())
         for j, x in enumerate(row) if x]
        for row in rows
    ]
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


def mat(rows) -> list:
    return [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b, cols: Optional[int] = None) -> list:
    """Matrix product; ``cols`` pins the width when b has zero rows."""
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


def row_space(rows) -> tuple:
    """Canonical form of the span of the rows: nonzero rref rows as a tuple."""
    red, pivots = rref(rows)
    return tuple(tuple(r) for r in red[: len(pivots)])


def column_space(mat_rows) -> tuple:
    """Canonical form of the column span (row space of the transpose)."""
    return row_space(transpose(mat_rows)) if mat_rows else ()


def det(rows) -> Fraction:
    """Determinant by Bareiss elimination on the denominator-cleared integer rows."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    sparse, den = int_rows(rows)
    m = [[row.get(j, 0) for j in range(n)] for row in sparse]
    sign = 1
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pk = m[k]
        p = pk[k]
        # every entry right of column k is a (k+1)-minor, so the division is exact
        for i in range(k + 1, n):
            a = m[i][k]
            m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], pk)]
        prev = p
    return Fraction(sign * prev, den**n)


def inverse(rows) -> list:
    """Inverse of a square matrix; raises on singular input."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]

