"""Dense exact linear algebra over Q (lists of Fraction rows).

Inputs may mix ints, Fractions and anything ``Fraction()`` accepts; results
are Fraction rows.  Elimination runs on Python ints only: each row is
scaled once by the lcm of its denominators, and the integer rows are then
reduced fraction-free.  ``rref`` does Gauss-Jordan by cross-multiplication,
``row_i = p*row_i - a*row_r`` with gcd(p, a) divided out first and the row's
content divided out after, so the entries stay small; ``det`` uses Bareiss's
exact-division elimination.  Fractions are built only at the boundary:
once per entry when ``rref`` divides each pivot row by its pivot, and once
when ``det`` divides the integer determinant by the cleared denominators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

# the shared zero: every zero entry built here, and every zero that
# ``series.coordinates`` returns, is this one object, which ``_int_row``
# skips by identity instead of converting it
ZERO = Fraction(0)


def _int_row(row) -> tuple:
    """``(ints, den)`` with ``row == ints / den`` entrywise, den the lcm of the denominators."""
    pairs = [
        (0, 1) if x is ZERO
        else x.as_integer_ratio() if type(x) is Fraction or type(x) is int
        else Fraction(x).as_integer_ratio()
        for x in row
    ]
    den = lcm(*[d for _, d in pairs])
    if den == 1:
        return [n for n, _ in pairs], 1
    return [n * (den // d) for n, d in pairs], den


def _primitive(row) -> list:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def mat(rows) -> list:
    return [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]


def identity(n: int) -> list:
    return [[Fraction(1) if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(n: int, m: int) -> list:
    return [[ZERO] * m for _ in range(n)]


def mat_mul(a, b, cols: Optional[int] = None) -> list:
    """Matrix product; ``cols`` pins the width when b has zero rows."""
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    if cols is None:
        cols = len(b[0]) if b else 0
    out = zeros(len(a), cols)
    for i, row in enumerate(a):
        oi = out[i]
        for k, aik in enumerate(row):
            if aik == 0:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] += aik * bk[j]
    return out


def transpose(a) -> list:
    return [list(col) for col in zip(*a)] if a else []


def rref(rows) -> tuple:
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    if not rows:
        return [], []
    m = [_primitive(_int_row(r)[0]) for r in rows]
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(n_rows):
            a = m[i][c]
            if a and i != r:
                g = gcd(p, a)
                pg, ag = p // g, a // g
                m[i] = _primitive([pg * x - ag * y for x, y in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    # every pivot row is now an integer multiple of its reduced row
    out = []
    for row, c in zip(m, pivots):
        p = row[c]
        if p == 1:
            out.append([Fraction(x) if x else ZERO for x in row])
        else:
            out.append([Fraction(x, p) if x else ZERO for x in row])
    out.extend([ZERO] * n_cols for _ in range(n_rows - r))
    return out, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(rows, n_cols: Optional[int] = None) -> list:
    """Basis of the kernel of the matrix, via the standard rref parametrization."""
    if n_cols is None:
        if not rows:
            raise ValueError("need n_cols for an empty matrix")
        n_cols = len(rows[0])
    if not rows:
        return [
            [Fraction(1) if j == k else ZERO for j in range(n_cols)]
            for k in range(n_cols)
        ]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * n_cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


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
    m = []
    den = 1
    for r in rows:
        ints, d = _int_row(r)
        m.append(ints)
        den *= d
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
    return Fraction(sign * prev, den)


def inverse(rows) -> list:
    """Inverse of a square matrix; raises on singular input."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def in_span(rows, vector) -> bool:
    """Whether ``vector`` lies in the row span of ``rows``."""
    if all(x == 0 for x in vector):
        return True
    if not rows:
        return False
    return rank(rows) == rank(list(rows) + [list(vector)])
