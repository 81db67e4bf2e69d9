"""Differential tests: the integer elimination in ``linalg`` against the
Fraction Gauss-Jordan it replaced (``oracles.ref_rref``, with ``ref_det``
for the inverse), plus fixed cases checked against ``sympy.Matrix.rref``.

Matrices mix int and Fraction entries, are often rank-deficient (rows are
combinations of a few base rows), sometimes carry a zero column, and range
from empty, 1xn and nx1 up to 5x5.  Values and types must match exactly.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import linalg

from oracles import ref_det, ref_rref

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

integers = st.integers(-3, 3)
rationals = st.one_of(integers, st.fractions(min_value=-3, max_value=3, max_denominator=6))


@st.composite
def matrices(draw, n_rows=None, n_cols=None):
    entry = draw(st.sampled_from([integers, rationals]))
    n_rows = draw(st.integers(0, 5)) if n_rows is None else n_rows
    n_cols = draw(st.integers(0, 5)) if n_cols is None else n_cols
    if draw(st.booleans()):
        # rank at most k: every row combines the same k base rows
        k = draw(st.integers(0, 3))
        base = [draw(st.lists(entry, min_size=n_cols, max_size=n_cols)) for _ in range(k)]
        rows = []
        for _ in range(n_rows):
            coefs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
            rows.append([sum((c * b[j] for c, b in zip(coefs, base)), 0) for j in range(n_cols)])
    else:
        rows = [draw(st.lists(entry, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    if n_cols and draw(st.booleans()):
        col = draw(st.integers(0, n_cols - 1))
        for row in rows:
            row[col] = 0
    return rows


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    return draw(matrices(n_rows=n, n_cols=n))


def assert_fraction_rows(got, want):
    assert got == want
    assert [len(r) for r in got] == [len(r) for r in want]
    assert all(type(x) is Fraction for row in got for x in row)


def ref_nullspace(rows, n_cols):
    red, pivots = ref_rref(rows)
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def ref_row_space(rows):
    red, pivots = ref_rref(rows)
    return tuple(tuple(r) for r in red[: len(pivots)])


@SETTINGS
@given(matrices())
def test_elimination_matches_reference(rows):
    before = [list(r) for r in rows]
    red, pivots = linalg.rref(rows)
    want_red, want_pivots = ref_rref(rows)
    assert rows == before  # the input is not modified
    assert_fraction_rows(red, want_red)
    assert pivots == want_pivots

    column_space = linalg.column_space(rows)
    assert column_space == (ref_row_space(linalg.transpose(rows)) if rows else ())
    assert all(type(x) is Fraction for row in column_space for x in row)

    n_cols = len(rows[0]) if rows else 3
    kernel = linalg.nullspace(rows, n_cols=n_cols)
    assert_fraction_rows(kernel, ref_nullspace(rows, n_cols) if rows else
                         [[Fraction(int(j == k)) for j in range(n_cols)] for k in range(n_cols)])
    for v in kernel:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


@st.composite
def unimodular_matrices(draw):
    """Integer products of shears, swaps and sign flips: det = +-1."""
    n = draw(st.integers(1, 5))
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["shear", "swap", "flip"]))
        if op == "shear" and i != j:
            c = draw(st.integers(-3, 3))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "flip":
            m[i] = [-x for x in m[i]]
    return m


@SETTINGS
@given(st.one_of(square_matrices(), unimodular_matrices()))
def test_inverse_matches_reference(rows):
    n = len(rows)
    before = [list(r) for r in rows]
    red, pivots = ref_rref([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        assert ref_det(rows) == 0
        with pytest.raises(ValueError, match="singular"):
            linalg.inverse(rows)
        return
    inv, den = linalg.inverse(rows)
    assert rows == before  # the input is not modified
    want = [row[n:] for row in red[:n]]
    assert len(inv) == n
    assert all(type(x) is int and x for row in inv for x in row.values())
    assert [[Fraction(row.get(j, 0), den) for j in range(n)] for row in inv] == want
    # den is the least common denominator of the inverse's entries
    assert type(den) is int and den == math.lcm(*(x.denominator for row in want for x in row))
    if all(type(x) is int for row in rows for x in row):
        assert (den == 1) == (ref_det(rows) in (1, -1))


@SETTINGS
@given(st.data())
def test_inverse_rejects_non_square(data):
    rows = data.draw(matrices(n_rows=data.draw(st.integers(1, 4))))
    if len(rows[0]) == len(rows):
        rows = [r + [0] for r in rows]
    if data.draw(st.booleans()):  # ragged: n rows, all but one of length n
        n = len(rows)
        rows = [(r + [0] * n)[:n] for r in rows]
        rows[data.draw(st.integers(0, n - 1))].pop()
    with pytest.raises(ValueError, match="square"):
        linalg.inverse(rows)


def test_mat_keeps_fractions_and_converts_ints():
    half = Fraction(1, 2)
    m = linalg.mat([[half, 2]])
    assert m[0][0] is half
    assert m == [[half, Fraction(2)]]
    assert all(type(x) is Fraction for x in m[0])
    assert linalg.mat_mul([[half]], [[2]]) == [[Fraction(1)]]


# exact input only: int_rows, every elimination through it, and the dense
# adapters refuse a float
@pytest.mark.parametrize("call", [
    lambda: linalg.int_rows(row for row in [[Fraction(1, 2), 0.1]]),
    lambda: linalg.inverse([[0.1, 0], [0, 1]]),
    lambda: linalg.mat([[0.1]]),
    lambda: linalg.mat(row for row in [[1], [Fraction(1, 3), 0.5]]),
    lambda: linalg.mat_mul([[0.5]], [[2]]),
    lambda: linalg.mat_mul([[2]], [[0.5]]),
], ids=["int-rows", "inverse", "mat", "mat-generator", "mat-mul-left", "mat-mul-right"])
def test_linalg_refuses_floats(call):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == "matrix entries must be int or Fraction, got float"


def test_empty_inputs():
    assert linalg.rref([]) == ([], [])
    assert linalg.rref([[], []]) == ref_rref([[], []]) == ([[], []], [])
    assert linalg.column_space([]) == ()
    assert linalg.inverse([]) == ([], 1)
    assert linalg.nullspace([], n_cols=2) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        linalg.nullspace([])


SYMPY_CASES = [
    [[1, 2, 3], [2, 4, 6], [1, 0, 1]],
    [[Fraction(1, 2), Fraction(-2, 3), 0, 5], [3, -4, 0, 30], [0, 1, 0, Fraction(7, 5)]],
    [[0, 0, 2], [0, 3, 1], [0, 0, 0], [0, 6, 4]],
    [[6, 10, 15]],
    [[4], [-6], [0]],
    [[2, 3, 5, 7], [11, 13, 17, 19], [23, 29, 31, 37], [41, 43, 47, 53]],
]


@pytest.mark.parametrize("rows", SYMPY_CASES, ids=range(len(SYMPY_CASES)))
def test_rref_matches_sympy(rows):
    red_s, pivots_s = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                     for x in map(Fraction, r)] for r in rows]).rref()
    want = [[Fraction(int(e.p), int(e.q)) for e in red_s.row(i)] for i in range(red_s.rows)]
    red, pivots = linalg.rref(rows)
    assert_fraction_rows(red, want)
    assert tuple(pivots) == pivots_s


# -- the sparse kernel against the Fraction reference ------------------------------


@st.composite
def integer_matrices(draw):
    """Wide, tall and square integer matrices with zero rows, duplicate rows
    and negated rows (negative leading entries)."""
    n_cols = draw(st.integers(0, 8))
    base = draw(st.lists(st.lists(integers, min_size=n_cols, max_size=n_cols), max_size=8))
    rows = []
    for row in base:
        rows.append(row)
        extra = draw(st.sampled_from(["none", "duplicate", "negated", "zero"]))
        if extra == "duplicate":
            rows.append(list(row))
        elif extra == "negated":
            rows.append([-x for x in row])
        elif extra == "zero":
            rows.append([0] * n_cols)
    return draw(st.permutations(rows)), n_cols


def sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@SETTINGS
@given(integer_matrices())
def test_sparse_kernel_matches_reference(case):
    rows, n_cols = case
    given_rows = sparse(rows)
    before = [dict(r) for r in given_rows]
    red = linalg.echelon(given_rows)
    assert given_rows == before  # the input rows are not modified
    want_red, want_pivots = ref_rref(rows)
    assert sorted(red) == want_pivots
    for c, want in zip(want_pivots, want_red):
        row = red[c]
        assert min(row) == c and row[c] > 0
        assert all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1
        assert [Fraction(row.get(j, 0), row[c]) for j in range(n_cols)] == want

    kernel = linalg.kernel(given_rows, n_cols)
    want_kernel = ref_row_space(ref_nullspace(rows, n_cols)) if rows else tuple(
        tuple(Fraction(int(j == k)) for j in range(n_cols)) for k in range(n_cols))
    assert tuple(tuple(v.get(j, 0) for j in range(n_cols)) for v in kernel) == want_kernel
    assert all(type(x) is Fraction and x for v in kernel for x in v.values())
    assert [list(v) for v in kernel] == [sorted(v) for v in kernel]
