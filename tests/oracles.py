"""Independent oracles used to pin expected values.

Everything here avoids the package's own series engine: sympy expansion
for group-law coefficients, plain counting and Molien's average
(``ref_molien_counts``) for invariant dimensions, direct enumeration for
monomial bases, a reference series arithmetic
on plain ``{Monomial: Fraction}`` dicts, the Fraction Gauss-Jordan
elimination that the integer one in ``cobcalc.linalg`` replaced, the
composite image chains that ``cobcalc.towers`` replaced by propagation,
the dense ``Fraction`` conjugation (``ref_conjugate``) that it replaced by
sparse products with ``linalg.inverse``, and the monomial-matching dense
projective-space tower that it replaced by counting.  The
one exception is ``ref_pb_substitute``, the term-by-term
projective-bundle evaluation that ``cobcalc.bundles.pb_substitute``
replaced: it evaluates with the package's own ``pb_mul``.  So does
``ref_thom_class``, the Horner's rule in eta that
``cobcalc.bundles.thom_class`` replaced by the difference series
x -_F y: it goes through the package's ``pb_substitute`` and ``pb_mul``.
``ref_pb_mul``/``ref_reduce_coords``, the projective-bundle product that
summed one series product at a time before ``cobcalc.bundles.pb_mul``
summed them in place, multiply and add with the package's series.  Likewise
``ref_weyl_apply``/``ref_action_matrix``, the per-monomial Weyl action
that ``cobcalc.equivariant.weyl_map`` replaced, build the character
classes with the package's ``character_class`` and substitute with its
``substitute``.  ``ref_fixed_space_rows``, the batched reader that
``cobcalc.equivariant.fixed_space_rows`` replaced by one
``action_matrix`` call per matrix, maps with the package's ``weyl_map``
and reads with its ``sparse_coordinates``.  And ``ref_law``, the per-kind group law with the
order-by-order formal inverse that ``cobcalc.fgl.build_fgl`` replaced by
one logarithm, builds its series with the package's kernel, and so does
``direct_associativity_residual``, the two 3-variable compositions
F(F(x, y), z) - F(x, F(y, z)) that ``cobcalc.fgl.verify_fgl_axioms``
replaced by the invariant-differential certificate for laws with unit and
commutativity, ``ref_composition_certificate``, the composition
L(F(x, y)) - L(x) - L(y) with L = integral of dx / F_2(x, 0) that the
certificate first took and ``cobcalc.fgl.verify_fgl_axioms`` replaced by
the symmetry of F_2(x, 0) * dF/dx, one product,
``ref_compositional_inverse``, the fixed-point loop over the whole window
that ``cobcalc.fgl.compositional_inverse`` replaced by one
pass per order in its own window, ``ref_inverse_residual``, the
substitution F(x, chi(x)) that ``cobcalc.fgl.build_fgl`` replaced by
log(chi(x)) + log(x) with the stored log, once u(x) * log'(x) = 1 with
u = F_2(x, 0) ties that log to F, ``ref_invariant_logarithm``, the
integral of dx / F_2(x, 0) by Horner's rule for the reciprocal and a
termwise antiderivative, which the stored log of every built law must
equal, and ``ref_unit_residuals``, the substitutions F(x, 0) and
F(0, y) that ``cobcalc.fgl.verify_fgl_axioms`` replaced by keeping the
terms free of y (resp. x).  ``ref_chern``, the elementary symmetric
recurrence over every rank that ``cobcalc.bundles.SplitBundle.chern``
bounded by the t-order cap, multiplies with the package's series.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import sympy

from cobcalc import linalg
from cobcalc.bundles import ProjBundleElement, ProjBundleRing, _coerce_pb, pb_mul, pb_substitute
from cobcalc.equivariant import character_class, weyl_map
from cobcalc.series import (
    ContextMismatch,
    Monomial,
    RingContext,
    TruncatedSeries,
    lazard_monomials,
    sparse_coordinates,
    substitute,
    variable_slices,
)
from cobcalc.towers import TowerSlice


def trunc_x(expr, x, order):
    expr = sympy.expand(expr)
    return sympy.expand(sum(expr.coeff(x, k) * x**k for k in range(order + 1)))


def trunc_total(expr, variables, order):
    poly = sympy.Poly(sympy.expand(expr), *variables)
    out = 0
    for monom, coeff in poly.terms():
        if sum(monom) <= order:
            term = coeff
            for v, e in zip(variables, monom):
                term *= v**e
            out += term
    return sympy.expand(out)


def reversion(f, x, order):
    """g with f(g(x)) = x mod x^(order+1), for f = x + higher order terms."""
    g = x
    for k in range(2, order + 1):
        residual = trunc_x(f(g) - x, x, k)
        g = sympy.expand(g - residual.coeff(x, k) * x**k)
    return g


def universal_log_coeffs(order):
    return sympy.symbols(f"m1:{order}")


def universal_fgl_sympy(order):
    """F(x, y) for the law with log x + m1 x^2 + ..., through total degree ``order``.

    Returns (F, x, y, ms).  Computed by brute-force compositional
    inversion of the logarithm followed by expansion of exp(log x + log y)
    = sum_k e_k s^k, s = log x + log y, with each power of s truncated at
    total degree ``order`` before the next product.
    """
    x, y = sympy.symbols("x y")
    ms = universal_log_coeffs(order)

    def log_at(v):
        return v + sum(ms[i - 1] * v ** (i + 1) for i in range(1, order))

    exp = reversion(log_at, x, order)
    s = trunc_total(log_at(x) + log_at(y), (x, y), order)
    F, power = 0, 1
    for k in range(1, order + 1):
        power = trunc_total(power * s, (x, y), order)
        F += exp.coeff(x, k) * power
    return sympy.expand(F), x, y, ms


def multiplicative_inverse_sympy(order):
    """chi(x) = -x/(1 - b*x) expanded through degree ``order``."""
    x, b = sympy.symbols("x b")
    chi = sympy.expand(-x * sum((b * x) ** k for k in range(order)))
    return trunc_x(chi, x, order), x, b


def series_to_sympy(s, t_symbols, lazard_symbol_for):
    """Convert a package series to a sympy expression (for comparisons only)."""
    out = 0
    for mono, coeff in s.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for i, e in mono.laz:
            term *= lazard_symbol_for(i) ** e
        for j, e in enumerate(mono.t):
            if e:
                term *= t_symbols[j] ** e
        out += term
    return sympy.expand(out)


def permutation_orbit_count(monomials):
    """Invariant dimension of a permutation action on a monomial basis:
    the number of orbits, i.e. distinct (generator part, sorted t-exponents)."""
    return len({(m.laz, tuple(sorted(m.t))) for m in monomials})


def count_poly_monomials(weights, degree):
    """Monomials in generators of the given degrees with total degree ``degree``."""
    counts = [1] + [0] * degree
    for w in weights:
        for d in range(w, degree + 1):
            counts[d] += counts[d - w]
    return counts[degree]


def _det_one_minus_q(w) -> list:
    """The coefficients of det(1 - q w) in q, lowest first: the
    characteristic polynomial det(x - w) = sum_i c_i x^i by the
    Faddeev-LeVerrier recurrence, read backwards (c_n is 1)."""
    n = len(w)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    c = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(w[i][l] * m[l][j] for l in range(n)) + c[n - k + 1] * identity[i][j]
              for j in range(n)] for i in range(n)]
        wm_trace = sum(w[i][l] * m[l][i] for i in range(n) for l in range(n))
        c[n - k] = -wm_trace / k
    return c[::-1]


def ref_molien_counts(elements, top: int) -> list:
    """Molien's average (1/|W|) sum over w of 1/det(1 - q w), up to q^top,
    as exact Fractions: entry k is the dimension of the invariants of the
    linear action of the group ``elements`` on the polynomials of degree k."""
    total = [Fraction(0)] * (top + 1)
    for w in elements:
        p = _det_one_minus_q(w)
        inverse = [Fraction(1)] + [Fraction(0)] * top
        for k in range(1, top + 1):
            inverse[k] = -sum(p[j] * inverse[k - j] for j in range(1, min(k, len(p) - 1) + 1))
        total = [a + b for a, b in zip(total, inverse)]
    return [x / len(elements) for x in total]


def enumerate_window(n_vars, max_t, max_w, kind, degree, t_order):
    """Exhaustive bidegree enumeration, independent of the package walk."""
    from cobcalc.series import lazard_monomials

    out = []
    for t in itertools.product(range(max_t + 1), repeat=n_vars):
        if sum(t) != t_order or sum(t) > max_t:
            continue
        for w in range(max_w + 1):
            for laz in lazard_monomials(kind, w):
                m = Monomial(t, laz)
                if m.degree() == degree:
                    out.append(m)
    return sorted(out, key=lambda m: m.sort_key())


# -- reference series arithmetic ------------------------------------------------
# The series algorithms as they stood before the packed-integer kernel: a
# series is a dict from Monomial to nonzero Fraction, products are formed term
# by term and truncated to the caps (max_t, max_w) afterwards.


def ref_mono_mul(a, b):
    t = tuple(x + y for x, y in zip(a.t, b.t))
    merged = dict(a.laz)
    for i, e in b.laz:
        merged[i] = merged.get(i, 0) + e
    return Monomial(t, tuple(sorted(merged.items())))


def ref_truncate(terms, max_t, max_w):
    """The terms inside the caps, with zero coefficients dropped."""
    return {
        m: Fraction(c)
        for m, c in terms.items()
        if c != 0 and m.t_order() <= max_t and m.weight() <= max_w
    }


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s == 0:
            out.pop(m, None)
        else:
            out[m] = s
    return out


def ref_scale(a, c):
    c = Fraction(c)
    return {m: v * c for m, v in a.items()} if c else {}


def ref_mul(a, b, max_t, max_w):
    if len(a) > len(b):
        a, b = b, a
    bterms = sorted(
        ((m.t_order(), m.weight(), m, c) for m, c in b.items()), key=lambda e: e[0]
    )
    out = {}
    for ma, ca in a.items():
        t_budget = max_t - ma.t_order()
        w_budget = max_w - ma.weight()
        for tb, wb, mb, cb in bterms:
            if tb > t_budget:
                break
            if wb > w_budget:
                continue
            m = ref_mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c != 0}


def ref_substitute(s, assignment, n_target, max_t, max_w):
    """s with t_j -> assignment[j], in a target of n_target variables and caps (max_t, max_w).

    Unassigned variables map to the variable of the same index in the target.
    """
    powers = {}

    def power(j, e):
        if (j, e) not in powers:
            if e == 1:
                t = tuple(1 if i == j else 0 for i in range(n_target))
                powers[j, e] = assignment.get(j, {Monomial(t, ()): Fraction(1)})
            else:
                powers[j, e] = ref_mul(power(j, e - 1), power(j, 1), max_t, max_w)
        return powers[j, e]

    acc = {}
    for mono, coeff in s.items():
        if mono.weight() > max_w:
            continue
        term = {Monomial((0,) * n_target, mono.laz): coeff}
        for j, e in enumerate(mono.t):
            if e:
                term = ref_mul(term, power(j, e), max_t, max_w)
        acc = ref_add(acc, term)
    return acc


# -- the Fraction elimination that cobcalc.linalg used before it went integer ------


def ref_rref(rows) -> tuple:
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def ref_det(rows) -> Fraction:
    """Determinant by fraction-free-ish elimination with row swaps."""
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sign * result



def ref_column_space(m) -> tuple:
    """Canonical column span: the nonzero reference rref rows of the transpose."""
    red, pivots = ref_rref([list(col) for col in zip(*m)])
    return tuple(tuple(r) for r in red[: len(pivots)])


# -- the composite image chains that TowerSlice.chains built before it propagated images


def ref_image_chains(dims, maps) -> list:
    """For each level i, canonical forms of im(V_{i+s} -> V_i), s = 0..k-i: the
    column space of each composite M_i * ... * M_{i+s-1} of the dense ``maps``,
    multiplied out densely."""
    k = len(dims) - 1
    chains = []
    for i in range(k + 1):
        comp = [[Fraction(int(r == c)) for c in range(dims[i])] for r in range(dims[i])]
        chain = [ref_column_space(comp)]
        for j in range(i, k):
            b = maps[j]
            comp = [
                [sum((x * b[t][c] for t, x in enumerate(row)), Fraction(0))
                 for c in range(dims[j + 1])]
                for row in comp
            ]
            chain.append(ref_column_space(comp))
        chains.append(chain)
    return chains


# -- the dense conjugation that towers.apply_levelwise_isomorphism did before it
# -- went sparse: linalg.inverse and linalg.mat_mul of that time, on ref_rref


def _ref_mat_mul(a, b, cols=None) -> list:
    """Matrix product; ``cols`` pins the width when b has zero rows."""
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    b_cols = [list(col) for col in zip(*b)] if b else [()] * (cols or 0)
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in b_cols]
            for row in a]


def _ref_inverse(rows) -> list:
    """Inverse of a square matrix; raises on singular input."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = ref_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def ref_conjugate(tower, transforms):
    """Conjugate a tower by invertible matrices, one list per degree.

    ``transforms[d][i]`` acts on level i of degree d; new maps are
    P_i * M_i * P_{i+1}^(-1), multiplied out densely over Q, each with its
    denominators cleared.
    """
    out = {}
    for d, sl in tower.items():
        ps = transforms[d]
        if len(ps) != len(sl.dims):
            raise ValueError("need one transform per level")
        inv = [_ref_inverse(p) if p else [] for p in ps]
        maps = []
        for i in range(len(sl.dims) - 1):
            m = sl.map(i)
            dense = [[col.get(r, 0) for col in m] for r in range(sl.dims[i])]
            new = _ref_mat_mul(_ref_mat_mul(ps[i], dense), inv[i + 1])
            maps.append(linalg.int_rows([row[c] for row in new] for c in range(sl.dims[i + 1]))[0])
        out[d] = TowerSlice(dims=list(sl.dims), maps=maps)
    return out


# -- the dense projective-space tower that towers.projective_space_tower built
# -- before it counted monomials; it returns {degree: (dims, dense maps)}


def _level_monomials(ctx: RingContext, degree: int, level: int) -> list:
    """Basis (xi-power, generator part) of the degree slice of K[xi]/(xi^(level+1))."""
    out = []
    for p in range(0, min(level, ctx.max_t_order) + 1):
        w = p - degree
        if w < 0 or w > ctx.max_weight:
            continue
        for laz in lazard_monomials(ctx.coeff_kind, w):
            out.append((p, laz))
    out.sort()
    return out


def ref_projective_space_tower(ctx: RingContext, d_max: int, i_max: int) -> dict:
    """The tower of finite projective-space approximations of the rank-1
    classifying space: level i is the degree slice of K[xi]/(xi^(i+1)),
    transitions are the canonical surjections killing the top xi-power.
    Only the coefficient kind and the caps of ``ctx`` are read."""
    if d_max < 0 or i_max < 2:
        raise ValueError("need d_max >= 0 and at least three levels")
    tower = {}
    for d in range(0, d_max + 1):
        bases = [_level_monomials(ctx, d, i) for i in range(i_max + 1)]
        dims = [len(b) for b in bases]
        maps = []
        for i in range(i_max):
            lower = {m: r for r, m in enumerate(bases[i])}
            mat = [[0] * dims[i + 1] for _ in range(dims[i])]
            for col, m in enumerate(bases[i + 1]):
                row = lower.get(m)
                if row is not None:
                    mat[row][col] = 1
            maps.append(mat)
        tower[d] = (dims, maps)
    return tower


# -- the term-by-term evaluation that bundles.pb_substitute used before Horner ------


def ref_pb_substitute(
    ring: ProjBundleRing,
    s: TruncatedSeries,
    values: dict,
) -> ProjBundleElement:
    """Evaluate a (finite, truncated) series at projective-bundle elements.

    ``values`` maps every variable in the support of ``s`` to an element
    of the ring (or a base series); generator parts of the coefficients
    multiply in as base constants.  This is polynomial evaluation: the
    source term map is finite by truncation.
    """
    if s.ctx.coeff_kind != ring.base.coeff_kind:
        raise ContextMismatch("coefficient kinds differ")
    values = {int(j): _coerce_pb(ring, v) for j, v in values.items()}
    missing = s.support_vars() - set(values)
    if missing:
        raise ValueError(f"no value for variables {sorted(missing)}")

    powers: dict = {}

    def power(j: int, e: int) -> ProjBundleElement:
        key = (j, e)
        cached = powers.get(key)
        if cached is not None:
            return cached
        result = values[j] if e == 1 else pb_mul(ring, power(j, e - 1), values[j])
        powers[key] = result
        return result

    zero_t = (0,) * ring.base.n_vars
    acc = ring.zero()
    for mono, coeff in s.iter_terms():
        scalar = ring.base.from_terms({Monomial(zero_t, mono.laz): coeff})
        if scalar.is_zero():
            continue
        term = ring.from_base(scalar)
        for j, e in enumerate(mono.t):
            if e:
                term = pb_mul(ring, term, power(j, e))
                if term.is_zero():
                    break
        acc = acc + term
    return acc


# -- the Thom class before bundles.thom_class composed x -_F y -------------------


def ref_thom_class(bundle, ring: ProjBundleRing, law) -> ProjBundleElement:
    """th(E) = prod_j F(x_j, eta), from 1: eta = chi(xi) by Horner's rule in
    xi, and each factor F(x_j, eta) by Horner's rule in eta, both through
    the package's ``pb_substitute`` (every step a full ``pb_mul``)."""
    eta = pb_substitute(ring, law.inverse_series, {}, ring.xi())
    th = ring.one()
    for root in bundle.roots:
        th = pb_mul(ring, th, pb_substitute(ring, law.series, {0: root}, eta))
    return th


# -- the projective-bundle product before bundles.pb_mul summed in place -----------


def ref_reduce_coords(ring: ProjBundleRing, coords) -> list:
    """Stepwise reduction of a xi-polynomial to the basis, top power first."""
    n = ring.rank
    coords = list(coords)
    for p in range(len(coords) - 1, n - 1, -1):
        c = coords[p]
        if c.is_zero():
            continue
        coords[p] = ring.base.zero()
        sign = 1
        for i, ci in enumerate(ring.chern, start=1):
            coords[p - i] = coords[p - i] + (ci * c if sign > 0 else -(ci * c))
            sign = -sign
    return coords[:n]


def ref_pb_mul(ring: ProjBundleRing, u, v) -> ProjBundleElement:
    """Product in the reduced ring: convolution in xi, then stepwise reduction."""
    u = _coerce_pb(ring, u)
    v = _coerce_pb(ring, v)
    n = ring.rank
    conv = [ring.base.zero()] * (2 * n - 1)
    for i, a in enumerate(u.coords):
        if a.is_zero():
            continue
        for j, b in enumerate(v.coords):
            if b.is_zero():
                continue
            conv[i + j] = conv[i + j] + a * b
    return ring.from_coords(ref_reduce_coords(ring, conv))


# -- the per-monomial Weyl action that equivariant.weyl_map replaced ---------------


def _as_matrix(rows):
    m = tuple(tuple(int(x) for x in row) for row in rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("Weyl generators must be square matrices")
    return m


def _check_unimodular(m) -> None:
    d = ref_det(m)
    if d not in (1, -1):
        raise ValueError(f"matrix is not invertible over Z (det = {d})")


def ref_weyl_apply(w, s, law):
    """Ring endomorphism sending tj to the class of the j-th column of w."""
    m = _as_matrix(w)
    _check_unimodular(m)
    n = s.ctx.n_vars
    if len(m) != n:
        raise ValueError("matrix size does not match the context rank")
    assignment = {
        j: character_class(law, tuple(m[i][j] for i in range(n)), s.ctx)
        for j in range(n)
    }
    return substitute(s, assignment, target=s.ctx)


def ref_action_matrix(w, law, basis, ctx) -> list:
    """Dense Fraction matrix of the Weyl action on the span of ``basis`` (columns = images)."""
    index = {mono: i for i, mono in enumerate(basis)}
    columns = []
    for mono in basis:
        column = [Fraction(0)] * len(basis)
        image = ref_weyl_apply(w, ctx.from_terms({mono: Fraction(1)}), law)
        for m, c in image.iter_terms():
            # terms outside the window fall into the filtration ideal: dropped
            if m in index:
                column[index[m]] = c
        columns.append(column)
    return [list(row) for row in zip(*columns)]


def ref_fixed_space_rows(matrices, law, basis, ctx) -> list:
    """The rows of (rho_w - id) for every w in ``matrices``, stacked, as sparse
    integer rows.  One `sparse_coordinates` call reads the images under
    every w, of the basis monomials as unit series built from their keys."""
    key_of = ctx._layout.key_of
    units = [
        ctx.from_terms({mono: 1}) if (key := key_of(mono)) is None
        else TruncatedSeries._raw(ctx, {key: 1}, 1)
        for mono in basis
    ]
    n = len(basis)
    images = sparse_coordinates(
        itertools.chain.from_iterable(map(weyl_map(w, law, ctx), units) for w in matrices), basis
    )
    stacked = []
    for at in range(0, len(images), n or 1):
        columns = images[at:at + n]
        # the rows of (rho_w - id), all scaled by one den
        den = math.lcm(*[d for _, d in columns])
        rows = [{} for _ in basis]
        for j, (nums, d) in enumerate(columns):
            for i, num in nums.items():
                rows[i][j] = num * (den // d)
        for i, row in enumerate(rows):
            x = row.get(i, 0) - den
            if x:
                row[i] = x
            else:
                del row[i]
        stacked.extend(rows)
    return stacked


# -- the per-kind laws and order-by-order inverse that fgl.build_fgl replaced ----


def ref_compositional_inverse(f: TruncatedSeries) -> TruncatedSeries:
    """g with f(g(x)) = x in the whole window of f: each pass removes the lowest
    t-order slice of the residual f(g) - x, until the residual is zero."""
    ctx = f.ctx
    x = ctx.var(0)
    g = x
    while True:
        residual = substitute(f, {0: g}) - x
        if residual.is_zero():
            return g
        v = residual.min_t_order()
        g = g - residual.t_slice(v)


def ref_inverse_residual(F: TruncatedSeries, chi: TruncatedSeries) -> TruncatedSeries:
    """F(x, chi(x)) in the one-variable context of ``chi``."""
    ctx1 = chi.ctx
    return substitute(F, {0: ctx1.var(0), 1: chi}, target=ctx1)


def ref_formal_inverse(F: TruncatedSeries, ctx1: RingContext) -> TruncatedSeries:
    """chi(x) with F(x, chi(x)) = 0 inside the window, order by order."""
    x = ctx1.var(0)
    chi = -x
    while True:
        residual = substitute(F, {0: x, 1: chi}, target=ctx1)
        if residual.is_zero():
            return chi
        v = residual.min_t_order()
        chi = chi - residual.t_slice(v)


def ref_invariant_logarithm(F: TruncatedSeries) -> TruncatedSeries:
    """L = integral of dx / F_2(x, 0) for a group law F(x, y) with the unit
    axiom, in the one-variable context of F's caps."""
    ctx2 = F.ctx
    ctx1 = RingContext(1, ctx2.coeff_kind, ctx2.max_t_order, ctx2.max_weight)
    slices = variable_slices(F, 1)
    f2 = slices[1] if len(slices) > 1 else ctx2.zero()
    w = 1 - substitute(f2, {0: ctx1.var(0), 1: ctx1.zero()}, target=ctx1)
    # 1/(1 - w) by Horner's rule, exact through t-order max_t - 1: all the integral keeps.
    # A step that changes nothing is a fixed point, which later steps keep.
    one = inverse = ctx1.one()
    for _ in range(ctx1.max_t_order - 1):
        step = one + w * inverse
        if step == inverse:
            break
        inverse = step
    # the antiderivative term by term: c * x^e goes to c / (e + 1) * x^(e + 1)
    return ctx1.from_terms({Monomial((m.t[0] + 1,), m.laz): c / (m.t[0] + 1)
                            for m, c in inverse.iter_terms()})


def ref_unit_residuals(F: TruncatedSeries) -> tuple:
    """(F(x, 0) - x, F(0, y) - y) by substitution, in the context of F."""
    ctx2 = F.ctx
    x, y = ctx2.var(0), ctx2.var(1)
    unit_x = substitute(F, {1: ctx2.zero()}, target=ctx2) - x
    unit_y = substitute(F, {0: ctx2.zero()}, target=ctx2) - y
    return unit_x, unit_y


def ref_law(kind: str, ctx: RingContext) -> tuple:
    """(F, chi) at the caps of ``ctx``: x + y, x + y - b*x*y, or for the universal
    kind exp(log x + log y) with log = x + sum m_i x^(i+1); chi order by order."""
    ctx2 = RingContext(2, ctx.coeff_kind, ctx.max_t_order, ctx.max_weight)
    ctx1 = RingContext(1, ctx.coeff_kind, ctx.max_t_order, ctx.max_weight)
    x, y = ctx2.var(0), ctx2.var(1)
    if kind == "additive":
        F = x + y
    elif kind == "multiplicative":
        F = x + y - ctx2.lazard(1) * x * y
    else:
        t = ctx1.var(0)
        log = t
        for i in range(1, min(ctx1.max_t_order - 1, ctx1.max_weight) + 1):
            log = log + ctx1.lazard(i) * t ** (i + 1)
        exp = ref_compositional_inverse(log)
        lx = substitute(log, {0: x}, target=ctx2)
        ly = substitute(log, {0: y}, target=ctx2)
        F = substitute(exp, {0: lx + ly}, target=ctx2)
    return F, ref_formal_inverse(F, ctx1)


def ref_composition_certificate(F: TruncatedSeries) -> TruncatedSeries:
    """L(F(x, y)) - L(x) - L(y) with L = integral of dx / F_2(x, 0), in the
    context of F: zero exactly when a law with unit and commutativity is
    associative in the window."""
    ctx2 = F.ctx
    L = ref_invariant_logarithm(F)
    lx, ly = (substitute(L, {0: ctx2.var(j)}, target=ctx2) for j in (0, 1))
    return substitute(L, {0: F}, target=ctx2) - lx - ly


def direct_associativity_residual(F: TruncatedSeries) -> TruncatedSeries:
    """F(F(x, y), z) - F(x, F(y, z)) for F(x, y) in a two-variable context."""
    ctx3 = RingContext(3, F.ctx.coeff_kind, F.ctx.max_t_order, F.ctx.max_weight)
    x, y, z = ctx3.var(0), ctx3.var(1), ctx3.var(2)
    f_xy = substitute(F, {0: x, 1: y}, target=ctx3)
    f_yz = substitute(F, {0: y, 1: z}, target=ctx3)
    return substitute(F, {0: f_xy, 1: z}, target=ctx3) - substitute(
        F, {0: x, 1: f_yz}, target=ctx3
    )


# -- the Chern recurrence before bundles.SplitBundle.chern stopped at the t-order cap


def ref_chern(bundle) -> tuple:
    """c1..cr as elementary symmetric polynomials of the roots (c0 = 1
    implicit), every class through rank r."""
    ctx = bundle.base
    elem = [ctx.one()] + [ctx.zero()] * bundle.rank
    for root in bundle.roots:
        for i in range(bundle.rank, 0, -1):
            elem[i] = elem[i] + elem[i - 1] * root
    return tuple(elem[1:])
