"""Differential tests: the series kernel against the dict reference in ``oracles``.

Random series over all three coefficient kinds, 1..3 variables and caps up
to (5, 4), including monomials beyond the caps and zero coefficients, so the
truncation and canonical-form paths are exercised too.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc.series import (
    COEFF_KINDS,
    ContextMismatch,
    Monomial,
    RingContext,
    RingMap,
    TruncatedSeries,
    add_into,
    bidegree_basis,
    collect,
    lazard_monomials,
    mul_into,
    reduced_basis,
    series_add,
    series_mul,
    sparse_coordinates,
    substitute,
    variable_slice,
    variable_slices,
    window_basis,
)

from oracles import ref_add, ref_mul, ref_rref, ref_scale, ref_substitute, ref_truncate
from strategies import assert_canonical, coefficients, contexts, monomials, term_dicts

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

def terms(s):
    return dict(s.items())


@SETTINGS
@given(st.data())
def test_ring_operations_match_reference(data):
    ctx = data.draw(contexts())
    cap = (ctx.max_t_order, ctx.max_weight)
    a_terms, b_terms = data.draw(term_dicts(ctx)), data.draw(term_dicts(ctx))
    c = data.draw(coefficients)
    a, b = ctx.from_terms(a_terms), ctx.from_terms(b_terms)
    ref_a, ref_b = ref_truncate(a_terms, *cap), ref_truncate(b_terms, *cap)
    assert terms(a) == ref_a and terms(b) == ref_b

    results = {
        "mul": (series_mul(a, b), ref_mul(ref_a, ref_b, *cap)),
        "add": (series_add(a, b), ref_add(ref_a, ref_b)),
        "scale": (a.scale(c), ref_scale(ref_a, c)),
        "neg": (-a, ref_scale(ref_a, -1)),
    }
    for name, (got, want) in results.items():
        assert terms(got) == want, name
        assert_canonical(got)
        assert got == ctx.from_terms(want) and hash(got) == hash(ctx.from_terms(want)), name

    assert (a == b) == (ref_a == ref_b)
    assert series_mul(a, b) == series_mul(b, a)
    assert hash(series_mul(a, b)) == hash(series_mul(b, a))
    assert series_add(a, b) - b == a
    if c:
        again = a.scale(c).scale(1 / c)
        assert again == a and hash(again) == hash(a)


# caps where the weight buckets cut: max_w < max_t - 1, and max_w = 0
narrow_caps = st.sampled_from([(5, 0), (5, 1), (5, 2), (4, 0), (4, 1), (3, 0), (3, 1)])


@SETTINGS
@given(st.data())
def test_mul_into_sums_products_like_the_reference(data):
    kind = data.draw(st.sampled_from(COEFF_KINDS))
    n_vars = data.draw(st.integers(1, 3))
    cap = data.draw(st.one_of(narrow_caps, st.tuples(st.integers(0, 5), st.integers(0, 4))))
    ctx = RingContext(n_vars, kind, *cap)
    # a nonempty start over its own denominator, so the first product rescales it
    start_terms = data.draw(term_dicts(ctx))
    acc: dict = {}
    den = add_into(acc, 1, ctx.from_terms(start_terms))
    want = ref_truncate(start_terms, *cap)
    for _ in range(data.draw(st.integers(1, 4))):
        a_terms, b_terms = data.draw(term_dicts(ctx)), data.draw(term_dicts(ctx))
        # products over different denominators
        c = data.draw(coefficients.filter(bool))
        a = ctx.from_terms(a_terms).scale(c)
        b = ctx.from_terms(b_terms)
        ref_a, ref_b = ref_scale(ref_truncate(a_terms, *cap), c), ref_truncate(b_terms, *cap)
        den = mul_into(acc, den, a, b)
        want = ref_add(want, ref_mul(ref_a, ref_b, *cap))
        if data.draw(st.booleans()):
            # the same product negated: its terms cancel to zero in the sum
            den = mul_into(acc, den, b, -a)
            want = ref_add(want, ref_mul(ref_b, ref_scale(ref_a, -1), *cap))
    got = collect(ctx, acc, den)
    assert terms(got) == want
    assert_canonical(got)


def test_mul_into_cancels_to_zero_and_cuts_at_the_weight_cap():
    ctx = RingContext(2, "universal-rational", 5, 1)
    a = TruncatedSeries.from_text(ctx, "1/2 * t1 + 1/3 * m1*t2")
    b = TruncatedSeries.from_text(ctx, "1/5 * m1 + 1 * t1^2")
    acc: dict = {}
    den = mul_into(acc, 1, a, b)
    # m1*t2 * m1 has weight 2 > 1: cut; m1*t1^2*t2 has weight exactly 1: kept
    assert collect(ctx, acc, den) == TruncatedSeries.from_text(
        ctx, "1/10 * m1*t1 + 1/2 * t1^3 + 1/3 * m1*t1^2*t2"
    )
    den = mul_into(acc, den, -a, b)
    assert collect(ctx, acc, den).is_zero()
    assert collect(ctx, acc, den) == ctx.zero()


@SETTINGS
@given(st.data())
def test_mul_into_squares_like_the_reference(data):
    # a * a runs the squaring pass: each unordered pair once, doubled off the diagonal
    kind = data.draw(st.sampled_from(COEFF_KINDS))
    n_vars = data.draw(st.integers(1, 3))
    cap = data.draw(st.one_of(narrow_caps, st.tuples(st.integers(0, 5), st.integers(0, 4))))
    ctx = RingContext(n_vars, kind, *cap)
    start_terms = data.draw(term_dicts(ctx))
    acc: dict = {}
    den = add_into(acc, 1, ctx.from_terms(start_terms))
    want = ref_truncate(start_terms, *cap)
    a_terms = data.draw(st.dictionaries(monomials(ctx), coefficients, max_size=8))
    # a denominator other than the start's, so the square rescales the sum
    c = data.draw(coefficients.filter(bool))
    a = ctx.from_terms(a_terms).scale(c)
    ref_a = ref_scale(ref_truncate(a_terms, *cap), c)
    den = mul_into(acc, den, a, a)
    got = collect(ctx, acc, den)
    assert terms(got) == ref_add(want, ref_mul(ref_a, ref_a, *cap))
    assert_canonical(got)
    assert series_mul(a, a) == series_mul(a, ctx.from_terms(a_terms).scale(c))


def test_square_skips_a_diagonal_past_the_cap_but_not_the_heavier_buckets():
    # t1^3 squared passes the t-order cap 5, while its product with the
    # heavier, lower-t-order m1*t1 stays inside: the pass must still reach it
    ctx = RingContext(1, "universal-rational", 5, 4)
    a = TruncatedSeries.from_text(ctx, "1/2 * t1^3 + 3 * m1*t1 + -1 * m2*t1^2")
    square = series_mul(a, a)
    assert square == TruncatedSeries.from_text(
        ctx, "9 * m1^2*t1^2 + -6 * m1*m2*t1^3 + 3 * m1*t1^4 + 1 * m2^2*t1^4 + -1 * m2*t1^5"
    )
    cap = (ctx.max_t_order, ctx.max_weight)
    assert terms(square) == ref_mul(terms(a), terms(a), *cap)


@SETTINGS
@given(st.data())
def test_ring_map_powers_match_reference(data):
    # every power of an image up to the cap, asked for in a random order, so
    # that even powers are squares of powers built before or on demand
    ctx = data.draw(contexts())
    image = data.draw(term_dicts(ctx, augmentation=True))
    j = data.draw(st.integers(0, ctx.n_vars - 1))
    f = RingMap(ctx, {j: ctx.from_terms(image)})
    exponents = data.draw(st.permutations(range(1, ctx.max_t_order + 1)))
    cap = (ctx.max_t_order, ctx.max_weight)
    for e in exponents:
        t = tuple(e if i == j else 0 for i in range(ctx.n_vars))
        power = {Monomial(t, ()): Fraction(1)}
        got = f(ctx.from_terms(power))
        want = ref_substitute(power, {j: ref_truncate(image, *cap)}, ctx.n_vars, *cap)
        assert terms(got) == want


@SETTINGS
@given(st.data())
def test_variable_slice_is_one_of_the_variable_slices(data):
    ctx = data.draw(contexts())
    s = ctx.from_terms(data.draw(term_dicts(ctx)))
    j = data.draw(st.integers(0, ctx.n_vars - 1))
    # exponent 0 (the series at t_{j+1} = 0) drawn as often as all the others
    e = data.draw(st.one_of(st.just(0), st.integers(1, ctx.max_t_order + 1)))
    got = variable_slice(s, j, e)
    slices = variable_slices(s, j)
    assert got == (slices[e] if e < len(slices) else ctx.zero())
    if e == 0:
        assert got == substitute(s, {j: ctx.zero()})
    assert_canonical(got)


@SETTINGS
@given(st.data())
def test_substitute_matches_reference(data):
    ctx = data.draw(contexts())
    s_terms = data.draw(term_dicts(ctx))
    assigned = data.draw(st.sets(st.integers(0, ctx.n_vars - 1)))
    values = {j: data.draw(term_dicts(ctx, augmentation=True)) for j in sorted(assigned)}
    cap = (ctx.max_t_order, ctx.max_weight)
    s = ctx.from_terms(s_terms)
    got = substitute(s, {j: ctx.from_terms(v) for j, v in values.items()}, target=ctx)
    ref_values = {j: ref_truncate(v, *cap) for j, v in values.items()}
    want = ref_substitute(ref_truncate(s_terms, *cap), ref_values, ctx.n_vars, *cap)
    assert terms(got) == want
    assert_canonical(got)


@SETTINGS
@given(st.data())
def test_retargeting_substitute_matches_reference(data):
    source = data.draw(contexts())
    target = data.draw(contexts(kind=source.coeff_kind))
    cap = (target.max_t_order, target.max_weight)
    s_terms = data.draw(term_dicts(source))
    values = {j: data.draw(term_dicts(target, augmentation=True)) for j in range(source.n_vars)}
    s = source.from_terms(s_terms)
    got = substitute(s, {j: target.from_terms(v) for j, v in values.items()}, target=target)
    ref_values = {j: ref_truncate(v, *cap) for j, v in values.items()}
    src_cap = (source.max_t_order, source.max_weight)
    want = ref_substitute(ref_truncate(s_terms, *src_cap), ref_values, target.n_vars, *cap)
    assert got.ctx == target
    assert terms(got) == want
    assert_canonical(got)


@st.composite
def images(draw, ctx):
    """An augmentation-ideal image: a variable, one monomial, or a large series."""
    size = draw(st.sampled_from(("variable", "monomial", "large")))
    if size == "variable":
        return ctx.var(draw(st.integers(0, ctx.n_vars - 1)))
    if size == "monomial":
        return ctx.from_terms({draw(monomials(ctx, augmentation=True)): draw(coefficients)})
    big = st.dictionaries(monomials(ctx, augmentation=True), coefficients, min_size=4, max_size=12)
    p = ctx.from_terms(draw(big))
    return p + p * p


@SETTINGS
@given(st.data())
def test_ring_map_is_a_ring_homomorphism(data):
    # on every coefficient kind, with images of very different sizes side by side
    source = data.draw(contexts())
    retarget = data.draw(st.booleans())
    n_target = data.draw(st.integers(1, 3)) if retarget else source.n_vars
    target = RingContext(n_target, source.coeff_kind, source.max_t_order, source.max_weight)
    if retarget:
        assigned = range(source.n_vars)
    else:
        assigned = sorted(data.draw(st.sets(st.integers(0, source.n_vars - 1))))
    f = RingMap(source, {j: data.draw(images(target)) for j in assigned}, target)
    a = source.from_terms(data.draw(term_dicts(source)))
    b = source.from_terms(data.draw(term_dicts(source)))
    c = data.draw(coefficients)
    assert f(a * b) == f(a) * f(b)
    assert f(a + b) == f(a) + f(b)
    assert f(a.scale(c)) == f(a).scale(c)
    assert f(source.one()) == target.one()


@SETTINGS
@given(st.data())
def test_variable_slices_match_termwise_split(data):
    ctx = data.draw(contexts())
    s = ctx.from_terms(data.draw(term_dicts(ctx)))
    j = data.draw(st.integers(0, ctx.n_vars - 1))
    split: dict = {}
    for mono, coeff in s.iter_terms():
        t = mono.t[:j] + (0,) + mono.t[j + 1:]
        split.setdefault(mono.t[j], {})[Monomial(t, mono.laz)] = coeff
    slices = variable_slices(s, j)
    top = max(split, default=-1)
    assert slices == [ctx.from_terms(split.get(e, {})) for e in range(top + 1)]
    for c in slices:
        assert_canonical(c)
        assert j not in c.support_vars()
    assert sum((c * ctx.var(j) ** e for e, c in enumerate(slices)), ctx.zero()) == s


def window(ctx, k_max):
    """Every monomial of t-order <= k_max inside the caps, one degree window
    after another, in canonical order."""
    return sorted(
        (m for d in range(-ctx.max_weight, k_max + 1) for m in window_basis(ctx, d, k_max)),
        key=Monomial.sort_key,
    )


@pytest.mark.parametrize("kind", COEFF_KINDS)
@SETTINGS
@given(st.data())
def test_reduced_basis_matches_reference_rref(kind, data):
    ctx = data.draw(contexts(kind))
    # -1 cuts every term
    cut = data.draw(st.integers(-1, ctx.max_t_order))
    # terms anywhere in the caps, so some lie above the cut
    term_maps = st.dictionaries(
        st.sampled_from(window(ctx, ctx.max_t_order)), coefficients, min_size=1, max_size=6
    )
    series = [ctx.from_terms(terms) for terms in data.draw(st.lists(term_maps, max_size=4))]
    if series and data.draw(st.booleans()):
        # a dependent input
        series.append(series[0].scale(data.draw(coefficients)) + series[-1])
    if data.draw(st.booleans()):
        series.insert(data.draw(st.integers(0, len(series))), ctx.zero())
    columns = window(ctx, cut)
    red, pivots = ref_rref([[s.coefficient(m) for m in columns] for s in series])
    want = [ctx.from_terms(dict(zip(columns, row))) for row in red[: len(pivots)]]
    got = reduced_basis(iter(series), cut)
    assert got == want
    for s in got:
        assert_canonical(s)


def test_reduced_basis_cuts_scales_and_refuses_mixed_contexts():
    ctx = RingContext(2, "universal-rational", 4, 3)
    s = TruncatedSeries.from_text(ctx, "1 * m1*t1 + -1/2 * t2^2 + 3 * t1^3")
    assert reduced_basis([], 4) == []
    assert reduced_basis([ctx.zero(), ctx.zero()], 4) == []
    assert reduced_basis([s], -1) == []
    # the t1^3 term is cut; the leading monomial gets coefficient 1
    assert reduced_basis([s, s.scale(3)], 2) == [
        TruncatedSeries.from_text(ctx, "1 * m1*t1 + -1/2 * t2^2")
    ]
    assert reduced_basis([s.scale(-2)], 4) == [s]
    with pytest.raises(ContextMismatch):
        reduced_basis([s, RingContext(2, "universal-rational", 4, 2).var(0)], 4)


@SETTINGS
@given(st.data())
def test_text_roundtrip_and_term_readers(data):
    ctx = data.draw(contexts())
    s = ctx.from_terms(data.draw(term_dicts(ctx)))
    assert TruncatedSeries.from_text(ctx, s.to_text()) == s
    for mono, coeff in s.items():
        assert s.coefficient(mono) == coeff
    assert sorted(s.iter_terms()) == sorted(s.items())
    assert s.coefficient(Monomial((ctx.max_t_order + 1,) + (0,) * (ctx.n_vars - 1), ())) == 0


def test_noncanonical_generator_part_names_no_term():
    ctx = RingContext(1, "universal-rational", 2, 4)
    s = TruncatedSeries.from_text(ctx, "1 * m1*m2*t1 + 3 * m1^2")
    for laz in (((2, 1), (1, 1)), ((1, 1), (1, 1))):
        t = (1,) if laz[0][0] == 2 else (0,)
        mono = Monomial(t, laz)
        assert s.coefficient(mono) == 0
        assert sparse_coordinates([s], [mono]) == [({}, 1)]
    assert s.coefficient(Monomial((1,), ((1, 1), (2, 1)))) == 1


def test_retargeting_moves_generators_between_layouts():
    # caps, and with them the packed field width and generator count, differ
    source = RingContext(2, "universal-rational", 6, 5)
    target = RingContext(1, "universal-rational", 3, 2)
    m = {i: Monomial((0, 0), ((i, 1),)) for i in (1, 2, 3)}
    s_terms = {
        m[1]: Fraction(1),
        m[2]: Fraction(-2, 3),
        m[3]: Fraction(5),
        Monomial((1, 0), ((1, 1),)): Fraction(1, 2),
        Monomial((0, 2), ((2, 1),)): Fraction(3),
    }
    x = Monomial((1,), ())
    values = {0: {x: Fraction(1)}, 1: {x: Fraction(2), Monomial((2,), ((1, 1),)): Fraction(1)}}
    got = substitute(
        source.from_terms(s_terms), {j: target.from_terms(v) for j, v in values.items()}, target
    )
    want = ref_substitute(s_terms, values, 1, target.max_t_order, target.max_weight)
    assert want and terms(got) == want


# -- ring maps whose images are variables: the relabel path ----------------------


def signed_variable(ctx, k, sign):
    """0 when ``k`` is None, else sign * t_{k+1} of ``ctx``."""
    return ctx.zero() if k is None else ctx.var(k).scale(sign)


def ref_images(images, n_target):
    """The reference's form of ``{j: (k, sign)}``: term dicts of 0 or +-t_{k+1}."""
    return {
        j: {} if k is None else {Monomial(tuple(int(i == k) for i in range(n_target)), ()): sign}
        for j, (k, sign) in images.items()
    }


def same_generator_fields(a, b):
    """The packed keys of ``a`` and ``b`` agree on the generator fields."""
    la, lb = a._layout, b._layout
    return la.n_gens == lb.n_gens and la.mask == lb.mask


def assert_relabel_matches_reference(source, target, images, s_terms):
    f = RingMap(source, {j: signed_variable(target, k, e) for j, (k, e) in images.items()}, target)
    assert f._moves is not None  # the relabel path is taken
    got = f(source.from_terms(s_terms))
    src_cap, cap = (source.max_t_order, source.max_weight), (target.max_t_order, target.max_weight)
    want = ref_substitute(
        ref_truncate(s_terms, *src_cap), ref_images(images, target.n_vars), target.n_vars, *cap
    )
    assert got.ctx == target
    assert terms(got) == want
    assert_canonical(got)


# (source variables, target variables, target caps or None for the source's,
# {source variable: (target variable or None for 0, sign)}); source caps (5, 4)
RELABELS = {
    "permutation": (3, 3, None, {0: (1, 1), 1: (2, 1), 2: (0, 1)}),
    "non-injective": (2, 2, None, {1: (0, 1)}),
    "zero image": (2, 2, None, {1: (None, 1)}),
    "negated": (2, 2, None, {0: (1, -1), 1: (0, 1)}),
    "retarget 2 to 3": (2, 3, None, {0: (2, 1), 1: (0, -1)}),
    "retarget 3 to 2": (3, 2, None, {0: (1, 1), 1: (0, 1), 2: (0, -1)}),
    # a t-order cap of 4 keeps the field width of 5, so the keys still move
    "smaller caps": (2, 3, (4, 4), {0: (0, 1), 1: (2, -1)}),
}


@pytest.mark.parametrize("kind", COEFF_KINDS)
@pytest.mark.parametrize("shape", sorted(RELABELS))
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.data())
def test_relabel_matches_reference(shape, kind, data):
    n_source, n_target, caps, images = RELABELS[shape]
    source = RingContext(n_source, kind, 5, 4)
    target = RingContext(n_target, kind, *(caps or (5, 4)))
    assert_relabel_matches_reference(source, target, images, data.draw(term_dicts(source)))


@SETTINGS
@given(st.data())
def test_random_relabels_match_reference(data):
    source = data.draw(contexts())
    n_target = data.draw(st.integers(1, 3)) if data.draw(st.booleans()) else None
    if n_target is None:
        target = source
        assigned = sorted(data.draw(st.sets(st.integers(0, source.n_vars - 1))))
    else:
        # caps at most the source's that keep its generator fields, so keys still move
        caps = [
            (t, w)
            for t in range(source.max_t_order + 1)
            for w in range(source.max_weight + 1)
            if same_generator_fields(source, RingContext(n_target, source.coeff_kind, t, w))
        ]
        target = RingContext(n_target, source.coeff_kind, *data.draw(st.sampled_from(caps)))
        assigned = range(source.n_vars)
    images = {
        j: (data.draw(st.one_of(st.none(), st.integers(0, target.n_vars - 1))),
            data.draw(st.sampled_from((1, -1))))
        for j in assigned
    }
    assert_relabel_matches_reference(source, target, images, data.draw(term_dicts(source)))


@pytest.mark.parametrize("kind", COEFF_KINDS)
@pytest.mark.parametrize("image", ["2 * t1", "1 * t1 + 1 * t2", "1 * t1^2", "1/2 * t2"])
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.data())
def test_images_that_are_not_variables_take_the_general_path(kind, image, data):
    ctx = RingContext(2, kind, 5, 4)
    value = TruncatedSeries.from_text(ctx, image)
    f = RingMap(ctx, {0: value, 1: ctx.var(0)}, ctx)
    assert f._moves is None
    s_terms = data.draw(term_dicts(ctx))
    cap = (ctx.max_t_order, ctx.max_weight)
    want = ref_substitute(
        ref_truncate(s_terms, *cap), {0: dict(value.items()), 1: dict(ctx.var(0).items())},
        2, *cap,
    )
    got = f(ctx.from_terms(s_terms))
    assert terms(got) == want
    assert_canonical(got)


# -- ring maps that fold one-term images into the term's key -----------------------

FOLD_SOURCE_CAPS = (4, 3)
# the source's caps, or other caps with another field width (and, for
# universal-rational, fewer generators), so that generator parts are re-encoded
FOLD_TARGETS = {"same caps": (3, (4, 3)), "other caps": (2, (3, 2))}


@st.composite
def one_term_image(draw, ctx, t_order, min_weight=0):
    """c * m^alpha * t^beta over ``ctx`` with |beta| = ``t_order`` and a
    generator part of weight ``min_weight``..2 (0 for rational)."""
    t = [0] * ctx.n_vars
    for _ in range(t_order):
        t[draw(st.integers(0, ctx.n_vars - 1))] += 1
    w = 0 if ctx.coeff_kind == "rational" else draw(st.integers(min_weight, 2))
    laz = draw(st.sampled_from(lazard_monomials(ctx.coeff_kind, w)))
    return ctx.from_terms({Monomial(tuple(t), laz): draw(coefficients.filter(bool))})


def box(ctx):
    """Every monomial inside the caps of ``ctx``, with assorted nonzero rationals."""
    monos = [
        m
        for k in range(ctx.max_t_order + 1)
        for w in range(ctx.max_weight + 1)
        for m in bidegree_basis(ctx, k - w, k)
    ]
    return {m: Fraction(i % 7 - 3 or 5, i % 4 + 1) for i, m in enumerate(monos)}


# the source variables whose images have two terms; the others have one
FOLD_SHAPES = {"folded": (), "mixed": (2,), "two multi-term": (0, 2)}


@pytest.mark.parametrize("kind", COEFF_KINDS)
@pytest.mark.parametrize("target_caps", sorted(FOLD_TARGETS))
@pytest.mark.parametrize("shape", sorted(FOLD_SHAPES))
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(st.data())
def test_folded_images_match_reference_at_the_cap_edges(kind, target_caps, shape, data):
    # t1 -> t-order 1 (or unassigned), t2 -> t-order 2 with a generator part,
    # t3 -> t-order 1 or 2; a two-term image instead is multiplied in by the
    # pair loop after the one-term ones have folded, and with two of them the
    # term forms a series_mul intermediate first
    source = RingContext(3, kind, *FOLD_SOURCE_CAPS)
    n_target, caps = FOLD_TARGETS[target_caps]
    target = RingContext(n_target, kind, *caps)
    images = {1: data.draw(one_term_image(target, 2, min_weight=1))}
    for j in (0, 2):
        if j in FOLD_SHAPES[shape]:
            images[j] = data.draw(one_term_image(target, 1)) + data.draw(one_term_image(target, 2))
            assert len(images[j]._terms) == 2
        # with the source's caps, t1 may stay unassigned and fold as itself
        elif j == 2 or target != source or data.draw(st.booleans()):
            t_order = data.draw(st.integers(1, 2)) if j == 2 else 1
            images[j] = data.draw(one_term_image(target, t_order))
    f = RingMap(source, images, target)
    assert f._moves is None and f._same_gens == (target == source)

    s_terms = box(source)
    if 0 not in FOLD_SHAPES[shape]:
        # the folds of t1 and t2 alone land on and one past both caps of the target
        (x1, _), = images.get(0, target.var(0)).items()
        (x2, _), = images[1].items()
        folds = {
            (m.t[0] * x1.t_order() + m.t[1] * x2.t_order(),
             m.weight() + m.t[0] * x1.weight() + m.t[1] * x2.weight())
            for m in s_terms
            if m.t[2] == 0
        }
        max_t, max_w = caps
        assert {max_t, max_t + 1} <= {t for t, _ in folds}
        if kind != "rational":
            assert {max_w, max_w + 1} <= {w for _, w in folds}

    got = f(source.from_terms(s_terms))
    want = ref_substitute(
        s_terms, {j: dict(v.items()) for j, v in images.items()}, n_target, *caps
    )
    assert got.ctx == target
    assert terms(got) == want
    assert_canonical(got)
