import copy
import doctest
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc.series import (
    COEFF_KINDS,
    ContextMismatch,
    Monomial,
    RingContext,
    RingMap,
    SubstitutionError,
    TruncatedSeries,
    bidegree_basis,
    compositional_inverse,
    derivative,
    lazard_count,
    lazard_monomials,
    series_add,
    series_mul,
    sparse_coordinates,
    substitute,
)

from oracles import enumerate_window
from strategies import assert_canonical, contexts, series


@pytest.fixture
def qctx():
    return RingContext(2, "rational", 6, 0)


@pytest.fixture
def uctx():
    return RingContext(2, "universal-rational", 6, 5)


def test_add_basic(qctx):
    t1, t2 = qctx.var(0), qctx.var(1)
    assert series_add(t1 + t2, t2).to_text() == "1 * t1 + 2 * t2"
    s = t1 * t2 + 3 * t1
    assert series_add(s, qctx.zero()) == s
    assert series_add(t1, -t1).is_zero()
    assert not series_add(t1, -t1)._terms


def test_add_rejects_context_mismatch(qctx):
    other = RingContext(2, "rational", 5, 0)
    with pytest.raises(ContextMismatch):
        series_add(qctx.var(0), other.var(0))


def test_mul_basic(qctx):
    t1, t2 = qctx.var(0), qctx.var(1)
    assert series_mul(t1, t2).to_text() == "1 * t1*t2"
    # direct polynomial expansion oracle: (1+a)(1-a+a^2) = 1 + a^3
    got = series_mul(qctx.one() + t1, qctx.one() - t1 + t1 * t1)
    assert got == qctx.one() + t1 ** 3


def test_mul_weight_truncation():
    ctx = RingContext(2, "universal-rational", 6, 1)
    m1 = ctx.lazard(1)
    a = m1 * ctx.var(0)
    b = m1 * ctx.var(1)
    assert series_mul(a, b).is_zero()  # weight 2 exceeds the cap of 1


def test_substitute_examples(qctx):
    t1, t2 = qctx.var(0), qctx.var(1)
    assert substitute(t1 * t1, {0: t1 + t2}) == t1 ** 2 + 2 * t1 * t2 + t2 ** 2
    s = t1 * t2 + t1 ** 3
    assert substitute(s, {0: t1, 1: t2}) == s
    assert substitute(t1 * t2, {0: t2, 1: t1}) == t1 * t2


def test_substitute_rejects_constant_term(qctx):
    with pytest.raises(SubstitutionError):
        substitute(qctx.var(0), {0: qctx.one() + qctx.var(0)})


def test_substitute_rejects_missing_vars_on_retarget(qctx):
    big = RingContext(3, "rational", 6, 0)
    with pytest.raises(SubstitutionError):
        substitute(qctx.var(0) + qctx.var(1), {0: big.var(0)})


def test_substitute_retarget(qctx):
    big = RingContext(3, "rational", 6, 0)
    s = qctx.var(0) * qctx.var(1)
    out = substitute(s, {0: big.var(2), 1: big.var(0) + big.var(1)})
    assert out == big.var(2) * (big.var(0) + big.var(1))


def _refusal_cases():
    q = RingContext(2, "rational", 6, 0)
    big = RingContext(3, "rational", 6, 0)
    beta = RingContext(2, "multiplicative-beta", 6, 2)
    t1, t2 = q.var(0), q.var(1)
    # (series, assignment, target): each is refused by substitute
    return {
        "index out of range": (t1, {2: t1}, None),
        "negative index": (t1, {-1: t1}, None),
        "coefficient kind": (t1, {0: beta.var(0)}, None),
        "target kind": (t1, {}, beta),
        "images in two contexts": (t1, {0: t1, 1: big.var(0)}, None),
        "image outside the target": (t1, {0: t1}, big),
        "constant term": (t1, {0: q.one() + t1}, None),
        "generator constant term": (t1, {0: beta.lazard(1) + beta.var(0)}, beta),
        "unassigned variable on retarget": (t1 + t2, {0: big.var(0)}, None),
    }


@pytest.mark.parametrize("case", sorted(_refusal_cases()))
def test_ring_map_refuses_like_substitute(case):
    s, assignment, target = _refusal_cases()[case]
    with pytest.raises(ValueError) as by_substitute:
        substitute(s, assignment, target)
    with pytest.raises(ValueError) as by_map:
        RingMap(s.ctx, assignment, target)(s)
    assert by_map.type is by_substitute.type
    assert str(by_map.value) == str(by_substitute.value)


def test_ring_map_checks_the_assignment_once_and_the_series_per_call(qctx):
    big = RingContext(3, "rational", 6, 0)
    # assignment refusals come from the constructor, before any series is seen
    with pytest.raises(SubstitutionError):
        RingMap(qctx, {0: qctx.one() + qctx.var(0)})
    with pytest.raises(ValueError, match="out of range"):
        RingMap(qctx, {5: qctx.var(0)})
    # a retargeting map is fine as long as each series only uses assigned variables
    first_only = RingMap(qctx, {0: big.var(2)}, big)
    assert first_only(qctx.var(0) ** 2) == big.var(2) ** 2
    with pytest.raises(SubstitutionError, match="missing"):
        first_only(qctx.var(1))
    with pytest.raises(ContextMismatch):
        first_only(big.var(0))


def test_ring_map_shares_its_power_table(qctx, monkeypatch):
    from cobcalc import series

    calls = []

    def counting(name):
        original = getattr(series, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(series, name, wrapper)

    # both product entry points, the pair loop they and the map share, and
    # the squaring pass of mul_into
    counting("series_mul")
    counting("mul_into")
    counting("_pairs_into")
    counting("_square_into")
    t1, t2 = qctx.var(0), qctx.var(1)
    phi = RingMap(qctx, {0: t1 + t2})
    s = t1 ** 3 * t2
    names = ("series_mul", "mul_into", "_pairs_into", "_square_into")
    calls.clear()
    image = phi(s)
    built = tuple(calls.count(name) for name in names)
    calls.clear()
    assert phi(s) == image
    again = tuple(calls.count(name) for name in names)
    # first call: series_mul builds (t1 + t2)^2 as a square and (t1 + t2)^3 by
    # a pair loop; the one-term power t2 folds into the term, whose product
    # with (t1 + t2)^3 is one more pair loop, straight into the image.  The
    # second call reuses both powers: no product, only the term's pair loop.
    assert (built, again) == ((2, 2, 2, 1), (0, 0, 1, 0))
    assert image == substitute(s, {0: t1 + t2})
    # an even power is the square of its half: t1^4 needs no (t1 + t2)^3
    phi = RingMap(qctx, {0: t1 + t2})
    assert phi(t1 ** 4) == substitute(t1 ** 4, {0: t1 + t2})
    assert sorted(phi._powers) == [(0, 1), (0, 2), (0, 4)]


def test_ring_map_hands_mul_into_no_one_term_factor(monkeypatch, capsys):
    # a term's one-term factors fold into its key, so the associativity
    # composition of fgl check forms no product with a one-term operand
    # outside the power table
    from cobcalc import cli, series

    call = RingMap.__call__.__code__
    one_term, pair_loops = [], [0]
    mul_into, pairs_into = series.mul_into, series._pairs_into

    def caller():
        frame = sys._getframe(2)
        if frame.f_code.co_name == "series_mul":
            frame = frame.f_back
        return frame.f_code

    def counting_mul_into(acc, den, a, b):
        if caller() is call and min(len(a._terms), len(b._terms)) == 1:
            one_term.append((a, b))
        return mul_into(acc, den, a, b)

    def counting_pairs_into(acc, left, factor, b):
        pair_loops[0] += caller() is call
        return pairs_into(acc, left, factor, b)

    monkeypatch.setattr(series, "mul_into", counting_mul_into)
    monkeypatch.setattr(series, "_pairs_into", counting_pairs_into)
    assert cli.main("fgl check --kind universal --max-t 6 --max-w 5".split()) == 0
    capsys.readouterr()
    assert pair_loops[0] > 0
    assert one_term == []


def test_bidegree_basis_examples(uctx):
    assert bidegree_basis(uctx, 1, 1) == [
        Monomial((1, 0), ()),
        Monomial((0, 1), ()),
    ]
    one_var = RingContext(1, "universal-rational", 6, 5)
    assert bidegree_basis(one_var, 0, 1) == [Monomial((1,), ((1, 1),))]
    got = bidegree_basis(one_var, 0, 2)
    assert set(got) == {Monomial((2,), ((1, 2),)), Monomial((2,), ((2, 1),))}


def test_bidegree_basis_matches_enumeration():
    for kind, w in (("rational", 0), ("multiplicative-beta", 3), ("universal-rational", 4)):
        ctx = RingContext(2, kind, 5, w)
        for d in range(-4, 5):
            for k in range(0, 6):
                assert bidegree_basis(ctx, d, k) == enumerate_window(2, 5, w, kind, d, k)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.sampled_from(COEFF_KINDS), st.integers(1, 4), st.integers(0, 6), st.integers(0, 5))
def test_bidegree_basis_comes_sorted(kind, n_vars, max_t, max_w):
    # bidegree_basis builds its list in canonical order and sorts nothing
    ctx = RingContext(n_vars, kind, max_t, max_w)
    for k in range(max_t + 1):
        for d in range(k - max_w, k + 1):
            got = bidegree_basis(ctx, d, k)
            assert got == sorted(got, key=Monomial.sort_key)


def test_rational_kind_rejects_generators(qctx):
    with pytest.raises(ValueError):
        qctx.lazard(1)


def test_multiplicative_kind_only_beta():
    ctx = RingContext(1, "multiplicative-beta", 4, 4)
    assert ctx.lazard(1).to_text() == "1 * b"
    with pytest.raises(ValueError):
        ctx.lazard(2)


def test_text_roundtrip(uctx):
    rng = random.Random(7)
    from cobcalc.selftest import random_series

    for _ in range(50):
        s = random_series(rng, uctx, n_terms=5)
        assert TruncatedSeries.from_text(uctx, s.to_text()) == s
        assert s.to_text() == TruncatedSeries.from_text(uctx, s.to_text()).to_text()


def test_equality_is_termwise(qctx):
    a = qctx.var(0) + qctx.var(1)
    b = qctx.var(1) + qctx.var(0)
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("args", [(), ("ctx", {})])
def test_the_class_refuses_to_be_called_and_names_the_constructors(qctx, args):
    with pytest.raises(TypeError, match="from_terms"):
        TruncatedSeries(*(qctx if a == "ctx" else a for a in args))


def test_a_series_copies_without_its_constructor(qctx):
    s = qctx.var(0) + qctx.one()
    assert copy.copy(s) == s and copy.deepcopy(s) == s


def test_caps_drop_silently(qctx):
    t1 = qctx.var(0)
    assert (t1 ** 6 * t1).is_zero()
    assert t1 ** 7 == qctx.zero()


def test_series_doctests():
    from cobcalc import series

    result = doctest.testmod(series)
    assert result.failed == 0 and result.attempted >= 6


@pytest.mark.parametrize("kind", ["rational", "multiplicative-beta", "universal-rational"])
@pytest.mark.parametrize("caps", [(0, 0), (1, 0), (3, 2), (9, 1)])
def test_var_is_the_one_term_series(kind, caps):
    ctx = RingContext(3, kind, *caps)
    for j in range(3):
        t = tuple(int(i == j) for i in range(3))
        assert ctx.var(j) == ctx.from_terms({Monomial(t, ()): 1})
    assert ctx.var(0).is_zero() == (caps[0] == 0)


@pytest.mark.parametrize("kind", COEFF_KINDS)
def test_lazard_count_counts_the_listed_monomials(kind):
    for weight in range(-3, 31):
        assert lazard_count(kind, weight) == len(lazard_monomials(kind, weight))
        if weight < 0:
            assert lazard_monomials(kind, weight) == ()


def test_lazard_count_reads_one_partition_table():
    # partitions of 0..400 by the part-size recurrence, asked for out of order
    counts = [1] + [0] * 400
    for part in range(1, 401):
        for n in range(part, 401):
            counts[n] += counts[n - part]
    weights = list(range(401))
    random.Random(7).shuffle(weights)
    assert all(lazard_count("universal-rational", w) == counts[w] for w in weights)
    assert lazard_count("universal-rational", -1) == 0


@pytest.mark.parametrize("kind", COEFF_KINDS)
def test_window_is_the_least_cap_of_the_same_field_width(kind):
    for max_t in range(21):
        for max_w in range(13):
            ctx = RingContext(1, kind, max_t, max_w)
            for v in range(max_t + 1):
                window = ctx.window(v)
                assert (window.n_vars, window.coeff_kind, window.max_weight) == (1, kind, max_w)
                assert v <= window.max_t_order <= max_t
                # series move in and out by the relabel, which copies key fields
                assert RingMap(ctx, {0: window.var(0)}, window)._moves is not None
                assert RingMap(window, {0: ctx.var(0)}, ctx)._moves is not None
                if window.max_t_order > v:
                    narrower = RingContext(1, kind, window.max_t_order - 1, max_w)
                    assert narrower._layout.mask != ctx._layout.mask


@pytest.mark.parametrize("kind", COEFF_KINDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_derivative_is_termwise_and_obeys_leibniz(kind, data):
    ctx = data.draw(contexts(kind=kind))
    a, b = data.draw(series(ctx)), data.draw(series(ctx))
    j = data.draw(st.integers(0, ctx.n_vars - 1))
    want = {}
    for m, c in a.iter_terms():
        e = m.t[j]
        if e:
            want[Monomial(m.t[:j] + (e - 1,) + m.t[j + 1:], m.laz)] = c * e
    da = derivative(a, j)
    assert da == ctx.from_terms(want)
    assert_canonical(da)
    # d(a * b) has no part of the top t-order; there da * b lacks what
    # the terms of a beyond the cap would give
    leibniz = da * b + a * derivative(b, j)
    assert derivative(a * b, j) == leibniz - leibniz.t_slice(ctx.max_t_order)


@st.composite
def monomials_in_caps(draw):
    """A context of any kind, with weight caps up to 2000 (so up to 2000
    generator fields for the universal kind), and a monomial inside its caps
    with a sparse generator part."""
    kind = draw(st.sampled_from(COEFF_KINDS))
    max_t = draw(st.integers(0, 20))
    max_w = draw(st.one_of(st.integers(0, 12), st.integers(1000, 2000)))
    ctx = RingContext(draw(st.integers(1, 4)), kind, max_t, max_w)
    t = [0] * ctx.n_vars
    for _ in range(draw(st.integers(0, max_t))):
        t[draw(st.integers(0, ctx.n_vars - 1))] += 1
    laz, weight = {}, 0
    n_gens = {"rational": 0, "multiplicative-beta": 1}.get(kind, max_w)
    for _ in range(draw(st.integers(0, 6)) if n_gens else 0):
        # the first and the last generator field included
        i = draw(st.one_of(st.just(1), st.just(n_gens), st.integers(1, n_gens)))
        e = draw(st.integers(1, max(1, max_w // i)))
        if i not in laz and weight + i * e <= max_w:
            laz[i], weight = e, weight + i * e
    return ctx, Monomial(tuple(t), tuple(sorted(laz.items())))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(monomials_in_caps())
def test_decode_inverts_encode(case):
    ctx, mono = case
    layout = ctx._layout
    key = layout.encode(mono)
    assert layout.key_of(mono) == key
    assert layout.decode(key) == mono
    assert ctx.from_terms({mono: 1}).items() == [(mono, 1)]


_Q2 = RingContext(2, "rational", 3, 0)
_U1 = RingContext(1, "universal-rational", 3, 2)


# one row per refusal of the series layer's own input checks: the call, the
# exception type and the whole message
@pytest.mark.parametrize("call, exc, message", [
    (lambda: _Q2.var(2), ValueError, "variable index 2 out of range"),
    (lambda: _U1.from_terms({Monomial((1,), ((1, 0),)): 1}), ValueError,
     "generator exponents must be positive"),
    (lambda: _Q2.from_terms({Monomial((1,), ()): 1}), ValueError,
     "monomial has wrong number of variables"),
    (lambda: _Q2.from_terms({Monomial((-1, 1), ()): 1}), ValueError,
     "variable exponents must be non-negative"),
    (lambda: TruncatedSeries.from_text(_Q2, "1 * t3"), ValueError, "variable t3 out of range"),
    (lambda: sparse_coordinates([_Q2.var(0) + _Q2.var(1)], [Monomial((1, 0), ())], strict=True),
     ValueError, "series has terms outside the basis"),
    (lambda: compositional_inverse(_Q2.var(0)), ValueError,
     "compositional inverse needs a one-variable series"),
    (lambda: compositional_inverse(2 * _U1.var(0)), ValueError, "series must start with x"),
    (lambda: bidegree_basis(_Q2, 0, 4), ValueError, "t-order 4 outside [0, 3]"),
    # the generator part `coefficient` reads: indices strictly increasing
    (lambda: _U1.from_terms({Monomial((1,), ((1, 1), (1, 1))): 1}), ValueError,
     "generator indices must strictly increase"),
    (lambda: _U1.from_terms({Monomial((1,), ((2, 1), (1, 1))): 1}), ValueError,
     "generator indices must strictly increase"),
    # exact input only: no float becomes a Fraction
    (lambda: _Q2.constant(0.1), ValueError, "coefficients must be int or Fraction, got float"),
    (lambda: _Q2.from_terms({Monomial((1, 0), ()): 0.5}), ValueError,
     "coefficients must be int or Fraction, got float"),
    (lambda: _Q2.var(0).scale(0.5), ValueError, "coefficients must be int or Fraction, got float"),
], ids=["var-index", "generator-exponent", "monomial-length", "negative-exponent",
        "text-variable", "strict-coordinates", "inverse-variables", "inverse-linear-term",
        "bidegree-t-order", "repeated-generator", "unsorted-generators", "float-constant",
        "float-coefficient", "float-scale"])
def test_series_refusals(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value) == message
