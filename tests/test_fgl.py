import doctest
import random
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import fgl, series
from cobcalc.fgl import (
    FGL_KINDS,
    FglConstructionError,
    build_fgl,
    compositional_inverse,
    fgl_inverse,
    fgl_sum,
    n_series,
    normalize_kind,
    ring_context,
    specialize,
    verify_fgl_axioms,
)
from cobcalc.series import (
    COEFF_KINDS,
    Monomial,
    RingContext,
    TruncatedSeries,
    lazard_monomials,
    substitute,
)

from oracles import (
    direct_associativity_residual,
    multiplicative_inverse_sympy,
    ref_composition_certificate,
    ref_compositional_inverse,
    ref_invariant_logarithm,
    ref_inverse_residual,
    ref_law,
    ref_unit_residuals,
    series_to_sympy,
    universal_fgl_sympy,
)


def law(kind, max_t=6, max_w=5):
    return build_fgl(kind, max_t, max_w)


@lru_cache(maxsize=None)
def cached_law(kind, max_t, max_w):
    return build_fgl(kind, max_t, max_w)


def test_kind_aliases():
    assert normalize_kind("universal") == "universal-rational"
    assert normalize_kind("additive") == "additive"
    with pytest.raises(ValueError):
        normalize_kind("elliptic")


def test_additive_is_sum():
    F = law("additive")
    ctx2 = F.series.ctx
    assert F.series == ctx2.var(0) + ctx2.var(1)


def test_multiplicative_shape():
    F = law("multiplicative")
    ctx2 = F.series.ctx
    x, y = ctx2.var(0), ctx2.var(1)
    assert F.series == x + y - ctx2.lazard(1) * x * y


def test_additive_law_lives_over_q_at_weight_cap_zero():
    law = build_fgl("additive", 6, 5)
    assert law.max_weight == 0 and law.coeff_kind == "rational"
    assert ring_context("add", 3, 6, 5) == RingContext(3, "rational", 6, 0)
    assert ring_context("mult", 1, 6, 5) == RingContext(1, "multiplicative-beta", 6, 5)


@pytest.mark.parametrize("kind", FGL_KINDS)
@pytest.mark.parametrize("max_t, max_w", [(6, -1), (-1, 5)])
def test_negative_caps_are_refused_for_every_kind(kind, max_t, max_w):
    # the additive weight cap is zeroed only after the caps are checked
    with pytest.raises(ValueError, match="truncation caps must be non-negative"):
        build_fgl(kind, max_t, max_w)
    with pytest.raises(ValueError, match="truncation caps must be non-negative"):
        ring_context(kind, 2, max_t, max_w)


def test_build_needs_degree_two():
    with pytest.raises(ValueError):
        build_fgl("additive", 1, 0)


def test_universal_low_coefficients_frozen():
    # values computed with the brute-force compositional-inversion oracle
    F = law("universal-rational")
    terms = {m: c for m, c in F.series.items()}
    m1 = ((1, 1),)
    assert terms[Monomial((1, 1), m1)] == Fraction(-2)
    assert terms[Monomial((2, 1), ((1, 2),))] == Fraction(4)
    assert terms[Monomial((2, 1), ((2, 1),))] == Fraction(-3)


def test_universal_matches_sympy_oracle():
    order = 5
    F = law("universal-rational", order, order - 1)
    F_oracle, x, y, ms = universal_fgl_sympy(order)
    got = series_to_sympy(F.series, (x, y), lambda i: ms[i - 1])
    assert sympy.expand(got - F_oracle) == 0


def test_fgl_sum_examples():
    for kind, expected in (
        ("additive", "1 * t1 + 1 * t2"),
        ("multiplicative", "1 * t1 + 1 * t2 + -1 * b*t1*t2"),
    ):
        F = law(kind)
        ctx = F.context(2)
        assert fgl_sum(F, ctx.var(0), ctx.var(1)).to_text() == expected


def test_fgl_sum_universal_degree3_coefficient():
    F = law("universal-rational")
    ctx = F.context(2)
    s = fgl_sum(F, ctx.var(0), ctx.var(1))
    # oracle: expand exp(log t1 + log t2) through degree 3 by brute force
    c = {m: v for m, v in s.items()}
    assert c[Monomial((2, 1), ((1, 2),))] == Fraction(4)
    assert c[Monomial((2, 1), ((2, 1),))] == Fraction(-3)


def test_fgl_inverse_examples():
    add = law("additive")
    ctx = add.context(1)
    assert fgl_inverse(add, ctx.var(0)) == -ctx.var(0)

    mult = law("multiplicative")
    chi_oracle, xs, bs = multiplicative_inverse_sympy(mult.max_t_order)
    got = series_to_sympy(mult.inverse_series, (xs,), lambda i: bs)
    # the weight cap kills b^k x^(k+1) for k > max_w; drop those in the oracle too
    kept = 0
    for k in range(mult.max_t_order + 1):
        coeff = sympy.expand(chi_oracle.coeff(xs, k))
        if coeff != 0 and sympy.degree(coeff, bs) <= mult.max_weight:
            kept += coeff * xs**k
    assert sympy.expand(got - kept) == 0


def test_fgl_inverse_defining_property():
    rng = random.Random(5)
    from cobcalc.selftest import random_series

    for kind in ("additive", "multiplicative", "universal-rational"):
        F = law(kind, 5, 4)
        ctx = F.context(2)
        for _ in range(10):
            a = random_series(rng, ctx, augmentation=True)
            assert fgl_sum(F, a, fgl_inverse(F, a)).is_zero()


def test_n_series_examples():
    add = law("additive")
    ctx1 = add.context(1)
    assert n_series(add, 5, ctx1.var(0)) == ctx1.var(0).scale(5)

    mult = law("multiplicative")
    mctx = mult.context(1)
    x = mctx.var(0)
    assert n_series(mult, 2, x) == 2 * x - mctx.lazard(1) * x * x

    uni = law("universal-rational")
    uctx = uni.context(2)
    a = uctx.var(0) + uctx.var(1) * uctx.var(1)
    assert n_series(uni, 1, a) == a
    assert n_series(uni, 0, a).is_zero()


# one row per refusal of the law layer's own input checks: the call, the
# exception type and the whole message
@pytest.mark.parametrize("call, exc, message", [
    # a multiplier is an int: True is not read as 1, nor 2.0 as 2
    (lambda: n_series(law("additive"), True, law("additive").context(1).var(0)), ValueError,
     "n-series multiplier must be int, got bool"),
    (lambda: n_series(law("additive"), 2.0, law("additive").context(1).var(0)), ValueError,
     "n-series multiplier must be int, got float"),
], ids=["bool-multiplier", "float-multiplier"])
def test_fgl_refusals(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value) == message


def test_axiom_reports_all_kinds():
    for kind in ("additive", "multiplicative", "universal-rational"):
        report = verify_fgl_axioms(law(kind).series)
        assert report.ok
        for _, residual in report.residuals:
            assert residual.is_zero()


def hand_made_law(text):
    """The series F(x, y) = ``text`` over Q at caps (6, 0)."""
    return TruncatedSeries.from_text(RingContext(2, "rational", 6, 0), text)


def axioms_and_arities(F):
    """verify_fgl_axioms(F), and the variable counts of the ring contexts
    built while it ran."""
    arities = []
    init = RingContext.__init__

    def recording(self, n_vars, *args, **kwargs):
        arities.append(n_vars)
        init(self, n_vars, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RingContext, "__init__", recording)
        return verify_fgl_axioms(F), arities


def test_commutative_nonassociative_law_fails_associativity():
    report, arities = axioms_and_arities(hand_made_law("1 * t1 + 1 * t2 + 1 * t1^2*t2^2"))
    assert report.unit_ok and report.comm_ok
    assert not report.assoc_ok
    # the differential residual G(x, y) - G(y, x), G = F_2(x, 0) * dF/dx,
    # needs no 3-variable context
    assert 3 not in arities


def test_noncommutative_law_reports_the_direct_residual():
    F = hand_made_law("1 * t1 + 1 * t2 + 1 * t1^2*t2")
    report, arities = axioms_and_arities(F)
    assert report.unit_ok and not report.comm_ok
    residuals = dict(report.residuals)
    assert residuals["assoc"] == direct_associativity_residual(F)
    assert not report.assoc_ok
    assert 3 in arities


def test_multiplicative_law_with_unit_coefficient_passes():
    F = hand_made_law("1 * t1 + 1 * t2 + 1 * t1*t2")
    report, arities = axioms_and_arities(F)
    assert report.unit_ok and report.comm_ok and report.assoc_ok
    assert direct_associativity_residual(F).is_zero()
    assert 3 not in arities


@pytest.mark.parametrize("kind", FGL_KINDS)
def test_built_laws_build_no_three_variable_context(kind):
    report, arities = axioms_and_arities(law(kind).series)
    assert report.ok
    assert 3 not in arities


def test_law_without_unit_takes_the_direct_residual():
    F = hand_made_law("2 * t1 + 2 * t2")
    report = verify_fgl_axioms(F)
    assert not report.unit_ok and report.comm_ok
    assert dict(report.residuals)["assoc"] == direct_associativity_residual(F)
    assert not report.assoc_ok


def test_law_without_a_y_slice_takes_the_direct_residual():
    # no y^1 term, so no invariant differential: the unit axiom fails first
    F = hand_made_law("1 * t1^2*t2^2")
    report = verify_fgl_axioms(F)
    assert not report.unit_ok and report.comm_ok
    assert dict(report.residuals)["assoc"] == direct_associativity_residual(F)


@pytest.mark.parametrize("max_t", [0, 1])
def test_certificate_at_caps_below_degree_two(max_t):
    # at t-order cap 0 the law x + y is 0 and has no y^1 slice at all
    ctx = RingContext(2, "rational", max_t, 0)
    F = ctx.var(0) + ctx.var(1)
    report = verify_fgl_axioms(F)
    assert report.ok


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.data())
def test_certificate_verdict_matches_the_direct_residual(data):
    # F plus c * m * (x^i y^j + x^j y^i) with i, j >= 1 keeps unit and
    # commutativity; the certificate must agree with the 3-variable residual
    # and with the composition L(F(x, y)) - L(x) - L(y) it replaced
    kind = data.draw(st.sampled_from(FGL_KINDS))
    max_t = data.draw(st.integers(3, 7))
    max_w = data.draw(st.integers(0, 6))
    ctx = ring_context(kind, 2, max_t, max_w)
    F = cached_law(kind, max_t, max_w).series
    i = data.draw(st.integers(1, max_t - 1))
    j = data.draw(st.integers(1, max_t - i))
    weight = data.draw(st.integers(0, 0 if kind == "additive" else max_w))
    laz = data.draw(st.sampled_from(lazard_monomials(ctx.coeff_kind, weight)))
    c = data.draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
    bump = dict.fromkeys({Monomial((i, j), laz), Monomial((j, i), laz)}, c)
    mutant = F + ctx.from_terms(bump)
    report = verify_fgl_axioms(mutant)
    assert report.unit_ok and report.comm_ok
    direct = direct_associativity_residual(mutant).is_zero()
    assert report.assoc_ok == direct == ref_composition_certificate(mutant).is_zero()


@pytest.mark.parametrize("kind", FGL_KINDS)
@pytest.mark.parametrize("max_t", [4, 8])
def test_top_order_bumps_keep_the_verdict_where_the_window_keeps_the_cap(kind, max_t):
    # at these caps the window below the top t-order keeps the cap, so the
    # top slice of F_2(x, 0) * dF/dx, which dF/dx cannot make whole, must be
    # dropped by hand.  Adding c((x + y)^n - x^n - y^n) at the top order n is
    # the change of coordinates x -> x - c x^n there, so the law stays
    # associative in the window; x^k y^k is no multiple of it and breaks it
    ctx = ring_context(kind, 2, max_t, max_t - 1)
    assert ctx.window(max_t - 1).max_t_order == max_t
    F = cached_law(kind, max_t, max_t - 1).series
    x, y = ctx.var(0), ctx.var(1)
    coboundary = (x + y) ** max_t - x ** max_t - y ** max_t
    k = max_t // 2
    for bump, associative in ((coboundary.scale(Fraction(-2, 3)), True), (x ** k * y ** k, False)):
        mutant = F + bump
        report = verify_fgl_axioms(mutant)
        assert report.unit_ok and report.comm_ok
        assert report.assoc_ok == associative
        assert direct_associativity_residual(mutant).is_zero() == associative


@pytest.mark.parametrize("case", [*FGL_KINDS, "1 * t1 + 1 * t2 + 1 * t1^2*t2^2"])
def test_axiom_maps_only_relabel_for_a_law_with_unit_and_commutativity(case, monkeypatch):
    # every RingMap built while the axioms are checked sends each variable
    # to 0 or +-t_k, so no power of F is formed behind the checks' backs
    F = law(case).series if case in FGL_KINDS else hand_made_law(case)
    built = []
    init = series.RingMap.__init__

    def recording(self, source, images, target=None):
        init(self, source, images, target)
        built.append((images, self.target))

    monkeypatch.setattr(series.RingMap, "__init__", recording)
    report = verify_fgl_axioms(F)
    assert report.unit_ok and report.comm_ok
    assert built
    for images, target in built:
        signed = {v for k in range(target.n_vars) for v in (target.var(k), -target.var(k))}
        assert all(v.is_zero() or v in signed for v in images.values())


@pytest.mark.parametrize("kind", FGL_KINDS)
@pytest.mark.parametrize("max_t", [2, 3, 5, 7])
@pytest.mark.parametrize("max_w", [0, 1, 4, 8])
def test_stored_log_is_the_invariant_logarithm_of_F(kind, max_t, max_w):
    # the stored log came through compositional_inverse and exp; the oracle
    # reads L = integral of dx / F_2(x, 0) from F alone
    law = cached_law(kind, max_t, max_w)
    assert ref_invariant_logarithm(law.series) == law.log


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.data())
def test_unit_residuals_match_the_substitutions(data):
    # a built law plus c * m * x^i y^j with i + j >= 1: the unit axiom
    # fails when the term is free of x or of y
    kind = data.draw(st.sampled_from(FGL_KINDS))
    ctx = ring_context(kind, 2, data.draw(st.integers(2, 5)), data.draw(st.integers(0, 4)))
    i = data.draw(st.integers(0, ctx.max_t_order))
    j = data.draw(st.integers(1 if i == 0 else 0, ctx.max_t_order - i))
    weight = data.draw(st.integers(0, 0 if kind == "additive" else ctx.max_weight))
    laz = data.draw(st.sampled_from(lazard_monomials(ctx.coeff_kind, weight)))
    c = data.draw(st.fractions(-3, 3, max_denominator=4))
    F = cached_law(kind, ctx.max_t_order, ctx.max_weight).series + ctx.from_terms({Monomial((i, j), laz): c})
    report = verify_fgl_axioms(F)
    residuals = dict(report.residuals)
    want = ref_unit_residuals(F)
    assert (residuals["unit_x"], residuals["unit_y"]) == want
    assert report.unit_ok == (want[0].is_zero() and want[1].is_zero())
    assert report.unit_ok == (c == 0 or (i > 0 and j > 0))


def test_log_exp_identities():
    F = law("universal-rational", 7, 6)
    x = F.log.ctx.var(0)
    assert substitute(F.log, {0: F.exp}) == x
    assert substitute(F.exp, {0: F.log}) == x


def test_universal_shadow_is_additive():
    F = law("universal-rational")
    shadow = specialize(F.series, "additive")
    assert shadow == shadow.ctx.var(0) + shadow.ctx.var(1)


def test_fgl_doctests():
    result = doctest.testmod(fgl)
    assert result.failed == 0 and result.attempted >= 5


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.sampled_from(FGL_KINDS), st.integers(2, 7), st.integers(0, 8))
def test_law_matches_per_kind_reference(kind, max_t, max_w):
    # the reference builds F per kind and chi order by order, without exp(-log x)
    ctx = ring_context(kind, 2, max_t, max_w)
    law = build_fgl(kind, max_t, max_w)
    F, chi = ref_law(kind, ctx)
    assert law.series == F
    assert law.inverse_series == chi


@pytest.mark.parametrize("kind", FGL_KINDS)
def test_every_kind_has_log_and_exp(kind):
    law = build_fgl(kind, 6, 5)
    x = law.log.ctx.var(0)
    assert law.log.t_slice(1) == x
    assert substitute(law.log, {0: law.exp}) == x
    assert substitute(law.exp, {0: -law.log}) == law.inverse_series


def test_multiplicative_law_without_b():
    # at weight cap 0 the generator b is not admitted: the law is additive
    law = build_fgl("multiplicative", 4, 0)
    ctx1 = law.log.ctx
    assert law.log == ctx1.var(0) and law.exp == ctx1.var(0)
    assert law.series == law.series.ctx.var(0) + law.series.ctx.var(1)
    assert law.inverse_series == -ctx1.var(0)


def test_multiplicative_log_coefficients():
    law = build_fgl("multiplicative", 5, 3)
    assert law.log.to_text() == "1 * t1 + 1/2 * b*t1^2 + 1/3 * b^2*t1^3 + 1/4 * b^3*t1^4"


def test_wrong_inverse_is_refused(monkeypatch):
    exps = []
    real_inverse, real_sub = fgl.compositional_inverse, fgl.substitute

    def inverse(f):
        exps.append(real_inverse(f))
        return exps[-1]

    def sub(s, assignment, target=None):
        image = real_sub(s, assignment, target)
        # exp(-log x) is chi, the one map of exp that keeps its context
        return image + image.ctx.var(0) ** 2 if s is exps[-1] and target is None else image

    # F = exp(log x + log y) is intact, so its axioms hold and only chi is wrong
    monkeypatch.setattr(fgl, "compositional_inverse", inverse)
    monkeypatch.setattr(fgl, "substitute", sub)
    with pytest.raises(FglConstructionError, match="chi"):
        build_fgl("additive", 4, 0)


# -- compositional_inverse: one pass per order, each in its own window ----------


@st.composite
def series_starting_with_x(draw):
    """f = x + sum c * m * x^e over any coefficient kind, at t-order cap 2..10 and
    weight cap 0..12 drawn below half the t-order cap (windows narrower than f's
    field width), at or over it, or anywhere.  Every term has degree (t-order
    minus weight) 1, so the passes may stop early, or any degree."""
    kind = draw(st.sampled_from(COEFF_KINDS))
    max_t = draw(st.integers(2, 10))
    max_w = draw(st.sampled_from([
        st.integers(0, max(0, max_t // 2 - 1)), st.integers(max_t, 12), st.integers(0, 12),
    ]).flatmap(lambda weights: weights))
    ctx = RingContext(1, kind, max_t, max_w)
    degree_one = draw(st.booleans())
    terms = {Monomial((1,), ()): Fraction(1)}
    for _ in range(draw(st.integers(0, 4))):
        e = draw(st.integers(2, max_t))
        weight = e - 1 if degree_one else draw(st.integers(0, max_w))
        choices = lazard_monomials(kind, weight)
        if choices:
            laz = draw(st.sampled_from(choices))
            terms[Monomial((e,), laz)] = draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
    return ctx.from_terms(terms)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(series_starting_with_x())
def test_compositional_inverse_matches_the_fixed_point_loop(f):
    assert compositional_inverse(f) == ref_compositional_inverse(f)


def _composition_caps(monkeypatch, f):
    """The t-order caps of the windows compositional_inverse(f) composes in."""
    caps = []
    real = series.substitute

    def recording(s, assignment, target=None):
        # a composition maps f's truncations by g; a move maps by a bare variable
        if s.ctx == f.ctx and target is not None and assignment[0] != target.var(0):
            caps.append(target.max_t_order)
        return real(s, assignment, target)

    monkeypatch.setattr(series, "substitute", recording)
    compositional_inverse(f)
    return caps


@pytest.mark.parametrize(
    "kind, max_t, max_w, caps",
    [
        # f(x) = f at pass 2; log has degree 1, so the passes stop at max_w + 1
        ("universal-rational", 10, 9, list(range(3, 11))),
        ("universal-rational", 14, 13, list(range(3, 15))),
        ("multiplicative", 7, 5, [3, 4, 5, 6]),
        # windows of t-order cap < 8 would narrow the field width of (14, *)
        ("universal-rational", 14, 2, [8]),
        ("multiplicative", 14, 4, [8, 8, 8]),
        ("universal-rational", 12, 0, []),
    ],
)
def test_inverse_pass_v_composes_in_window_v(kind, max_t, max_w, caps, monkeypatch):
    f = cached_law(kind, max_t, max_w).log
    assert _composition_caps(monkeypatch, f) == caps


def test_inverse_of_a_series_of_other_degree_runs_every_order(monkeypatch):
    # x + x^2 over Q: degree 2, so no early stop at weight cap 0
    ctx = RingContext(1, "rational", 6, 0)
    f = ctx.var(0) + ctx.var(0) ** 2
    assert _composition_caps(monkeypatch, f) == [4, 4, 5, 6]
    assert compositional_inverse(f) == ref_compositional_inverse(f)


# -- F(x, chi(x)) = 0 through the stored log, tied to F by u(x) * log'(x) = 1 -----


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.data())
def test_chi_check_through_the_certificate_matches_the_direct_residual(data):
    # chi plus c * m * x^k inside the caps (c = 0 leaves it right): the check
    # build_fgl makes through the stored log must agree with the residual
    # F(x, chi(x))
    kind = data.draw(st.sampled_from(FGL_KINDS))
    max_t = data.draw(st.integers(2, 7))
    max_w = data.draw(st.integers(0, 6))
    ctx = ring_context(kind, 2, max_t, max_w)
    law = cached_law(kind, max_t, max_w)
    assert law.axioms.ok
    k = data.draw(st.integers(2, max_t))
    weight = data.draw(st.integers(0, 0 if kind == "additive" else max_w))
    laz = data.draw(st.sampled_from(lazard_monomials(ctx.coeff_kind, weight)))
    c = data.draw(st.fractions(-3, 3, max_denominator=4))
    chi = law.inverse_series
    mutant = chi + chi.ctx.from_terms({Monomial((k,), laz): c})
    verdict = fgl._inverts(law.series, mutant, law.log)
    assert verdict == ref_inverse_residual(law.series, mutant).is_zero() == (c == 0)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.data())
def test_chi_check_refuses_every_log_mutant(data):
    # log plus c * m * x^k inside the caps, c != 0, swapped in after F and chi
    # are built (a mutant log in build_fgl would rebuild a consistent F around it):
    # F still satisfies its axioms, so the check alone must refuse
    kind = data.draw(st.sampled_from(FGL_KINDS))
    max_t = data.draw(st.integers(2, 7))
    max_w = data.draw(st.integers(0, 6))
    law = cached_law(kind, max_t, max_w)
    k = data.draw(st.integers(0, max_t))
    weight = data.draw(st.integers(0, law.max_weight))
    laz = data.draw(st.sampled_from(lazard_monomials(law.coeff_kind, weight)))
    c = data.draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
    mutant = law.log + law.log.ctx.from_terms({Monomial((k,), laz): c})
    assert not fgl._inverts(law.series, law.inverse_series, mutant)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_a_log_mutant_the_composition_misses_is_refused_by_the_differential(k):
    # over the additive law chi = -x is odd, so log + x^k with k odd keeps
    # log(chi(x)) + log(x) = 0: only u(x) * log'(x) = 1 sees the mutant
    law = cached_law("additive", 6, 0)
    mutant = law.log + law.log.ctx.var(0) ** k
    assert (substitute(mutant, {0: law.inverse_series}) + mutant).is_zero()
    assert not fgl._inverts(law.series, law.inverse_series, mutant)


def test_wrong_log_is_refused(monkeypatch):
    # F and chi are built from the true log; the check is handed log + x^3
    real = fgl._inverts
    monkeypatch.setattr(
        fgl, "_inverts", lambda F, chi, log: real(F, chi, log + log.ctx.var(0) ** 3)
    )
    with pytest.raises(FglConstructionError, match="chi or log is not that of F for additive"):
        build_fgl("additive", 4, 0)


def _recorded_calls(monkeypatch):
    """Record derivative's series and substitute's (series, target)."""
    derivs, subs = [], []
    real_derivative, real_sub = fgl.derivative, fgl.substitute

    def derivative(s, j):
        derivs.append(s)
        return real_derivative(s, j)

    def sub(s, assignment, target=None):
        subs.append((s, target or s.ctx))
        return real_sub(s, assignment, target)

    monkeypatch.setattr(fgl, "derivative", derivative)
    monkeypatch.setattr(fgl, "substitute", sub)
    return derivs, subs


@pytest.mark.parametrize("kind", FGL_KINDS)
def test_build_takes_one_L_and_no_chi_substitution_into_F(kind, monkeypatch):
    derivs, subs = _recorded_calls(monkeypatch)
    law = build_fgl(kind, 6, 5)
    # the one L is the stored log, differentiated once; F once, for associativity
    assert derivs == [law.series, law.log]
    assert not [s for s, target in subs if s is law.series and target.n_vars == 1]


def test_a_law_failing_its_axioms_is_refused_before_chi_is_checked(monkeypatch):
    def refuse(*args):
        raise AssertionError("a law failing its axioms gets no chi check")

    real = fgl.compositional_inverse
    monkeypatch.setattr(fgl, "compositional_inverse", lambda f: real(f) + f.ctx.var(0) ** 2)
    monkeypatch.setattr(fgl, "_inverts", refuse)
    derivs, subs = _recorded_calls(monkeypatch)
    with pytest.raises(FglConstructionError, match=r"axiom residuals nonzero for additive: \['unit_x'"):
        build_fgl("additive", 4, 0)
    # the unit axiom fails, so nothing is differentiated and F(x, chi(x)) is never formed
    assert derivs == []
    assert not [s for s, target in subs if s.ctx.n_vars == 2 and target.n_vars == 1]
