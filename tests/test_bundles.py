import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc.bundles import (
    ProjBundleRing,
    SplitBundle,
    diagonal_map,
    direct_sum,
    flag_restriction,
    pb_mul,
    projective_completion_ring,
    reduce_by_division,
    tautological_inverse_class,
    thom_class,
    thom_class_via_twist,
    top_chern_class,
    trivial_bundle_ring,
    xi_power,
    zero_section_pushforward,
    zero_section_restriction,
)
from cobcalc.equivariant import preset, weyl_map
from cobcalc.fgl import build_fgl, fgl_inverse, fgl_sum
from cobcalc.selftest import random_series
from cobcalc.series import COEFF_KINDS, ContextMismatch, RingContext

from oracles import ref_chern, ref_reduce_coords
from strategies import series

ALL_KINDS = ("additive", "multiplicative", "universal-rational")


def law(kind, max_t=6, max_w=4):
    return build_fgl(kind, max_t, max_w)


def test_chern_classes_examples():
    add = law("additive")
    ctx = add.context(2)
    t1, t2 = ctx.var(0), ctx.var(1)
    c = SplitBundle((t1, t2)).chern
    assert c[0] == t1 + t2
    assert c[1] == t1 * t2
    z = SplitBundle((ctx.zero(), ctx.zero()))
    assert all(ci.is_zero() for ci in z.chern)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.data())
def test_chern_recurrence_stops_at_the_t_order_cap(data):
    # ranks up to the t-order cap and past it, where c_k for k > max_t is zero
    kind = data.draw(st.sampled_from(COEFF_KINDS))
    max_t = data.draw(st.integers(0, 4))
    ctx = RingContext(data.draw(st.integers(1, 3)), kind, max_t, data.draw(st.integers(0, 3)))
    rank = data.draw(st.integers(1, max_t + 4))
    bundle = SplitBundle([data.draw(series(ctx, augmentation=True)) for _ in range(rank)])
    assert bundle.chern == ref_chern(bundle)
    assert all(c.is_zero() for c in bundle.chern[max_t:])


def test_whitney_concatenation():
    add = law("additive")
    ctx = add.context(2)
    t1, t2 = ctx.var(0), ctx.var(1)
    e1, e2 = SplitBundle((t1,)), SplitBundle((t2, t1 + t2))
    total = direct_sum(e1, e2).chern
    c1 = (ctx.one(), *e1.chern)
    c2 = (ctx.one(), *e2.chern)
    for k in range(4):
        conv = ctx.zero()
        for i in range(k + 1):
            if i < len(c1) and k - i < len(c2):
                conv = conv + c1[i] * c2[k - i]
        ck = (ctx.one(), *total)[k] if k <= 3 else ctx.zero()
        assert conv == ck


def test_twist_by_line():
    # twisting a root by a line of class y, then by its dual chi(y), gives it back:
    # F(F(x, y), chi(y)) = x
    for kind in ("additive", "multiplicative"):
        F = law(kind)
        ctx = F.context(2)
        x, y = ctx.var(0), ctx.var(1)
        assert fgl_sum(F, fgl_sum(F, x, y), fgl_inverse(F, y)) == x


def test_pb_reduction_rank2():
    add = law("additive")
    ctx = add.context(2)
    c1, c2 = ctx.var(0) + ctx.var(1), ctx.var(0) * ctx.var(1)
    ring = ProjBundleRing(ctx, (c1, c2))
    sq = pb_mul(ring, ring.xi(), ring.xi())
    assert list(sq.coords) == [-c2, c1]  # xi^2 = c1*xi - c2


def test_trivial_bundle_xi_power_vanishes():
    add = law("additive")
    ctx = add.context(2)
    for rank in (1, 2, 3, 4):
        ring = trivial_bundle_ring(ctx, rank)
        assert xi_power(ring, rank).is_zero()
        assert not xi_power(ring, rank - 1).is_zero() or rank == 0


def test_rank_one_xi_is_c1():
    # P(L) = base: xi reduces to c1, and xi^k to c1^k
    rng = random.Random(5)
    uni = law("universal-rational", 5, 3)
    ctx = uni.context(2)
    c1 = random_series(rng, ctx, 3, augmentation=True)
    ring = ProjBundleRing(ctx, (c1,))
    assert ring.xi().coords == (c1,)
    power = ctx.one()
    for k in range(6):
        assert xi_power(ring, k).coords == (power,)
        power = power * c1


def test_from_coords_refuses_a_foreign_context():
    base = RingContext(2, "rational", 4, 0)
    other = RingContext(3, "rational", 4, 0)
    ring = trivial_bundle_ring(base, 2)
    with pytest.raises(ContextMismatch):
        ring.from_coords([other.var(2), other.var(0), other.var(1)])
    with pytest.raises(ContextMismatch):
        ring.from_coords([base.var(0), other.var(1)])
    with pytest.raises(ContextMismatch):
        ring.from_base(other.var(0))
    assert ring.from_coords([base.var(1)]) == ring.from_base(base.var(1))


def test_p2_products():
    # (1 + xi) * xi = xi + xi^2 ; (xi + xi^2) * xi = xi^2 on P^2
    add = law("additive")
    ctx = add.context(1)
    ring = trivial_bundle_ring(ctx, 3)
    xi = ring.xi()
    one = ring.one()
    first = pb_mul(ring, one + xi, xi)
    assert first == xi + pb_mul(ring, xi, xi)
    second = pb_mul(ring, first, xi)
    assert second == pb_mul(ring, xi, xi)


def test_reduction_stepwise_vs_table_vs_division():
    rng = random.Random(11)
    uni = law("universal-rational", 5, 3)
    ctx = uni.context(2)
    for rank in (2, 3):
        roots = tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(rank))
        ring = projective_completion_ring(SplitBundle(roots))
        for k in range(ring.rank, ring.rank + 3):
            coeffs = [ctx.zero()] * k + [ctx.one()]
            stepwise = ring.from_coords(ref_reduce_coords(ring, list(coeffs)))
            assert stepwise == xi_power(ring, k)
            quotient, remainder = reduce_by_division(ring, list(coeffs))
            assert list(remainder) == list(stepwise.coords)
            # reconstruction certificate: input = quotient * relation + remainder
            from cobcalc.bundles import _relation_coeffs

            rel = _relation_coeffs(ring)
            rebuilt = [ctx.zero()] * (len(quotient) + ring.rank + 1)
            for i, q in enumerate(quotient):
                for j, r in enumerate(rel):
                    rebuilt[i + j] = rebuilt[i + j] + q * r
            for i, r in enumerate(remainder):
                rebuilt[i] = rebuilt[i] + r
            padded = list(coeffs) + [ctx.zero()] * (len(rebuilt) - len(coeffs))
            assert all((a - b).is_zero() for a, b in zip(rebuilt, padded))


def test_thom_class_line_bundle_additive():
    add = law("additive")
    ctx = add.context(2)
    x = ctx.var(0)
    bundle = SplitBundle((x,))
    ring = projective_completion_ring(bundle)
    th = thom_class(bundle, ring, add)
    assert list(th.coords) == [x, -ctx.one()]  # th = x - xi


def test_thom_xi0_coordinate_is_top_chern():
    rng = random.Random(13)
    for kind in ALL_KINDS:
        F = law(kind, 5, 3)
        ctx = F.context(2)
        for rank in (1, 2, 3):
            roots = tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(rank))
            bundle = SplitBundle(roots)
            ring = projective_completion_ring(bundle)
            th = thom_class(bundle, ring, F)
            assert zero_section_restriction(th) == top_chern_class(bundle)


def test_thom_multiplicativity():
    rng = random.Random(17)
    for kind in ALL_KINDS:
        F = law(kind, 5, 3)
        ctx = F.context(2)
        for r1, r2 in ((1, 1), (1, 2), (2, 2)):
            e1 = SplitBundle(tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(r1)))
            e2 = SplitBundle(tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(r2)))
            total = direct_sum(e1, e2)
            ring = projective_completion_ring(total)
            lhs = thom_class(total, ring, F)
            rhs = pb_mul(ring, thom_class(e1, ring, F), thom_class(e2, ring, F))
            assert (lhs - rhs).is_zero()


def test_self_intersection_formula():
    rng = random.Random(19)
    for kind in ALL_KINDS:
        F = law(kind, 6, 4)
        ctx = F.context(3)
        for rank in (1, 2, 3):
            roots = tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(rank))
            bundle = SplitBundle(roots)
            ring = projective_completion_ring(bundle)
            top = top_chern_class(bundle)
            for _ in range(5):
                a = random_series(rng, ctx, 3)
                lhs = zero_section_restriction(zero_section_pushforward(a, bundle, ring, F))
                assert lhs == a * top


def test_projection_formula_linearity():
    rng = random.Random(23)
    F = law("universal-rational", 5, 3)
    ctx = F.context(2)
    bundle = SplitBundle((ctx.var(0), ctx.var(1)))
    ring = projective_completion_ring(bundle)
    a, b = random_series(rng, ctx, 3), random_series(rng, ctx, 3)
    pf = lambda s: zero_section_pushforward(s, bundle, ring, F)
    assert (pf(a + b) - (pf(a) + pf(b))).is_zero()
    # s_*(s^*(p^*(a)) * 1) = a * s_*(1)
    assert (pf(a) - pb_mul(ring, ring.from_base(a), pf(ctx.one()))).is_zero()


def test_pushforward_of_one_is_thom_class():
    F = law("multiplicative", 5, 4)
    ctx = F.context(2)
    bundle = SplitBundle((ctx.var(0),))
    ring = projective_completion_ring(bundle)
    assert zero_section_pushforward(ctx.one(), bundle, ring, F) == thom_class(bundle, ring, F)


def test_smooth_divisor_two_routes():
    rng = random.Random(29)
    for kind in ALL_KINDS:
        F = law(kind, 5, 3)
        ctx = F.context(2)
        for rank in (1, 2):
            roots = tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(rank))
            bundle = SplitBundle(roots)
            ring = projective_completion_ring(bundle)
            via_push = zero_section_pushforward(ctx.one(), bundle, ring, F)
            via_twist = thom_class_via_twist(bundle, ring, F)
            assert (via_push - via_twist).is_zero()


def test_restriction_examples():
    add = law("additive")
    ctx = add.context(2)
    ring = projective_completion_ring(SplitBundle((ctx.var(0),)))
    assert zero_section_restriction(ring.one()) == ctx.one()
    assert zero_section_restriction(ring.xi()).is_zero()


def test_eta_inverts_xi_at_base_point():
    # the xi^0 coordinate of eta is zero, so restriction kills it
    for kind in ALL_KINDS:
        F = law(kind, 5, 3)
        ctx = F.context(2)
        ring = projective_completion_ring(SplitBundle((ctx.var(0), ctx.var(1))))
        eta = tautological_inverse_class(ring, F)
        assert zero_section_restriction(eta).is_zero()


def test_flag_restriction_examples():
    add = law("additive")
    g = preset("GL2")
    ctx = add.context(2)
    t1, t2 = ctx.var(0), ctx.var(1)
    maps = [weyl_map(w, add, ctx) for w in g.weyl.elements()]
    assert flag_restriction(ctx.one(), t1, maps) == (t1, t2)
    assert flag_restriction(ctx.one(), ctx.one(), maps) == (ctx.one(), ctx.one())


def test_flag_restriction_multiplicative_and_congruent():
    rng = random.Random(31)
    for kind in ("additive", "universal-rational"):
        F = law(kind, 4, 3)
        g = preset("GL2")
        ctx = F.context(2)
        maps = [weyl_map(w, F, ctx) for w in g.weyl.elements()]
        for _ in range(20):
            a, b = random_series(rng, ctx), random_series(rng, ctx)
            a2, b2 = random_series(rng, ctx), random_series(rng, ctx)
            product = flag_restriction(a * a2, b * b2, maps)
            left = flag_restriction(a, b, maps)
            right = flag_restriction(a2, b2, maps)
            assert all((p - l * r).is_zero() for p, l, r in zip(product, left, right))
            image = [x + y for x, y in zip(left, right)]
            assert diagonal_map(ctx, 0, 1)(image[0] - image[1]).is_zero()


def test_split_bundle_validation():
    ctx = RingContext(2, "rational", 4, 0)
    with pytest.raises(ValueError):
        SplitBundle(())
    with pytest.raises(ValueError):
        SplitBundle((ctx.one(),))
    other = RingContext(2, "rational", 5, 0)
    with pytest.raises(ContextMismatch):
        SplitBundle((ctx.var(0), other.var(0)))


def test_thom_requires_completion_rank():
    add = law("additive")
    ctx = add.context(2)
    bundle = SplitBundle((ctx.var(0), ctx.var(1)))
    small = ProjBundleRing(ctx, bundle.chern)
    with pytest.raises(ValueError):
        thom_class(bundle, small, add)


def _sum_across_rings():
    ctx = RingContext(1, "rational", 3, 0)
    return trivial_bundle_ring(ctx, 1).one() + trivial_bundle_ring(ctx, 2).one()


def _thom_class_under_another_kind():
    ctx = RingContext(1, "rational", 3, 0)
    bundle = SplitBundle((ctx.var(0),))
    return thom_class(bundle, projective_completion_ring(bundle), law("multiplicative", 3, 2))


# one row per refusal of the bundle layer: the call, the exception type and
# the whole message
@pytest.mark.parametrize("call, exc, message", [
    (_sum_across_rings, ContextMismatch, "elements live in different projective bundle rings"),
    (_thom_class_under_another_kind, ContextMismatch, "coefficient kinds differ"),
], ids=["element-of-another-ring", "thom-class-law-kind"])
def test_bundle_refusals(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value) == message
