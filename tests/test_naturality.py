"""Naturality in the coefficients: every computation commutes with the ring
map that classifies a law (`fgl.specialize`).

The universal law lives over Q[m1, m2, ...], and the additive and the
multiplicative laws are its images under m_i -> 0 and m_i -> b^i/(i+1),
read off the logarithms.  The map keeps t-order and weight, so it carries
the caps over, and each computation of the package is natural in the
coefficients: the specialized universal result must equal the same
computation over the target law, on the specialized inputs.  Each test
draws universal inputs (derandomized) and checks both targets: the four
law series against `build_fgl`, `fgl_sum` and `n_series`,
`character_class` and the `weyl_map` images, the spans of
`invariant_bases` (as reduced echelon forms: the universal basis is larger
and specializes onto a spanning set), `thom_class` on its closed-form and
product routes, `pb_mul`, and the `sif` identity s^* s_*(a) = a * c_top(E).
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc.bundles import (
    ProjBundleRing,
    SplitBundle,
    direct_sum,
    pb_mul,
    projective_completion_ring,
    thom_class,
    top_chern_class,
    zero_section_pushforward,
    zero_section_restriction,
)
from cobcalc.equivariant import character_class, invariant_bases, preset, weyl_map
from cobcalc.fgl import build_fgl, fgl_sum, n_series, ring_context, specialize
from cobcalc.series import ContextMismatch, RingContext, reduced_basis

from strategies import series

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=15)

TARGETS = ("additive", "multiplicative")
# (t-order cap, weight cap); (3, 5) puts the universal Thom class on its
# product route while the additive one takes the closed form
CAPS = ((4, 3), (5, 4), (3, 5))


@lru_cache(maxsize=None)
def law_at(kind, max_t, max_w):
    return build_fgl(kind, max_t, max_w)


def laws(data):
    """A target kind and the universal and target laws at drawn caps."""
    target = data.draw(st.sampled_from(TARGETS))
    caps = data.draw(st.sampled_from(CAPS))
    return target, law_at("universal", *caps), law_at(target, *caps)


def spec_all(values, kind):
    return [specialize(s, kind) for s in values]


# -- the map itself -------------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_specialize_is_a_ring_map_into_the_target_context(data):
    target = data.draw(st.sampled_from(TARGETS))
    ctx = RingContext(data.draw(st.integers(1, 2)), "universal-rational", 4, 3)
    a, b = data.draw(series(ctx)), data.draw(series(ctx))
    image = specialize(a, target)
    assert image.ctx == ring_context(target, ctx.n_vars, 4, 3)
    assert specialize(a * b, target) == image * specialize(b, target)
    assert specialize(a - b, target) == image - specialize(b, target)
    assert specialize(ctx.one(), target) == image.ctx.one()


def test_specialize_to_the_universal_law_is_the_identity():
    s = law_at("universal", 4, 3).series
    assert specialize(s, "universal") is s


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_specialize_refuses_a_series_that_is_not_universal(kind):
    with pytest.raises(ContextMismatch) as info:
        specialize(law_at(kind, 4, 3).series, "additive")
    coeff_kind = ring_context(kind, 1, 4, 3).coeff_kind
    assert str(info.value) == f"specialize maps universal series, not {coeff_kind}"


# -- fgl --------------------------------------------------------------------------------


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.sampled_from(TARGETS), st.integers(2, 8), st.data())
def test_the_universal_law_specializes_to_the_built_law(target, max_t, data):
    max_w = data.draw(st.integers(0, max_t))
    universal, law = law_at("universal", max_t, max_w), law_at(target, max_t, max_w)
    for name in ("series", "inverse_series", "log", "exp"):
        assert specialize(getattr(universal, name), target) == getattr(law, name), name


@SETTINGS
@given(st.data())
def test_fgl_sum_and_n_series_commute_with_specializing(data):
    target, universal, law = laws(data)
    ctx = universal.context(data.draw(st.integers(1, 2)))
    a = data.draw(series(ctx, augmentation=True))
    b = data.draw(series(ctx, augmentation=True))
    n = data.draw(st.integers(-3, 3))
    sa, sb = specialize(a, target), specialize(b, target)
    assert specialize(fgl_sum(universal, a, b), target) == fgl_sum(law, sa, sb)
    assert specialize(n_series(universal, n, a), target) == n_series(law, n, sa)


# -- equivariant ------------------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_character_classes_and_weyl_images_commute_with_specializing(data):
    target, universal, law = laws(data)
    group = preset(data.draw(st.sampled_from(["GL2", "SL2", "B2", "GL3"])))
    ctx_u, ctx_t = universal.context(group.rank), law.context(group.rank)
    char = data.draw(st.lists(st.integers(-2, 2), min_size=group.rank, max_size=group.rank))
    assert specialize(character_class(universal, char, ctx_u), target) == character_class(
        law, char, ctx_t
    )
    s = data.draw(series(ctx_u))
    for w in group.weyl.generators:
        image = weyl_map(w, universal, ctx_u)(s)
        assert specialize(image, target) == weyl_map(w, law, ctx_t)(specialize(s, target))


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("group, caps", [
    ("GL2", (4, 3)), ("SL2", (4, 3)), ("B2", (4, 3)), ("GL3", (4, 3)), ("GL2", (6, 5)),
])
def test_invariant_spans_commute_with_specializing(target, group, caps):
    # the universal basis has more vectors than the target's: its images
    # span the target's invariants, so the reduced echelon forms agree
    weyl, k_max = preset(group).weyl, caps[0]
    degrees = range(-caps[1], k_max + 1)
    universal = invariant_bases(weyl, law_at("universal", *caps), degrees, k_max)
    specialized = invariant_bases(weyl, law_at(target, *caps), degrees, k_max)
    for d in degrees:
        assert reduced_basis(spec_all(universal[d], target), k_max) == specialized[d], d


# -- bundles ----------------------------------------------------------------------------


def bundle_pair(data, ctx, target, rank):
    roots = [data.draw(series(ctx, augmentation=True)) for _ in range(rank)]
    return SplitBundle(roots), SplitBundle(spec_all(roots, target))


def coords(element, target):
    return spec_all(element.coords, target)


@SETTINGS
@given(st.data())
def test_thom_classes_commute_with_specializing_on_both_routes(data):
    target, universal, law = laws(data)
    ctx = universal.context(data.draw(st.integers(1, 2)))
    rank = data.draw(st.integers(1, 2))
    bundle_u, bundle_t = bundle_pair(data, ctx, target, rank)
    # E's own completion takes the closed form where the law is exact in the
    # window; a completion of E + E' takes the product route
    extra_u, extra_t = bundle_pair(data, ctx, target, 1)
    for summand in (False, True):
        total_u = direct_sum(bundle_u, extra_u) if summand else bundle_u
        total_t = direct_sum(bundle_t, extra_t) if summand else bundle_t
        th_u = thom_class(bundle_u, projective_completion_ring(total_u), universal)
        th_t = thom_class(bundle_t, projective_completion_ring(total_t), law)
        assert coords(th_u, target) == list(th_t.coords)


@SETTINGS
@given(st.data())
def test_pb_mul_commutes_with_specializing(data):
    target, universal, _ = laws(data)
    base = universal.context(data.draw(st.integers(1, 2)))
    rank = data.draw(st.integers(1, 3))
    chern = [data.draw(series(base, augmentation=True)) for _ in range(rank)]
    ring_u = ProjBundleRing(base, chern)
    base_t = ring_context(target, base.n_vars, base.max_t_order, base.max_weight)
    ring_t = ProjBundleRing(base_t, spec_all(chern, target))
    u = ring_u.from_coords([data.draw(series(base)) for _ in range(rank)])
    v = ring_u.from_coords([data.draw(series(base)) for _ in range(rank)])
    u_t, v_t = (ring_t.from_coords(coords(x, target)) for x in (u, v))
    assert coords(pb_mul(ring_u, u, v), target) == list(pb_mul(ring_t, u_t, v_t).coords)


@SETTINGS
@given(st.data())
def test_self_intersection_commutes_with_specializing(data):
    # the sif identity s^* s_*(a) = a * c_top(E): each side, and so the residual
    target, universal, law = laws(data)
    ctx = universal.context(data.draw(st.integers(1, 2)))
    bundle_u, bundle_t = bundle_pair(data, ctx, target, data.draw(st.integers(1, 3)))
    a = data.draw(series(ctx))
    a_t = specialize(a, target)
    sides = []
    for bundle, law_, x in ((bundle_u, universal, a), (bundle_t, law, a_t)):
        ring = projective_completion_ring(bundle)
        got = zero_section_restriction(zero_section_pushforward(x, bundle, ring, law_))
        sides.append((got, got - x * top_chern_class(bundle)))
    assert spec_all(sides[0], target) == list(sides[1])
