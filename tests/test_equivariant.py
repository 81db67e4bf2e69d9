import random

import pytest

from cobcalc import equivariant
from cobcalc.equivariant import (
    EnumerationCapExceeded,
    WeylGroupSpec,
    bg_dimensions,
    character_class,
    invariant_basis,
    preset,
    signed_permutation_group,
    symmetric_group,
    weyl_apply,
    window_basis,
)
from cobcalc.fgl import build_fgl
from cobcalc.series import RingContext, sparse_coordinates

from oracles import count_poly_monomials, permutation_orbit_count


def law(kind, max_t=6, max_w=5):
    coeff = {"additive": "rational",
             "multiplicative": "multiplicative-beta",
             "universal-rational": "universal-rational"}[kind]
    return build_fgl(kind, RingContext(2, coeff, max_t, 0 if kind == "additive" else max_w))


def test_preset_orders():
    assert len(preset("GL2").weyl.elements()) == 2
    assert len(preset("GL3").weyl.elements()) == 6
    assert len(preset("GL4").weyl.elements()) == 24
    assert len(preset("SL2").weyl.elements()) == 2
    assert len(preset("torus3").weyl.elements()) == 1
    assert len(preset("B2").weyl.elements()) == 8
    assert len(preset("C3").weyl.elements()) == 48


@pytest.mark.parametrize(
    "name", ["GL1", "GL2", "GL3", "GL4", "GL5", "SL2", "torus1", "torus3", "B1", "B2", "C3"]
)
def test_preset_weyl_order_matches_enumeration(name):
    group = preset(name)
    assert group.weyl_order == len(group.weyl.elements())


def test_preset_name_variants():
    assert preset("GL(2)").rank == 2
    assert preset("torus(4)").rank == 4
    with pytest.raises(ValueError):
        preset("E8")


def test_weyl_spec_rejects_non_unimodular():
    with pytest.raises(ValueError):
        WeylGroupSpec(rank=1, generators=(((2,),),))


def test_only_signed_permutations_skip_the_determinant(monkeypatch):
    dets = []
    original = equivariant.linalg.inverse

    def counting(rows):
        dets.append(rows)
        return original(rows)

    monkeypatch.setattr(equivariant.linalg, "inverse", counting)
    preset("GL6")
    preset("B3")
    assert dets == []
    # a unimodular matrix that is no signed permutation still gets its elimination
    WeylGroupSpec(rank=2, generators=(((1, 1), (0, 1)),))
    assert len(dets) == 1
    # one +-1 per row but a repeated column, a 2, a full row and a zero row
    for gen in (((1, 0), (-1, 0)), ((0, 2), (1, 0)), ((1, 1), (1, 1)), ((1, -1), (0, 0))):
        with pytest.raises(ValueError, match="not invertible"):
            WeylGroupSpec(rank=2, generators=(gen,))
    assert len(dets) == 5


def test_enumeration_cap():
    spec = WeylGroupSpec(rank=4, generators=symmetric_group(4).generators, max_elements=5)
    with pytest.raises(EnumerationCapExceeded):
        spec.elements()


def test_enumeration_is_computed_once():
    spec = symmetric_group(3)
    first = spec.elements()
    assert spec.elements() is first
    # the kept enumeration takes no part in equality or hashing
    fresh = symmetric_group(3)
    assert fresh == spec and hash(fresh) == hash(spec)


def test_character_class_examples():
    add = law("additive")
    ctx = add.context(2)
    assert character_class(add, (1, 1), ctx) == ctx.var(0) + ctx.var(1)
    assert character_class(add, (2, -1), ctx) == 2 * ctx.var(0) - ctx.var(1)

    mult = law("multiplicative")
    mctx = mult.context(2)
    t1, t2 = mctx.var(0), mctx.var(1)
    assert character_class(mult, (1, 1), mctx) == t1 + t2 - mctx.lazard(1) * t1 * t2


def test_weyl_apply_examples():
    add = law("additive")
    ctx = add.context(2)
    t1, t2 = ctx.var(0), ctx.var(1)
    swap = ((0, 1), (1, 0))
    ident = ((1, 0), (0, 1))
    assert weyl_apply(swap, t1, add) == t2
    s = t1 * t2 + t1 ** 2
    assert weyl_apply(ident, s, add) == s
    assert weyl_apply(swap, t1 * t2, add) == t1 * t2


def test_weyl_apply_left_action_universal():
    uni = law("universal-rational", 4, 3)
    g = preset("B2")
    ctx = uni.context(2)
    rng = random.Random(3)
    from cobcalc.selftest import random_series
    from cobcalc.equivariant import int_mat_mul

    els = g.weyl.elements()
    for _ in range(3):
        s = random_series(rng, ctx)
        for w1 in els[:4]:
            for w2 in els[:4]:
                assert weyl_apply(w1, weyl_apply(w2, s, uni), uni) == weyl_apply(
                    int_mat_mul(w1, w2), s, uni
                )


def test_invariant_basis_s2_degree2():
    add = law("additive")
    g = preset("GL2")
    basis = invariant_basis(g.weyl, add, 2, 2)
    assert len(basis) == 2
    ctx = basis[0].ctx
    t1, t2 = ctx.var(0), ctx.var(1)
    span_targets = [t1 ** 2 + t2 ** 2, t1 * t2]
    # both symmetric elements must lie in the computed span
    from cobcalc import linalg
    from cobcalc.equivariant import window_basis

    window = window_basis(ctx, 2, 2)

    rows = [nums for nums, _ in sparse_coordinates(basis, window, strict=True)]
    for vec, _ in sparse_coordinates(span_targets, window, strict=True):
        assert len(linalg.echelon(rows + [vec])) == len(linalg.echelon(rows))


def test_invariant_basis_s2_degree1():
    add = law("additive")
    g = preset("GL2")
    basis = invariant_basis(g.weyl, add, 1, 3)
    assert len(basis) == 1
    ctx = basis[0].ctx
    assert basis[0] == ctx.var(0) + ctx.var(1) or basis[0] == (ctx.var(0) + ctx.var(1)).scale(
        basis[0].items()[0][1]
    )


def test_invariant_dimension_s3_degree3():
    add = law("additive")
    g = preset("GL3")
    assert len(invariant_basis(g.weyl, add, 3, 3)) == 3  # partitions of 3 into <= 3 parts


def test_bg_dimensions_gl2_additive():
    dims = bg_dimensions(preset("GL2"), law("additive"), range(4), 3)
    assert dims == {0: 1, 1: 1, 2: 2, 3: 2}


def test_bg_dimensions_match_poly_counts():
    for n in (2, 3):
        dims = bg_dimensions(preset(f"GL{n}"), law("additive"), range(5), 4)
        assert dims == {d: count_poly_monomials(range(1, n + 1), d) for d in range(5)}


def test_bg_dimensions_torus_full_window():
    uni = law("universal-rational", 4, 3)
    dims = bg_dimensions(preset("torus1"), uni, range(3), 3)
    ctx = uni.context(1)
    for d, dim in dims.items():
        assert dim == len(window_basis(ctx, d, 3))


def test_bg_dimensions_sl2_additive():
    add = law("additive")
    dims = bg_dimensions(preset("SL2"), add, [1, 2, 3, 4], 4)
    assert dims == {1: 0, 2: 1, 3: 0, 4: 1}  # even powers of t survive t -> -t


def test_universal_invariants_match_orbit_count():
    uni = law("universal-rational", 4, 3)
    for n in (2, 3):
        g = preset(f"GL{n}")
        ctx = uni.context(n)
        for d in range(0, 5):
            window = window_basis(ctx, d, 4)
            dim = len(invariant_basis(g.weyl, uni, d, 4, ctx))
            assert dim == permutation_orbit_count(window)


def test_invariant_basis_fixed_by_generators():
    uni = law("universal-rational", 4, 3)
    g = preset("SL2")
    ctx = uni.context(1)
    for d in range(0, 3):
        for v in invariant_basis(g.weyl, uni, d, 3, ctx):
            for w in g.weyl.generators:
                image = weyl_apply(w, v, uni)
                image = ctx.from_terms(
                    {m: c for m, c in image.iter_terms() if m.t_order() <= 3}
                )
                assert image == v


def test_signed_permutations_rank_cap():
    assert signed_permutation_group(3).rank == 3
    with pytest.raises(ValueError):
        signed_permutation_group(4)
