import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import equivariant
from cobcalc.equivariant import (
    EnumerationCapExceeded,
    GroupPreset,
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
    return build_fgl(kind, max_t, max_w)


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
    # leading zeros are read by int() while the digits stay under its limit
    assert preset("GL" + "0" * 4000 + "3").name == "GL(3)"
    with pytest.raises(ValueError):
        preset("E8")


def regex_preset_parse(name):
    """The name parse `preset` made with ``re`` before it read the family and
    the digits by hand: ``(family, n)``, or the ValueError message."""
    canon = name.replace("(", "").replace(")", "").replace("_", "").upper()
    if canon == "SL2":
        return "SL2", 1
    m = re.fullmatch(r"(GL|TORUS|[BC])(\d+)", canon)
    if m is None:
        return f"unknown group preset {name!r}"
    n = int(m.group(2))
    if n < 1:
        return "need at least one degree-1 variable"
    if n > equivariant.MAX_PRESET_RANK:
        return f"group rank {n} is over the preset cap of {equivariant.MAX_PRESET_RANK}"
    return m.group(1), n


PRESET_NAMES = [
    "GL٣", "gl(3)", "B_2", "torus10", "GL", "GL-1", "GL3x", "E8", "SL2", "GL0",
    "sl(2)", "SL3", "SL_2", "C(3)", "c1", "b١", "TORUS(2)", "Torus_1", "torus", "T2",
    "GL100", "GL101", "GL007", "GL 3", " GL3", "GL3 ", "GL3\n", "GL+3", "GL3.0", "GL²",
    "GLⅣ", "GL３", "GL१०", "BC2", "CB2", "GLGL2", "B", "", "()", "G L2",
    "gl((2))", "B4", "B0", "C00", "torus0", "ıtorus2",
]


def assert_parses_as_the_regex(name):
    want = regex_preset_parse(name)
    if isinstance(want, str):
        with pytest.raises(ValueError) as refused:
            preset(name)
        assert str(refused.value) == want
        return
    family, n = want
    if family in "BC" and n > 3:
        with pytest.raises(ValueError, match="rank <= 3 only"):
            preset(name)
        return
    group = preset(name)
    assert group.rank == (1 if family == "SL2" else n)
    assert group.name == {"GL": f"GL({n})", "TORUS": f"torus({n})", "SL2": "SL(2)"}.get(
        family, f"{family}{n}")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_parses_names_as_the_regex_did(name):
    assert_parses_as_the_regex(name)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(name=st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", "GL", "gl(", "G", "TORUS", "torus_", "B", "b", "C(", "SL", "E", "(("]),
        st.text(alphabet="0123٣३１²-. x", max_size=3),
        st.sampled_from(["", ")", "_", "x", "\n"]),
    ),
))
def test_preset_parses_drawn_names_as_the_regex_did(name):
    assert_parses_as_the_regex(name)


@pytest.mark.parametrize(
    "name, degrees",
    [("GL1", (1,)), ("GL4", (1, 2, 3, 4)), ("torus3", (1, 1, 1)), ("SL2", (2,)),
     ("B1", (2,)), ("B3", (2, 4, 6)), ("C2", (2, 4))],
)
def test_preset_fundamental_degrees(name, degrees):
    group = preset(name)
    assert group.fundamental_degrees == degrees
    assert math.prod(degrees) == group.weyl_order


def test_group_preset_refuses_inconsistent_degrees():
    gl2 = symmetric_group(2)
    for degrees, match in [
        ((1,), "1 fundamental degrees for a group of rank 2"),
        ((1, 2, 3), "3 fundamental degrees for a group of rank 2"),
        ((0, 2), "must be >= 1"),
        ((-1, -2), "must be >= 1"),
        ((1, 2.0), "must be int"),
        ((1, "2"), "must be int"),
        ((1, 3), "multiply to 3, not the Weyl order 2"),
    ]:
        with pytest.raises(ValueError, match=match):
            GroupPreset("GL(2)", gl2, 2, degrees)
    # without an order, only the count and the range are checked
    assert GroupPreset("GL(2)", gl2, None, [1, 3]).fundamental_degrees == (1, 3)
    with pytest.raises(ValueError, match="must be >= 1"):
        GroupPreset("GL(2)", gl2, None, (1, 0))
    with pytest.raises(ValueError, match="multiply to 2, not the Weyl order 1"):
        GroupPreset("torus(2)", WeylGroupSpec(2, ()), 1, (1, 2))


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


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(equivariant, "MAX_WEYL_ELEMENTS", 5)
    spec = symmetric_group(4)
    with pytest.raises(EnumerationCapExceeded):
        spec.elements()


def test_enumeration_is_computed_once():
    spec = symmetric_group(3)
    first = spec.elements()
    assert spec.elements() is first
    # the kept enumeration takes no part in equality or hashing
    fresh = symmetric_group(3)
    assert fresh == spec and hash(fresh) == hash(spec)


def _dense_closure(spec):
    """The closure of the generators by dense `int_mat_mul`, in BFS order."""
    n = spec.rank
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    order, frontier = [identity], [identity]
    while frontier:
        new = []
        for w in frontier:
            for g in spec.generators:
                wg = equivariant.int_mat_mul(w, g)
                if wg not in order and wg not in new:
                    new.append(wg)
        order += new
        frontier = new
    return tuple(order)


ALL_PRESETS = ["GL1", "GL2", "GL3", "GL4", "GL5", "GL6", "SL2", "torus1", "torus3",
               "B1", "B2", "B3", "C1", "C2", "C3"]


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_signed_enumeration_matches_the_dense_closure(name, monkeypatch):
    spec = preset(name).weyl
    want = _dense_closure(spec)
    # every preset generator is a signed permutation: no dense product is formed
    monkeypatch.setattr(equivariant, "int_mat_mul", None)
    assert spec.elements() == want


@pytest.mark.parametrize("generators", [
    (((0, -1), (1, -1)),),  # order 3, no signed permutation
    (((0, 1), (1, 0)), ((1, 1), (0, 1))),  # infinite: the cap stops it
])
def test_other_generators_take_the_dense_closure(generators, monkeypatch):
    monkeypatch.setattr(equivariant, "MAX_WEYL_ELEMENTS", 50)
    spec = WeylGroupSpec(rank=2, generators=generators)
    if len(generators) == 1:
        assert spec.elements() == _dense_closure(spec) and len(spec.elements()) == 3
    else:
        with pytest.raises(EnumerationCapExceeded):
            spec.elements()


def test_signed_enumeration_cap_counts_like_the_dense_one(monkeypatch):
    for cap, ok in ((23, False), (24, True)):
        monkeypatch.setattr(equivariant, "MAX_WEYL_ELEMENTS", cap)
        spec = symmetric_group(4)
        if ok:
            assert len(spec.elements()) == 24
        else:
            with pytest.raises(EnumerationCapExceeded, match=f"cap of {cap} elements"):
                spec.elements()


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
    dims = bg_dimensions(preset("GL2"), law("additive").context(2), range(4), 3)
    assert dims == {0: 1, 1: 1, 2: 2, 3: 2}


def test_bg_dimensions_match_poly_counts():
    for n in (2, 3):
        dims = bg_dimensions(preset(f"GL{n}"), law("additive").context(n), range(5), 4)
        assert dims == {d: count_poly_monomials(range(1, n + 1), d) for d in range(5)}


def test_bg_dimensions_torus_full_window():
    uni = law("universal-rational", 4, 3)
    dims = bg_dimensions(preset("torus1"), uni.context(1), range(3), 3)
    ctx = uni.context(1)
    for d, dim in dims.items():
        assert dim == len(window_basis(ctx, d, 3))


def test_bg_dimensions_sl2_additive():
    add = law("additive")
    dims = bg_dimensions(preset("SL2"), add.context(1), [1, 2, 3, 4], 4)
    assert dims == {1: 0, 2: 1, 3: 0, 4: 1}  # even powers of t survive t -> -t


def test_bg_dimensions_refuse_a_context_of_another_rank():
    for n_vars in (1, 3):
        with pytest.raises(ValueError, match="context rank"):
            bg_dimensions(preset("GL2"), RingContext(n_vars, "rational", 3, 0), range(3), 3)


def test_universal_invariants_match_orbit_count():
    uni = law("universal-rational", 4, 3)
    for n in (2, 3):
        g = preset(f"GL{n}")
        ctx = uni.context(n)
        for d in range(0, 5):
            window = window_basis(ctx, d, 4)
            dim = len(invariant_basis(g.weyl, uni, d, 4))
            assert dim == permutation_orbit_count(window)


def test_invariant_basis_fixed_by_generators():
    uni = law("universal-rational", 4, 3)
    g = preset("SL2")
    ctx = uni.context(1)
    for d in range(0, 3):
        for v in invariant_basis(g.weyl, uni, d, 3):
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


# one row per refusal of the equivariant layer: the call, the exception type
# and the whole message
@pytest.mark.parametrize("call, exc, message", [
    (lambda: character_class(law("additive"), (1,), RingContext(2, "rational", 3, 0)),
     ValueError, "character length does not match the context rank"),
    (lambda: window_basis(RingContext(1, "rational", 3, 0), 0, 4), ValueError,
     "t-order window 4 exceeds the context cap 3"),
    # exact input only: no float is truncated to an int
    (lambda: WeylGroupSpec(1, (((1.9,),),)), ValueError,
     "Weyl matrix entries must be int, got float"),
    (lambda: character_class(law("additive"), (1.5, 0), RingContext(2, "rational", 3, 0)),
     ValueError, "character entries must be int, got float"),
    # nor is a bool read as 0 or 1
    (lambda: WeylGroupSpec(1, (((True,),),)), ValueError,
     "Weyl matrix entries must be int, got bool"),
    (lambda: character_class(law("additive"), (True, 0), RingContext(2, "rational", 3, 0)),
     ValueError, "character entries must be int, got bool"),
    (lambda: GroupPreset("x", symmetric_group(2), 2, (True, 2)), ValueError,
     "fundamental degree entries must be int, got bool"),
    # a rank past Python's digit limit for int() gets the preset cap
    (lambda: preset("GL" + "1" * 5000), ValueError,
     "group rank of 5000 digits is over the preset cap of 100"),
], ids=["character-length", "window-over-cap", "float-weyl-entry", "float-character",
        "bool-weyl-entry", "bool-character", "bool-fundamental-degree", "rank-past-int-digits"])
def test_equivariant_refusals(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value) == message
