import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import linalg
from cobcalc.fgl import build_fgl, ring_context
from cobcalc.series import RingContext, window_basis
from cobcalc.towers import (
    TowerSlice,
    WindowNotStabilized,
    apply_levelwise_isomorphism,
    inverse_limit_dims,
    projective_space_tower,
    stabilization_index,
)

from oracles import ref_conjugate, ref_image_chains, ref_projective_space_tower

ALL_KINDS = ("additive", "multiplicative", "universal-rational")


def law(kind, max_t=6, max_w=5):
    return build_fgl(kind, max_t, max_w)


def int_columns(rows, n_cols):
    """A dense rational matrix as a slice's map: its integer columns, denominators cleared."""
    den = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    return [{r: int(Fraction(row[c]) * den) for r, row in enumerate(rows) if row[c]}
            for c in range(n_cols)]


def dense(columns, n_rows):
    """A slice's map read as a dense matrix."""
    return [[col.get(r, 0) for col in columns] for r in range(n_rows)]


def dense_slice(dims, maps):
    """The slice of dense rational maps."""
    return TowerSlice(dims=dims, maps=[int_columns(m, dims[i + 1]) for i, m in enumerate(maps)])


def constant_tower(value_dim, length, map_builder):
    dims = [value_dim] * (length + 1)
    maps = [map_builder(value_dim) for _ in range(length)]
    return dense_slice(dims, maps)


def test_identity_tower():
    sl = constant_tower(1, 4, linalg.identity)
    assert stabilization_index(sl) == 0
    assert inverse_limit_dims(sl) == 1


def test_surjective_tower_index_zero():
    # projections Q^2 -> Q^2 of full rank: images are everything
    def proj(dim):
        return linalg.identity(dim)

    assert stabilization_index(dense_slice([2, 2, 2, 2], [proj(2)] * 3)) == 0


def test_zero_tower():
    sl = constant_tower(1, 4, lambda d: [[0] * d for _ in range(d)])
    assert stabilization_index(sl) == 1
    assert inverse_limit_dims(sl) == 0


def test_strictly_shrinking_window_refuses():
    # rank-1 images keep dropping: window too short to certify
    dims = [3, 3, 3, 3]
    maps = []
    for step in range(3):
        m = [[0] * 3 for _ in range(3)]
        # progressively smaller rank at each composite
        for i in range(2 - step if step < 2 else 1):
            m[i][i] = Fraction(1)
        maps.append(m)
    sl = dense_slice(dims, maps)
    idx = stabilization_index(sl)
    if idx is None:
        with pytest.raises(WindowNotStabilized):
            inverse_limit_dims(sl)


def test_shape_validation():
    one = [{0: 1}]
    TowerSlice(dims=[1, 2, 0], maps=[[{0: 1}, {}], [{}] * 0])  # the shapes fit
    with pytest.raises(ValueError):
        TowerSlice(dims=[1, 1], maps=[one])  # too short
    with pytest.raises(ValueError):
        TowerSlice(dims=[1, 1, 1], maps=[one])  # a map missing
    with pytest.raises(ValueError):
        TowerSlice(dims=[1, 2, 1], maps=[one, one])  # map 0 needs two columns
    with pytest.raises(ValueError):
        TowerSlice(dims=[1, 1, 1], maps=[[{1: 1}], one])  # row 1 of a one-row space
    with pytest.raises(ValueError):
        TowerSlice(dims=[1, 1, 1], maps=[[{-1: 1}], one])
    for entry in (0, Fraction(1, 2), Fraction(1), 1.0, True, "1"):
        with pytest.raises(ValueError):
            TowerSlice(dims=[1, 1, 1], maps=[[{0: entry}], one])
    # no map counts level 0 by its columns: its dim is checked like every other level's
    for dims, maps in (([-1, 0, 0], [[], []]), ([1, -1, 0], [[], []]),
                       ([1.0, 1, 1], [one, one]), ([True, 1, 1], [one, one]),
                       (["1", 1, 1], [one, one])):
        with pytest.raises(ValueError, match="are not nonnegative ints"):
            TowerSlice(dims, maps)


@pytest.mark.parametrize("dims, message", [
    ([1, 0, 1], "not nondecreasing and nonnegative"),
    ([2, 2, 1], "not nondecreasing and nonnegative"),
    ([-1, 0, 0], "not nonnegative ints"),
    ([-2, -1, 0], "not nonnegative ints"),
], ids=["dip", "top-drop", "negative", "negative-rising"])
def test_prefix_slice_needs_nondecreasing_nonnegative_dims(dims, message):
    with pytest.raises(ValueError, match=message):
        TowerSlice(dims)


@pytest.mark.parametrize("maps", [
    [linalg.identity(2)] * 2,  # dense rows: as many as the columns asked for
    [[[1, 0], [0, 1]]] * 2,
    [[(0, 1), (1, 1)]] * 2,
    [{0: {0: 1}, 1: {1: 1}}] * 2,  # columns keyed by index, not listed
], ids=["fraction-rows", "int-rows", "tuple-columns", "dict-of-columns"])
def test_dense_maps_are_rejected(maps):
    with pytest.raises(ValueError, match="map 0 is not 2 integer columns over 2 rows"):
        TowerSlice(dims=[2, 2, 2], maps=maps)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("max_t,max_w,d_max,i_max", [
    (6, 5, 5, 3),  # levels below max_t
    (4, 3, 4, 8),  # levels above max_t
    (6, 0, 6, 3),  # no generator admitted
    (1, 5, 1, 4),
    (8, 7, 8, 12),
])
def test_projective_space_tower_matches_the_dense_reference(kind, max_t, max_w, d_max, i_max):
    ctx = ring_context(kind, 1, max_t, max_w)
    want = ref_projective_space_tower(ctx, d_max, i_max)
    assert sorted(want) == list(range(d_max + 1))
    for d, (dims, maps) in want.items():
        sl = projective_space_tower(ctx, d, i_max)
        assert sl.dims == dims
        assert sl.maps is None  # a prefix slice: its columns are built only on request
        assert [dense(sl.map(i), dims[i]) for i in range(i_max)] == maps


def test_projective_space_tower_matches_coefficient_ring():
    for kind in ALL_KINDS:
        F = law(kind)
        ctx = F.context(1)
        for d in range(6):
            sl = projective_space_tower(ctx, d, F.max_t_order + 2)
            idx = stabilization_index(sl)
            assert idx is not None and idx <= d
            assert inverse_limit_dims(sl) == len(window_basis(ctx, d, ctx.max_t_order))


def test_projective_space_tower_builds_only_the_requested_degrees():
    # one degree is one slice, whatever degrees the reference tower holds
    ctx = RingContext(1, "universal-rational", 8, 7)
    full = ref_projective_space_tower(ctx, 8, 12)
    for d in (0, 3, 8):
        assert projective_space_tower(ctx, d, 12).dims == full[d][0]
    for d, levels in ((-1, 12), (3, 1)):
        with pytest.raises(ValueError, match="need degree >= 0 and at least three levels"):
            projective_space_tower(ctx, d, levels)


_U1 = RingContext(1, "universal-rational", 4, 3)


# one row per refusal of `projective_space_tower`: the call, the exception
# type and the whole message
@pytest.mark.parametrize("call, exc, message", [
    # a degree or a level is an int: 1.5 is not read as 1, nor True as 1
    (lambda: projective_space_tower(_U1, 1.5, 5), ValueError, "degree must be int, got float"),
    (lambda: projective_space_tower(_U1, True, 5), ValueError, "degree must be int, got bool"),
    (lambda: projective_space_tower(_U1, 1, 5.0), ValueError, "top level must be int, got float"),
], ids=["float-degree", "bool-degree", "float-top-level"])
def test_tower_refusals(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value) == message


def test_projective_space_tower_level_dims_additive():
    F = law("additive")
    sl = projective_space_tower(F.context(1), 2, 6)
    # additive coefficients: degree-2 slice of Q[xi]/(xi^(i+1)) is 1-dim once i >= 2
    assert sl.dims == [0, 0, 1, 1, 1, 1, 1]


def test_short_window_refusal_universal():
    F = law("universal-rational", 6, 5)
    sl = projective_space_tower(F.context(1), 0, 3)  # far below the stabilization point
    assert stabilization_index(sl) == 0  # surjections: images never shrink
    with pytest.raises(WindowNotStabilized, match="^stable image dimensions still growing"):
        inverse_limit_dims(sl)  # dims still growing at the window end


def test_functoriality_under_levelwise_isomorphism():
    rng = random.Random(37)
    F = law("universal-rational", 4, 3)
    for d in range(4):
        sl = projective_space_tower(F.context(1), d, 6)
        mats = []
        for dim in sl.dims:
            m = linalg.identity(dim)
            for _ in range(4):
                if dim >= 2:
                    i, j = rng.sample(range(dim), 2)
                    c = Fraction(rng.randint(-3, 3))
                    for col in range(dim):
                        m[i][col] += c * m[j][col]
            mats.append(m)
        moved = apply_levelwise_isomorphism(sl, mats)
        assert stabilization_index(sl) == stabilization_index(moved)
        assert inverse_limit_dims(sl) == inverse_limit_dims(moved)


def test_stabilization_found_when_window_long_enough():
    # images can strictly decrease at most dim V_0 times
    rng = random.Random(41)
    for _ in range(20):
        dim = rng.randint(1, 3)
        length = dim + 3  # longer than any strictly-decreasing chain
        maps = []
        for _ in range(length):
            maps.append(
                [[Fraction(rng.randint(-1, 1)) for _ in range(dim)] for _ in range(dim)]
            )
        idx = stabilization_index(dense_slice([dim] * (length + 1), maps))
        # with a window this long a verdict must exist unless the final step
        # still shrank some chain, which the refusal semantics reports as None
        if idx is not None:
            assert 0 <= idx <= length


def test_limit_reuses_the_image_chains(monkeypatch):
    # every image but the identity one of each level is one call of the
    # elimination kernel
    calls = []
    original = linalg.echelon

    def counting(rows):
        calls.append(None)
        return original(rows)

    monkeypatch.setattr(linalg, "echelon", counting)
    rng = random.Random(43)
    for _ in range(10):
        dims = [rng.randint(1, 3) for _ in range(6)]
        maps = [
            [[Fraction(rng.randint(-1, 1), rng.randint(1, 2)) for _ in range(dims[i + 1])]
             for _ in range(dims[i])]
            for i in range(5)
        ]
        sl = dense_slice(dims, maps)
        calls.clear()
        idx = stabilization_index(sl)
        built = len(calls)
        assert built == 5 + 4 + 3 + 2 + 1  # one image per (level, offset > 0)
        if idx is None:
            with pytest.raises(WindowNotStabilized):
                inverse_limit_dims(sl)
            continue
        try:
            lim = inverse_limit_dims(sl)
        except WindowNotStabilized:
            lim = None
        assert len(calls) == built  # the chains were not built a second time
        if lim is not None:
            # the stable image at the next-to-top level is the image of the top map
            assert lim == len(linalg.echelon(int_columns(maps[-1], dims[-1])))


# -- propagated image chains against the composite reference ------------------------

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

entries = st.one_of(st.integers(-2, 2), st.fractions(min_value=-2, max_value=2, max_denominator=4))


@st.composite
def matrices(draw, rows, cols):
    shape = draw(st.sampled_from(["random", "zero", "identity", "rank-one"]))
    if shape == "zero":
        return [[0] * cols for _ in range(rows)]
    if shape == "identity":
        return [[int(r == c) for c in range(cols)] for r in range(rows)]
    if shape == "rank-one":
        u = draw(st.lists(entries, min_size=rows, max_size=rows))
        v = draw(st.lists(entries, min_size=cols, max_size=cols))
        return [[x * y for y in v] for x in u]
    return [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]


@st.composite
def random_towers(draw):
    """Dimensions and dense rational maps of one degree."""
    dims = draw(st.lists(st.integers(0, 3), min_size=3, max_size=7))
    maps = [draw(matrices(dims[i], dims[i + 1])) for i in range(len(dims) - 1)]
    return dims, maps


@st.composite
def invertible(draw, n):
    """A product of random shears and nonzero scalings."""
    m = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for _ in range(draw(st.integers(0, 4)) if n else 0):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        c = draw(entries)
        if i == j:
            m[i] = [x * (c or 1) for x in m[i]]
        else:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def diagnostics(sl):
    """stabilization_index and inverse_limit_dims of the slice, or the refusal text."""
    idx = stabilization_index(sl)
    try:
        return idx, inverse_limit_dims(sl)
    except WindowNotStabilized as exc:
        return idx, str(exc)


def assert_matches_reference(dims, maps):
    """The slice of the dense maps against the reference run on the dense maps themselves."""
    sl = dense_slice(dims, maps)
    # the reference's composite images, as ranks: the images of one level are nested
    want = [[len(rows) for rows in chain] for chain in ref_image_chains(dims, maps)]
    assert sl.chains == want
    with mock.patch.object(TowerSlice, "chains", property(lambda sl: want)):
        want_diagnostics = diagnostics(dense_slice(dims, maps))
    assert diagnostics(sl) == want_diagnostics
    return want, want_diagnostics


@SETTINGS
@given(random_towers())
def test_propagated_chains_match_composites(tower):
    assert_matches_reference(*tower)


@SETTINGS
@given(st.data())
def test_propagated_chains_match_composites_after_conjugation(data):
    dims, maps = data.draw(random_towers())
    transforms = [data.draw(invertible(n)) for n in dims]
    moved = apply_levelwise_isomorphism(dense_slice(dims, maps), transforms)
    moved_maps = [dense(m, dims[i]) for i, m in enumerate(moved.maps)]
    assert assert_matches_reference(dims, moved_maps) == assert_matches_reference(dims, maps)


def assert_scaled(got, want, n_rows):
    """The integer columns ``got`` are one nonzero multiple of the columns ``want``."""
    got, want = dense(got, n_rows), dense(want, n_rows)
    pairs = [(x, y) for g, w in zip(got, want) for x, y in zip(g, w)]
    scale = next((Fraction(x, y) for x, y in pairs if y), 1)
    assert scale and all(x == scale * y for x, y in pairs)


@SETTINGS
@given(st.data())
def test_conjugation_matches_the_dense_reference(data):
    dims, maps = data.draw(random_towers())
    sl = dense_slice(dims, maps)
    transforms = [data.draw(invertible(n)) for n in dims]
    got = apply_levelwise_isomorphism(sl, transforms)
    want = ref_conjugate({0: sl}, {0: transforms})[0]
    assert got.dims == dims
    for i in range(len(dims) - 1):
        assert_scaled(got.maps[i], want.maps[i], dims[i])


TWO = [[1, 0], [0, 1]]


@pytest.mark.parametrize("transforms,message", [
    ([], "need one transform per level"),
    ([TWO] * 3, "need one transform per level"),
    ([TWO, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], TWO, TWO], "transform 1 is not 2x2"),
    ([[[1, 0]], TWO, TWO, TWO], "transform 0 is not 2x2"),
    ([TWO, TWO, [[1, 0, 0], [0, 1, 0]], TWO], "transform 2 is not 2x2"),
    ([TWO, TWO, TWO, [[1, 0], [0]]], "transform 3 is not 2x2"),
    ([TWO, [[1, 1], [1, 1]], TWO, TWO], "singular"),
    ([[[1, 2], [2, 4]], TWO, TWO, TWO], "singular"),
], ids=["missing-degree", "transform-count", "wrong-size", "non-square", "wide",
        "ragged", "singular", "singular-bottom"])
def test_malformed_transforms_are_refused(transforms, message):
    with pytest.raises(ValueError, match=message):
        apply_levelwise_isomorphism(TowerSlice([2, 2, 2, 2]), transforms)


# -- counted prefix slices against the elimination ----------------------------------

@st.composite
def projective_towers(draw):
    """The projective-space tower at drawn caps and levels, every degree up to max_t."""
    kind = draw(st.sampled_from(ALL_KINDS))
    max_t = draw(st.integers(1, 10))
    max_w = draw(st.integers(0, max_t))
    levels = draw(st.integers(2, 16))
    ctx = ring_context(kind, 1, max_t, max_w)
    return [projective_space_tower(ctx, d, levels) for d in range(max_t + 1)]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.data())
def test_counted_prefix_slices_match_the_elimination(data):
    tower = data.draw(projective_towers())
    for sl in tower:
        assert sl.maps is None
        # the same slice with its projections passed explicitly takes the elimination path
        explicit = TowerSlice(sl.dims, [sl.map(i) for i in range(len(sl.dims) - 1)])
        assert diagnostics(sl) == diagnostics(explicit)
    for sl in tower:
        moved = apply_levelwise_isomorphism(sl, [data.draw(invertible(n)) for n in sl.dims])
        assert moved.maps is not None
        assert diagnostics(moved) == diagnostics(sl)
