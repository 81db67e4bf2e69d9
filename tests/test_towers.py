import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import linalg, towers
from cobcalc.fgl import build_fgl
from cobcalc.series import RingContext
from cobcalc.towers import (
    Tower,
    TowerSlice,
    WindowNotStabilized,
    apply_levelwise_isomorphism,
    coefficient_ring_dimension,
    inverse_limit_dims,
    projective_space_tower,
    stabilization_index,
)

from oracles import ref_conjugate, ref_image_chains, ref_projective_space_tower

ALL_KINDS = ("additive", "multiplicative", "universal-rational")
COEFF_KIND = {"additive": "rational",
              "multiplicative": "multiplicative-beta",
              "universal-rational": "universal-rational"}


def law(kind, max_t=6, max_w=5):
    return build_fgl(kind, RingContext(1, COEFF_KIND[kind], max_t, 0 if kind == "additive" else max_w))


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
    return Tower({0: dense_slice(dims, maps)})


def test_identity_tower():
    tower = constant_tower(1, 4, linalg.identity)
    assert stabilization_index(tower, 0) == 0
    assert inverse_limit_dims(tower, 0) == 1


def test_surjective_tower_index_zero():
    # projections Q^2 -> Q^2 of full rank: images are everything
    def proj(dim):
        return linalg.identity(dim)

    tower = Tower({0: dense_slice([2, 2, 2, 2], [proj(2)] * 3)})
    assert stabilization_index(tower, 0) == 0


def test_zero_tower():
    tower = constant_tower(1, 4, lambda d: [[0] * d for _ in range(d)])
    assert stabilization_index(tower, 0) == 1
    assert inverse_limit_dims(tower, 0) == 0


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
    tower = Tower({0: dense_slice(dims, maps)})
    idx = stabilization_index(tower, 0)
    if idx is None:
        with pytest.raises(WindowNotStabilized):
            inverse_limit_dims(tower, 0)


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


@pytest.mark.parametrize("dims", [[1, 0, 1], [2, 2, 1], [-1, 0, 0], [-2, -1, 0]],
                         ids=["dip", "top-drop", "negative", "negative-rising"])
def test_prefix_slice_needs_nondecreasing_nonnegative_dims(dims):
    with pytest.raises(ValueError, match="not nondecreasing and nonnegative"):
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
    ctx = RingContext(1, COEFF_KIND[kind], max_t, 0 if kind == "additive" else max_w)
    tower = projective_space_tower(ctx, d_max, i_max)
    want = ref_projective_space_tower(ctx, d_max, i_max)
    assert sorted(tower.degrees) == sorted(want)
    for d, (dims, maps) in want.items():
        sl = tower.slice(d)
        assert sl.dims == dims
        assert sl.maps is None  # a prefix slice: its columns are built only on request
        assert [dense(sl.map(i), dims[i]) for i in range(i_max)] == maps


def test_projective_space_tower_matches_coefficient_ring():
    for kind in ALL_KINDS:
        F = law(kind)
        ctx = F.context(1)
        tower = projective_space_tower(ctx, 5, F.max_t_order + 2)
        for d in range(6):
            idx = stabilization_index(tower, d)
            assert idx is not None and idx <= d
            assert inverse_limit_dims(tower, d) == coefficient_ring_dimension(ctx, d)


def test_projective_space_tower_level_dims_additive():
    F = law("additive")
    tower = projective_space_tower(F.context(1), 3, 6)
    sl = tower.degrees[2]
    # additive coefficients: degree-2 slice of Q[xi]/(xi^(i+1)) is 1-dim once i >= 2
    assert sl.dims == [0, 0, 1, 1, 1, 1, 1]


def test_short_window_refusal_universal():
    F = law("universal-rational", 6, 5)
    tower = projective_space_tower(F.context(1), 0, 3)  # far below the stabilization point
    assert stabilization_index(tower, 0) == 0  # surjections: images never shrink
    with pytest.raises(WindowNotStabilized):
        inverse_limit_dims(tower, 0)  # dims still growing at the window end


def test_functoriality_under_levelwise_isomorphism():
    rng = random.Random(37)
    F = law("universal-rational", 4, 3)
    tower = projective_space_tower(F.context(1), 3, 6)
    transforms = {}
    for d, sl in tower.degrees.items():
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
        transforms[d] = mats
    moved = apply_levelwise_isomorphism(tower, transforms)
    for d in range(4):
        assert stabilization_index(tower, d) == stabilization_index(moved, d)
        assert inverse_limit_dims(tower, d) == inverse_limit_dims(moved, d)


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
        tower = Tower({0: dense_slice([dim] * (length + 1), maps)})
        idx = stabilization_index(tower, 0)
        # with a window this long a verdict must exist unless the final step
        # still shrank some chain, which the refusal semantics reports as None
        if idx is not None:
            assert 0 <= idx <= length


def test_limit_reuses_the_image_chains(monkeypatch):
    # every image is one call of the elimination kernel
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
        tower = Tower({0: dense_slice(dims, maps)})
        calls.clear()
        idx = stabilization_index(tower, 0)
        built = len(calls)
        assert built == 6 + 5 + 4 + 3 + 2 + 1  # one image per (level, offset)
        if idx is None:
            with pytest.raises(WindowNotStabilized):
                inverse_limit_dims(tower, 0)
            continue
        try:
            lim = inverse_limit_dims(tower, 0)
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


def canonical(entry, dim):
    """An echelon chain entry as the reference's Fraction rref rows."""
    return tuple(
        tuple(Fraction(row.get(j, 0), row[c]) for j in range(dim)) for c, row in sorted(entry.items())
    )


def diagnostics(tower, d=0):
    """stabilization_index and inverse_limit_dims of degree d, or the refusal text."""
    idx = stabilization_index(tower, d)
    try:
        return idx, inverse_limit_dims(tower, d)
    except WindowNotStabilized as exc:
        return idx, str(exc)


def assert_matches_reference(dims, maps):
    """The slice of the dense maps against the reference run on the dense maps themselves."""
    tower = Tower({0: dense_slice(dims, maps)})
    want = ref_image_chains(dims, maps)
    got = towers._image_chains(tower.slice(0))
    assert [[canonical(e, dims[i]) for e in chain] for i, chain in enumerate(got)] == want
    with mock.patch.object(towers, "_image_chains", lambda sl: want):
        want_diagnostics = diagnostics(Tower({0: dense_slice(dims, maps)}))
    assert diagnostics(tower) == want_diagnostics
    return [[len(e) for e in chain] for chain in got], want_diagnostics


@SETTINGS
@given(random_towers())
def test_propagated_chains_match_composites(tower):
    assert_matches_reference(*tower)


@SETTINGS
@given(st.data())
def test_propagated_chains_match_composites_after_conjugation(data):
    dims, maps = data.draw(random_towers())
    transforms = {0: [data.draw(invertible(n)) for n in dims]}
    moved = apply_levelwise_isomorphism(Tower({0: dense_slice(dims, maps)}), transforms).slice(0)
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
    tower = Tower({0: dense_slice(dims, maps)})
    transforms = {0: [data.draw(invertible(n)) for n in dims]}
    got = apply_levelwise_isomorphism(tower, transforms).slice(0)
    want = ref_conjugate(tower, transforms).slice(0)
    assert got.dims == dims
    for i in range(len(dims) - 1):
        assert_scaled(got.maps[i], want.maps[i], dims[i])


TWO = [[1, 0], [0, 1]]


@pytest.mark.parametrize("transforms,message", [
    ({}, "need one transform per level"),
    ({0: [TWO] * 3}, "need one transform per level"),
    ({0: [TWO, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], TWO, TWO]}, "transform 1 is not 2x2"),
    ({0: [[[1, 0]], TWO, TWO, TWO]}, "transform 0 is not 2x2"),
    ({0: [TWO, TWO, [[1, 0, 0], [0, 1, 0]], TWO]}, "transform 2 is not 2x2"),
    ({0: [TWO, TWO, TWO, [[1, 0], [0]]]}, "transform 3 is not 2x2"),
    ({0: [TWO, [[1, 1], [1, 1]], TWO, TWO]}, "singular"),
    ({0: [[[1, 2], [2, 4]], TWO, TWO, TWO]}, "singular"),
], ids=["missing-degree", "transform-count", "wrong-size", "non-square", "wide",
        "ragged", "singular", "singular-bottom"])
def test_malformed_transforms_are_refused(transforms, message):
    tower = Tower({0: TowerSlice([2, 2, 2, 2])})
    with pytest.raises(ValueError, match=message):
        apply_levelwise_isomorphism(tower, transforms)


# -- counted prefix slices against the elimination ----------------------------------

@st.composite
def projective_towers(draw):
    """The projective-space tower at drawn caps and levels, every degree up to max_t."""
    kind = draw(st.sampled_from(ALL_KINDS))
    max_t = draw(st.integers(1, 10))
    max_w = draw(st.integers(0, max_t))
    levels = draw(st.integers(2, 16))
    ctx = RingContext(1, COEFF_KIND[kind], max_t, 0 if kind == "additive" else max_w)
    return projective_space_tower(ctx, max_t, levels)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.data())
def test_counted_prefix_slices_match_the_elimination(data):
    tower = data.draw(projective_towers())
    # the same slices with their projections passed explicitly take the elimination path
    explicit = Tower({d: TowerSlice(sl.dims, [sl.map(i) for i in range(len(sl.dims) - 1)])
                      for d, sl in tower.degrees.items()})
    for d, sl in tower.degrees.items():
        assert sl.maps is None
        assert diagnostics(tower, d) == diagnostics(explicit, d)
    transforms = {d: [data.draw(invertible(n)) for n in sl.dims] for d, sl in tower.degrees.items()}
    moved = apply_levelwise_isomorphism(tower, transforms)
    for d in tower.degrees:
        assert moved.slice(d).maps is not None
        assert diagnostics(moved, d) == diagnostics(tower, d)
