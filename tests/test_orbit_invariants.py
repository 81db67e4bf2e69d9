"""Differential tests: Weyl invariants read off the linear invariants through
the logarithm (``equivariant.invariant_basis`` and ``bg_dimensions``) against
the direct kernel of (action - id) through the law (``fixed_space_rows`` and
``linalg.kernel``), and the count against a Reynolds sum over every group
element at the monomial level.  For a preset, ``bg_dimensions`` counts from
the fundamental degrees; that count is checked against the orbit walk and
against Molien's average over every group element."""

import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cobcalc import equivariant, selftest
from cobcalc.cli import main
from cobcalc.equivariant import (
    GroupPreset,
    WeylGroupSpec,
    bg_dimensions,
    fixed_basis,
    invariant_basis,
    log_map,
    preset,
    weyl_apply,
    weyl_map,
    window_basis,
)
from cobcalc.fgl import COEFF_KIND_FOR, KIND_ALIASES, build_fgl
from cobcalc.selftest import random_series
from cobcalc.series import COEFF_KINDS, RingContext, RingMap, lazard_count

from oracles import ref_molien_counts

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=25)

PRESETS = ["GL1", "GL2", "GL3", "GL4", "SL2", "B2", "B3", "C3", "torus1", "torus2", "torus3"]
KINDS = sorted(COEFF_KIND_FOR)
# the order-3 rotation of the A2 lattice: not a signed permutation
ROTATION = ((0, -1), (1, -1))
# groups of the A2 lattice: the rotation alone, and with a swap, a signed
# permutation, the order-6 group of one signed and one unsigned generator
A2_GROUPS = {"rotation": (ROTATION,), "rotation-swap": (ROTATION, ((0, 1), (1, 0)))}


@lru_cache(maxsize=None)
def law_at(kind, max_t, max_w):
    return build_fgl(kind, max_t, max_w)


def direct_basis(wspec, law, degree, k_max, ctx):
    """The kernel of (action - id) over the generators."""
    return fixed_basis(wspec.generators, law, window_basis(ctx, degree, k_max), ctx)


def linear_image(g, t):
    """The monomial with exponents ``t`` under the plain linear substitution
    t_j -> sum_i g[i][j] t_i, expanded, as ``{exponents: int}``."""
    n = len(t)
    poly = {(0,) * n: 1}
    for j, e in enumerate(t):
        for _ in range(e):
            product: dict = {}
            for key, c in poly.items():
                for i in range(n):
                    if g[i][j]:
                        bumped = key[:i] + (key[i] + 1,) + key[i + 1:]
                        product[bumped] = product.get(bumped, 0) + c * g[i][j]
            poly = product
    return poly


def rank(vectors):
    """The rank over Q of ``vectors``, each a dict ``{column: value}``."""
    pivots: dict = {}
    for vector in vectors:
        v = {k: Fraction(c) for k, c in vector.items() if c}
        while v:
            col = min(v)
            if col not in pivots:
                pivots[col] = v
                break
            p = pivots[col]
            f = v[col] / p[col]
            for k, c in p.items():
                x = v.get(k, 0) - f * c
                if x:
                    v[k] = x
                else:
                    v.pop(k, None)
    return len(pivots)


def reynolds_dimension(elements, window):
    """The number of linearly independent sums sum_g g(m) over the monomials m
    of ``window``, each g acting by the plain linear substitution of its matrix."""
    images = []
    for mono in window:
        total: dict = {}
        for g in elements:
            for t, c in linear_image(g, mono.t).items():
                total[t, mono.laz] = total.get((t, mono.laz), 0) + c
        images.append(total)
    return rank(images)


# the window of one draw: degree and t-order window, negative values included
windows = st.tuples(
    st.sampled_from(KINDS),
    st.integers(2, 6),
    st.integers(0, 5),
    st.integers(-4, 6),
    st.integers(-1, 6),
)


@pytest.mark.parametrize("name", PRESETS)
@SETTINGS
@given(window=windows)
def test_orbit_basis_equals_the_direct_kernel(name, window):
    kind, max_t, max_w, degree, k_max = window
    k_max = min(k_max, max_t)
    law = law_at(kind, max_t, max_w)
    group = preset(name)
    if group.rank == 4 and max_t > 5:
        # the direct kernel of GL4 at t-order 6 costs seconds per draw
        max_t, k_max = 5, min(k_max, 5)
        law = law_at(kind, max_t, max_w)
    ctx = law.context(group.rank)
    got = invariant_basis(group.weyl, law, degree, k_max)
    assert got == direct_basis(group.weyl, law, degree, k_max, ctx)
    assert bg_dimensions(group, ctx, [degree], k_max) == {degree: len(got)}


@pytest.mark.parametrize(
    "name, caps",
    [(name, caps) for name in PRESETS for caps in [(2, 1), (4, 3), (5, 5), (6, 5)]]
    + [("GL5", (4, 3)), ("GL5", (5, 4))],
)
def test_orbit_count_equals_the_reynolds_count(name, caps):
    law = law_at("universal-rational", *caps)
    group = preset(name)
    ctx = law.context(group.rank)
    elements = group.weyl.elements()
    for k_max in range(-1, caps[0] + 1):
        degrees = range(-caps[1] - 1, k_max + 2)
        want = {d: reynolds_dimension(elements, window_basis(ctx, d, k_max)) for d in degrees}
        assert bg_dimensions(group, ctx, degrees, k_max) == want


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(A2_GROUPS))
def test_other_generators_match_the_kernel_through_the_law(name, kind):
    wspec = WeylGroupSpec(rank=2, generators=A2_GROUPS[name])
    elements = wspec.elements()
    assert len(elements) == 3 * len(wspec.generators)
    group = GroupPreset(name, wspec, len(elements))
    for caps in [(2, 1), (4, 3), (6, 5)]:
        law = law_at(kind, *caps)
        ctx = law.context(2)
        for k_max in range(-1, caps[0] + 1):
            degrees = range(-caps[1] - 1, k_max + 2)
            dims = bg_dimensions(group, ctx, degrees, k_max)
            for degree in degrees:
                got = invariant_basis(wspec, law, degree, k_max)
                assert got == direct_basis(wspec, law, degree, k_max, ctx)
                window = window_basis(ctx, degree, k_max)
                assert dims[degree] == len(got) == reynolds_dimension(elements, window)


@pytest.mark.parametrize("kind", KINDS)
def test_a_rotation_takes_the_kernel_of_the_linear_action(kind, monkeypatch):
    """A generator that is no signed permutation gets its linear invariants
    from `fixed_space_rows` under the additive law over Q, whatever the law
    of the basis."""
    law = law_at(kind, 5, 4)
    wspec = WeylGroupSpec(rank=2, generators=(ROTATION,))
    group = GroupPreset("A2 rotation", wspec, 3)
    ctx = law.context(2)
    degrees = range(-1, 4)
    want = {degree: direct_basis(wspec, law, degree, 4, ctx) for degree in degrees}
    calls = []
    real = equivariant.fixed_space_rows

    def counting(matrices, law, basis, ctx):
        calls.append((law.kind, ctx.coeff_kind, ctx.max_weight))
        return real(matrices, law, basis, ctx)

    monkeypatch.setattr(equivariant, "fixed_space_rows", counting)
    for degree in degrees:
        got = invariant_basis(wspec, law, degree, 4)
        assert got == want[degree]
        assert bg_dimensions(group, ctx, [degree], 4) == {degree: len(got)}
        for v in got:
            image = weyl_apply(ROTATION, v, law)
            assert ctx.from_terms({m: c for m, c in image.iter_terms() if m.t_order() <= 4}) == v
    assert calls and set(calls) == {("additive", "rational", 0)}


# every preset whose Weyl group `elements()` enumerates within a test's time
ENUMERABLE = ["GL1", "GL2", "GL3", "GL4", "GL5", "torus1", "torus2", "torus3", "torus4",
              "SL2", "B1", "B2", "B3", "C1", "C2", "C3"]


@lru_cache(maxsize=None)
def molien_counts(name, top):
    return ref_molien_counts(preset(name).weyl.elements(), top)


@pytest.mark.parametrize("name", ENUMERABLE)
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(
    coeff_kind=st.sampled_from(COEFF_KINDS),
    max_t=st.integers(0, 12),
    max_w=st.integers(0, 6),
    low=st.integers(-3, 12),
)
@example(coeff_kind="rational", max_t=12, max_w=0, low=0)
def test_degree_count_equals_the_orbit_walk_and_molien(name, coeff_kind, max_t, max_w, low):
    group = preset(name)
    # the same group without its degrees: bg_dimensions walks the signed orbits
    walked = GroupPreset(group.name, group.weyl, group.weyl_order)
    ctx = RingContext(group.rank, coeff_kind, max_t, max_w)
    degrees = range(low, max_t + 1)
    dims = bg_dimensions(group, ctx, degrees, max_t)
    assert dims == bg_dimensions(walked, ctx, degrees, max_t)
    # Molien counts the linear invariants of each t-order k
    linear = molien_counts(name, 12)
    assert dims == {
        d: sum(linear[k] * lazard_count(coeff_kind, k - d)
               for k in range(max(d, 0), max_t + 1) if k - d <= max_w)
        for d in degrees
    }


@pytest.mark.parametrize(
    "group, fgl, top, max_w",
    [("GL100", "universal", 10, 9), ("GL20", "universal", 10, 9), ("GL12", "multiplicative", 10, 9),
     ("GL10", "additive", 10, 9), ("GL6", "universal", 6, 5), ("GL9", "universal", 8, 7)],
)
def test_gl_at_rank_past_the_window_counts_partitions(group, fgl, top, max_w, capsys):
    """For n >= k, the symmetric polynomials of degree k in n variables are
    p(k), one per partition of k: so plain bg is a sum of partition counts."""
    argv = ["bg", "--group", group, "--fgl", fgl, "--deg", f"-2..{top}", "--torder", str(top),
            "--max-t", str(top), "--max-w", str(max_w)]
    assert main(argv) == 0
    dims = json.loads(capsys.readouterr().out)["dims"]
    coeff_kind = COEFF_KIND_FOR[KIND_ALIASES.get(fgl, fgl)]
    want = {
        str(d): sum(
            lazard_count("universal-rational", k) * lazard_count(coeff_kind, k - d)
            for k in range(max(d, 0), top + 1) if k - d <= max_w
        )
        for d in range(-2, top + 1)
    }
    assert dims == want


@pytest.mark.parametrize("name", ["GL3", "torus2", "SL2", "B2", "C3"])
def test_plain_bg_walks_no_orbit_and_emit_basis_does(name, monkeypatch, capsys):
    argv = ["bg", "--group", name, "--fgl", "universal", "--deg", "-1..4", "--torder", "4"]
    real = equivariant._signed_orbits

    def refused(*args):
        raise AssertionError("plain bg walked the signed orbits")

    monkeypatch.setattr(equivariant, "_signed_orbits", refused)
    assert main(argv) == 0
    plain = json.loads(capsys.readouterr().out)["dims"]
    walks = []

    def counting(*args):
        walks.append(args)
        return real(*args)

    monkeypatch.setattr(equivariant, "_signed_orbits", counting)
    assert main(argv + ["--emit-basis"]) == 0
    assert walks and json.loads(capsys.readouterr().out)["dims"] == plain


def linear_map(w, ctx):
    """The plain linear substitution t_j -> sum_i w[i][j] t_i."""
    n = ctx.n_vars
    return RingMap(ctx, {j: sum((ctx.var(i).scale(w[i][j]) for i in range(n)), ctx.zero())
                         for j in range(n)}, ctx)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["GL3", "B2", "SL2", "rotation"])
def test_log_conjugates_the_linear_action_into_the_twisted_one(kind, name):
    law = law_at(kind, 5, 4)
    matrices = (ROTATION,) if name == "rotation" else preset(name).weyl.elements()
    ctx = law.context(len(matrices[0]))
    log = log_map(law, ctx)
    rng = random.Random(name)
    for w in matrices:
        twisted, linear = weyl_map(w, law, ctx), linear_map(w, ctx)
        for _ in range(3):
            s = random_series(rng, ctx)
            assert twisted(log(s)) == log(linear(s))


BG_COMMANDS = [
    ["bg", "--group", "GL3", "--fgl", "universal", "--deg", "0..4", "--torder", "4"],
    ["bg", "--group", "B2", "--fgl", "multiplicative", "--deg", "-2..3", "--torder", "4"],
    ["bg", "--group", "SL2", "--fgl", "universal", "--deg", "-1..3", "--torder", "5"],
]


@pytest.mark.parametrize("emit", [False, True])
@pytest.mark.parametrize("argv", BG_COMMANDS, ids=lambda a: a[2])
def test_bg_builds_no_weyl_map_and_no_action_matrix(argv, emit, monkeypatch, capsys):
    def refused(*args, **kwargs):
        raise AssertionError("bg went through the direct Weyl action")

    for name in ("weyl_map", "action_matrix", "fixed_space_rows", "window_basis",
                 "sparse_coordinates"):
        monkeypatch.setattr(equivariant, name, refused)
    monkeypatch.setattr(selftest, "weyl_map", refused)
    assert main(argv + ["--emit-basis"] * emit) == 0
    body = json.loads(capsys.readouterr().out)
    assert ("basis" in body) == emit


def test_flag_builds_one_diagonal_map(monkeypatch, capsys):
    built = []
    real = selftest.diagonal_map

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(selftest, "diagonal_map", counting)
    assert main(["flag", "--group", "GL3", "--pairs", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["congruence_ok_derived"] is True
    assert built == [(built[0][0], 0, 1)]


def test_selftest_weyl_checks_build_one_map_per_element(monkeypatch):
    built = []
    real = selftest.weyl_map

    def counting(w, law, ctx):
        built.append(w)
        return real(w, law, ctx)

    monkeypatch.setattr(selftest, "weyl_map", counting)
    assert selftest.check_weyl_action(random.Random(42))[0]
    # GL2, SL2 and B2 have 2 + 2 + 8 elements, for two kinds
    assert len(built) == 2 * 12
    built.clear()
    assert selftest.check_invariants_fixed(random.Random(42))[0]
    assert len(built) == 2 * 4
