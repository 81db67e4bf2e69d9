"""Differential tests: Weyl invariants read off signed orbit sums through the
logarithm (``equivariant.invariant_basis`` and ``bg_dimensions`` for
signed-permutation generators) against the direct kernel of (action - id)
(``fixed_space_rows`` and ``linalg.kernel``), and the orbit count against a
Reynolds sum over every group element at the monomial level."""

import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import cli, equivariant, selftest
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
from cobcalc.fgl import COEFF_KIND_FOR, build_fgl
from cobcalc.selftest import random_series
from cobcalc.series import Monomial, RingContext, RingMap

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=25)

PRESETS = ["GL1", "GL2", "GL3", "GL4", "SL2", "B2", "B3", "C3", "torus1", "torus2", "torus3"]
KINDS = sorted(COEFF_KIND_FOR)
# the order-3 rotation of the A2 lattice: not a signed permutation
ROTATION = ((0, -1), (1, -1))


@lru_cache(maxsize=None)
def law_at(kind, max_t, max_w):
    if kind == "additive":
        max_w = 0
    return build_fgl(kind, RingContext(2, COEFF_KIND_FOR[kind], max_t, max_w))


def direct_basis(wspec, law, degree, k_max, ctx):
    """The kernel of (action - id) over the generators."""
    return fixed_basis(wspec.generators, law, window_basis(ctx, degree, k_max), ctx)


def reynolds_dimension(elements, window):
    """The number of linearly independent sums sum_g g(m) over the monomials m
    of ``window``, each g acting by the plain linear substitution of its matrix."""
    images = set()
    for mono in window:
        total: dict = {}
        for g in elements:
            t = [0] * len(mono.t)
            sign = 1
            for j, e in enumerate(mono.t):
                (i, s), = [(i, g[i][j]) for i in range(len(g)) if g[i][j]]
                t[i] = e
                sign *= s**e
            key = Monomial(tuple(t), mono.laz)
            total[key] = total.get(key, 0) + sign
        support = frozenset(m for m, c in total.items() if c)
        if support:
            images.add(support)
    return len(images)


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
    got = invariant_basis(group.weyl, law, degree, k_max, ctx)
    assert got == direct_basis(group.weyl, law, degree, k_max, ctx)
    assert bg_dimensions(group, law, [degree], k_max) == {degree: len(got)}


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
        assert bg_dimensions(group, law, degrees, k_max) == want


@pytest.mark.parametrize("kind", KINDS)
def test_a_rotation_keeps_the_direct_path(kind, monkeypatch):
    law = law_at(kind, 5, 4)
    wspec = WeylGroupSpec(rank=2, generators=(ROTATION,))
    assert len(wspec.elements()) == 3
    group = GroupPreset("A2 rotation", 2, wspec, 3)
    ctx = law.context(2)
    calls = []
    real = equivariant.fixed_space_rows

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(equivariant, "fixed_space_rows", counting)
    for degree in range(-1, 4):
        got = invariant_basis(wspec, law, degree, 4, ctx)
        assert got == direct_basis(wspec, law, degree, 4, ctx)
        assert bg_dimensions(group, law, [degree], 4) == {degree: len(got)}
        for v in got:
            image = weyl_apply(ROTATION, v, law)
            assert ctx.from_terms({m: c for m, c in image.iter_terms() if m.t_order() <= 4}) == v
    assert calls


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
    monkeypatch.setattr(cli, "weyl_map", refused)
    assert main(argv + ["--emit-basis"] * emit) == 0
    body = json.loads(capsys.readouterr().out)
    assert ("basis" in body) == emit


def test_flag_builds_one_diagonal_map(monkeypatch, capsys):
    built = []
    real = cli.diagonal_map

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "diagonal_map", counting)
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
