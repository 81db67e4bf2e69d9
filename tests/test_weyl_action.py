"""Differential tests: the Weyl action through one ring map per matrix
(``equivariant.weyl_map``) against the per-monomial action it replaced
(``oracles.ref_action_matrix`` and ``oracles.ref_weyl_apply``), and the
oracle's rows of (rho_w - id), read one ``action_matrix`` per matrix,
against the batched reader they replaced (``oracles.ref_fixed_space_rows``)."""

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import equivariant
from cobcalc.equivariant import (
    WeylGroupSpec,
    action_matrix,
    fixed_space_rows,
    int_mat_mul,
    preset,
    weyl_apply,
    window_basis,
)
from cobcalc.fgl import FormalGroupLaw, build_fgl
from cobcalc.selftest import random_series
from cobcalc.series import Monomial, RingContext, compositional_inverse, substitute

from oracles import ref_action_matrix, ref_fixed_space_rows, ref_weyl_apply

COEFF = {
    "additive": "rational",
    "multiplicative": "multiplicative-beta",
    "universal-rational": "universal-rational",
}
MAX_T, K_MAX = 4, 3


def law_for(kind):
    return build_fgl(kind, MAX_T, 3)


def random_unimodular(rng, n):
    """A product of elementary row operations and sign flips: det = +-1."""
    m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        step = [[int(r == c) for c in range(n)] for r in range(n)]
        step[i][j] = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            step[j][j] = -1
        m = int_mat_mul(m, tuple(map(tuple, step)))
    return m


def matrices(group, rng):
    """The generators, a few further group elements, and one random unimodular matrix."""
    if group.startswith("random"):
        return [random_unimodular(rng, int(group[-1]))]
    weyl = preset(group).weyl
    elements = list(weyl.elements())
    return list(weyl.generators) + rng.sample(elements, min(3, len(elements)))


def dense(columns, dim):
    """The sparse integer columns of ``action_matrix`` as a dense Fraction matrix."""
    return [[Fraction(nums.get(i, 0), den) for nums, den in columns] for i in range(dim)]


@pytest.mark.parametrize("kind", sorted(COEFF))
@pytest.mark.parametrize("group", ["GL2", "GL3", "B2", "B3", "SL2", "random2", "random3"])
def test_action_matches_per_monomial_reference(kind, group):
    rng = random.Random(f"{kind}:{group}")
    law = law_for(kind)
    rank = int(group[-1]) if group.startswith("random") else preset(group).rank
    ctx = law.context(rank)
    samples = [random_series(rng, ctx) for _ in range(3)]
    for w in matrices(group, rng):
        for s in samples:
            assert weyl_apply(w, s, law) == ref_weyl_apply(w, s, law)
        for d in range(-1, 3):
            basis = window_basis(ctx, d, K_MAX)
            if not basis:
                continue
            want = ref_action_matrix(w, law, basis, ctx)
            columns = action_matrix(w, law, basis, ctx)
            assert dense(columns, len(basis)) == want
            assert all(
                type(x) is int for nums, den in columns for x in (den, *nums.values())
            )


def test_action_matrix_builds_rank_many_character_classes(monkeypatch):
    calls = []
    original = equivariant.character_class

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(equivariant, "character_class", counting)
    law = law_for("universal-rational")
    ctx = law.context(3)
    basis = window_basis(ctx, 2, K_MAX)
    assert len(basis) > 3
    for w in preset("GL3").weyl.generators + preset("B3").weyl.generators:
        calls.clear()
        action_matrix(w, law, basis, ctx)
        assert len(calls) == 3


def test_weyl_map_refusals():
    law = law_for("additive")
    ctx = law.context(2)
    with pytest.raises(ValueError, match="not invertible"):
        equivariant.weyl_map(((2, 0), (0, 1)), law, ctx)
    with pytest.raises(ValueError, match="does not match the context rank"):
        equivariant.weyl_map(((1,),), law, ctx)
    with pytest.raises(ValueError, match="square"):
        weyl_apply(((1, 0),), ctx.var(0), law)


# the order-3 rotation of the A2 lattice, alone and with a swap: no signed permutations
ROTATION = ((0, -1), (1, -1))
ROTATION_GROUPS = [
    WeylGroupSpec(2, (ROTATION,)),
    WeylGroupSpec(2, (ROTATION, ((0, 1), (1, 0)))),
]
WEYL_SPECS = [
    preset(name).weyl for name in ("GL1", "GL2", "GL3", "SL2", "B2", "B3", "torus2")
] + ROTATION_GROUPS


@lru_cache(maxsize=None)
def law_at(kind, max_t, max_w):
    return build_fgl(kind, max_t, max_w)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_fixed_space_rows_match_the_batched_reader(data):
    kind = data.draw(st.sampled_from(sorted(COEFF)))
    spec = data.draw(st.sampled_from(WEYL_SPECS))
    matrices = spec.generators if data.draw(st.booleans()) else spec.elements()
    # sampled, not drawn as integers, so that large windows come as often as small ones
    max_t = data.draw(st.sampled_from(range(2, 6)))
    law = law_at(kind, max_t, data.draw(st.sampled_from(range(max_t))))
    ctx = law.context(spec.rank)
    k_max = data.draw(st.sampled_from(range(max_t + 1)))
    degree = data.draw(st.sampled_from(range(-ctx.max_weight, k_max + 1)))
    # an empty window now and then
    basis = window_basis(ctx, degree, k_max) if data.draw(st.integers(0, 9)) else []
    calls = []

    def counting(w, *args):
        calls.append(w)
        return action_matrix(w, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equivariant, "action_matrix", counting)
        got = fixed_space_rows(matrices, law, basis, ctx)
    assert got == ref_fixed_space_rows(matrices, law, basis, ctx)
    assert calls == list(matrices)


def conjugated_additive_law():
    """The additive law conjugated by g(x) = x + x^2/2 at caps (6, 0): log g,
    exp its compositional inverse, F = exp(g(t1) + g(t2)) and chi = exp(-g).
    No shipped law has a fractional coefficient; this one does."""
    ctx1, ctx2 = RingContext(1, "rational", 6, 0), RingContext(2, "rational", 6, 0)
    g = ctx1.from_terms({Monomial((1,), ()): 1, Monomial((2,), ()): Fraction(1, 2)})
    exp = compositional_inverse(g)
    gx, gy = (substitute(g, {0: ctx2.var(j)}, target=ctx2) for j in (0, 1))
    return FormalGroupLaw("additive", substitute(exp, {0: gx + gy}, target=ctx2),
                          substitute(exp, {0: -g}), g, exp)


@pytest.mark.parametrize("degree", [1, 3])
def test_fixed_space_rows_scale_every_column_to_one_den(degree):
    law = conjugated_additive_law()
    ctx = law.context(2)
    w = ((-1, 0), (0, 1))
    basis = window_basis(ctx, degree, 6)
    columns = action_matrix(w, law, basis, ctx)
    den = lcm(*(d for _, d in columns))
    assert den == 2 and {d for _, d in columns} == {1, 2}
    a = dense(columns, len(basis))
    n = len(basis)
    want = [{j: den * (a[i][j] - (i == j)) for j in range(n) if a[i][j] != (i == j)}
            for i in range(n)]
    assert fixed_space_rows([w], law, basis, ctx) == want
