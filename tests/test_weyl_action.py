"""Differential tests: the Weyl action through one ring map per matrix
(``equivariant.weyl_map``) against the per-monomial action it replaced
(``oracles.ref_action_matrix`` and ``oracles.ref_weyl_apply``)."""

import random
from fractions import Fraction

import pytest

from cobcalc import equivariant
from cobcalc.equivariant import (
    action_matrix,
    int_mat_mul,
    preset,
    weyl_apply,
    window_basis,
)
from cobcalc.fgl import build_fgl
from cobcalc.selftest import random_series
from cobcalc.series import RingContext

from oracles import ref_action_matrix, ref_weyl_apply

COEFF = {
    "additive": "rational",
    "multiplicative": "multiplicative-beta",
    "universal-rational": "universal-rational",
}
MAX_T, K_MAX = 4, 3


def law_for(kind):
    max_w = 0 if kind == "additive" else 3
    return build_fgl(kind, RingContext(2, COEFF[kind], MAX_T, max_w))


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
