"""Thom classes: ``bundles.thom_class`` against the Horner's rule in eta
it replaced (``oracles.ref_thom_class``), on both of its routes: the
closed form in E's own completion under a law exact in the window (the
Chern polynomial prod_j (x_j - xi), no product formed), and the product
route everywhere else (each factor D(x_j, xi) with D = x -_F y composed
once per law and headroom, its slices in y taken as coordinates and
reduced by ``from_coords``), with laws cut inside the window as the
negative control of the closed form's guard;
``tautological_inverse_class`` against its `pb_substitute` form and
``xi_power`` against the reduction loop of ``oracles.ref_reduce_coords``;
the filtration guard of both Thom routes; and a golden of whole Thom
classes, whose every coordinate the ``sif`` stdout does not see.

The grid covers all three kinds, caps where the headroom matters
((3,6), (5,8), (4,9): weight caps above the t-order cap), 1..3 base
variables, bundles of rank 1..3 and completions of the bundle plus 0..2
extra summands; the closed form is checked at base caps unlike the
law's, on bundles of rank 1..4"""

import hashlib
import io
import random
from contextlib import redirect_stdout
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import bundles, cli
from cobcalc.bundles import (
    ProjBundleRing,
    SplitBundle,
    direct_sum,
    pb_substitute,
    projective_completion_ring,
    tautological_inverse_class,
    thom_class,
    thom_class_via_twist,
    xi_power,
)
from cobcalc.fgl import build_fgl, ring_context
from cobcalc.selftest import random_series
from cobcalc.series import RingMap

from oracles import ref_reduce_coords, ref_thom_class
from strategies import series

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=80)

KINDS = ("additive", "multiplicative", "universal-rational")
CAPS = ((3, 6), (5, 8), (4, 9), (2, 1), (4, 3), (5, 4))


@lru_cache(maxsize=None)
def law_at(kind, max_t, max_w):
    return build_fgl(kind, max_t, max_w)


def roots(base):
    """Augmentation-ideal series, most with a linear term, so that the
    high xi-powers of a Thom factor survive the t-order cap."""
    linear = st.tuples(st.integers(0, base.n_vars - 1), st.sampled_from((1, -1, 2, 0)))
    return st.tuples(linear, series(base, augmentation=True)).map(
        lambda drawn: drawn[0][1] * base.var(drawn[0][0]) + drawn[1]
    )


@SETTINGS
@given(st.data())
def test_thom_class_matches_horner_in_eta(data):
    kind = data.draw(st.sampled_from(KINDS))
    law = law_at(kind, *data.draw(st.sampled_from(CAPS)))
    base = law.context(data.draw(st.integers(1, 3)))
    bundle = SplitBundle(tuple(data.draw(roots(base)) for _ in range(data.draw(st.integers(1, 3)))))
    extra = [data.draw(roots(base)) for _ in range(data.draw(st.integers(0, 2)))]
    total = direct_sum(bundle, SplitBundle(tuple(extra))) if extra else bundle
    ring = projective_completion_ring(total)
    assert thom_class(bundle, ring, law) == ref_thom_class(bundle, ring, law)
    assert tautological_inverse_class(ring, law) == pb_substitute(
        ring, law.inverse_series, {}, ring.xi()
    )
    k = data.draw(st.integers(0, ring.rank + 2))
    stepwise = ref_reduce_coords(ring, [base.zero()] * k + [base.one()])
    assert xi_power(ring, k) == ring.from_coords(stepwise)


@pytest.mark.parametrize("kind", ["multiplicative", "universal-rational"])
@pytest.mark.parametrize("caps", [(3, 6), (5, 8), (4, 9)])
def test_the_headroom_is_tight_for_a_line_bundle(kind, caps):
    """A single factor D(x, xi) reaches t-order max_t in its top
    coordinate through the terms x^i y^j of D with i + j = max_t + n - 1
    (n the rank of the ring), whose weight i + j - 1 these caps admit, so
    the headroom n - 1 cannot shrink."""
    law = law_at(kind, *caps)
    x = law.context(1).var(0)
    bundle = SplitBundle((x,))
    for extra in range(3):
        ring = projective_completion_ring(SplitBundle((x,) * (1 + extra)))
        assert thom_class(bundle, ring, law) == ref_thom_class(bundle, ring, law)


@pytest.mark.parametrize("kind", KINDS)
def test_thom_class_over_a_base_with_other_caps(kind):
    """D is composed at the caps of the base plus the headroom, from the
    law's stored series, whichever caps are larger."""
    rng = random.Random(3)
    law = law_at(kind, 4, 3)
    for caps in ((3, 2), (6, 5), (4, 8)):
        base = ring_context(kind, 2, *caps)
        rs = tuple(
            base.var(j % 2) + random_series(rng, base, 3, augmentation=True) for j in range(3)
        )
        ring = projective_completion_ring(SplitBundle(rs))
        for bundle in (SplitBundle(rs[:1]), SplitBundle(rs[:2])):
            assert thom_class(bundle, ring, law) == ref_thom_class(bundle, ring, law)


@pytest.mark.parametrize("caps", [(3, 6), (4, 8), (3, 9)])
def test_both_thom_routes_refuse_a_ring_outside_the_filtration(caps):
    law = law_at("universal-rational", *caps)
    ctx = law.context(2)
    t1, t2 = ctx.var(0), ctx.var(1)
    bundle = SplitBundle((t1, t2))
    ring = ProjBundleRing(ctx, [t1, t1, ctx.zero()])  # c2 = t1 has t-order 1 < 2
    with pytest.raises(ValueError, match="t-order"):
        ring.require_filtration()
    with pytest.raises(ValueError, match="t-order"):
        thom_class(bundle, ring, law)
    with pytest.raises(ValueError, match="t-order"):
        thom_class_via_twist(bundle, ring, law)
    completion = projective_completion_ring(bundle)
    completion.require_filtration()
    assert thom_class(bundle, completion, law) == thom_class_via_twist(bundle, completion, law)


# sha256 of thom_class(...).to_text() at caps (6, 4) over two base variables,
# roots t_(j mod 2) + random_series(random.Random(100 + rank), ctx, 3), recorded
# with the Horner's rule in eta that thom_class used before it composed D
THOM_TEXT_SHA256 = {
    ("additive", 1): "15f1a0b5a34d8087b7f5a20a42e2fe77fe5067f5a836c66e15bbb5a9f58dcf8d",
    ("additive", 2): "b7810364bc486e90db4218287e6c16127215f14cab31fe6a4200bd7f7b1a285a",
    ("additive", 3): "0099ae4bd699a6eb684597d7009fb6243bdd586bf5b78f2e42cf00179fdf9671",
    ("multiplicative", 1): "d9bd2a7d36894469eb36cd1d448e4ae6ce4538a69f1216597db7d17060eabb02",
    ("multiplicative", 2): "dd31dae7896b9da81fd455883b59e15057a696ced8dae540e04a7dea615596b6",
    ("multiplicative", 3): "d9974d98545ffb42a692cd5e3422560343a18dc1467ac35fe173cab4681c2ac3",
    ("universal-rational", 1): "561f19b20390e5e578dc2e191426fe7db4898227b36dd548560e02af67642a48",
    ("universal-rational", 2): "a87dfd0ccf16a6891778a035881d7451efd7d499241043b6009803adc8b26a65",
    ("universal-rational", 3): "cd66e9bcf20bdf95ea4cef0443e96290b731187a73d99d4c5ec18380ead2e3b8",
}


@pytest.mark.parametrize("kind, rank", sorted(THOM_TEXT_SHA256))
def test_whole_thom_class_golden(kind, rank):
    law = law_at(kind, 6, 4)
    ctx = law.context(2)
    rng = random.Random(100 + rank)
    bundle = SplitBundle(
        tuple(ctx.var(j % 2) + random_series(rng, ctx, 3, augmentation=True) for j in range(rank))
    )
    text = thom_class(bundle, projective_completion_ring(bundle), law).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == THOM_TEXT_SHA256[kind, rank]


def test_products_of_the_thom_route(monkeypatch):
    """eta and xi^k form no `pb_mul`; in the completion of a larger bundle
    th(E) forms rank(E) - 1 of them, one per factor after the first, and
    calls no `pb_substitute`."""
    calls = []
    real_mul = bundles.pb_mul
    monkeypatch.setattr(bundles, "pb_mul", lambda *a: calls.append("mul") or real_mul(*a))
    monkeypatch.setattr(bundles, "pb_substitute", lambda *a: calls.append("substitute"))
    law = law_at("universal-rational", 5, 4)
    ctx = law.context(2)
    bundle = SplitBundle((ctx.var(0), ctx.var(1), ctx.var(0) + ctx.var(1)))
    ring = projective_completion_ring(direct_sum(bundle, SplitBundle((ctx.var(1),))))
    tautological_inverse_class(ring, law)
    xi_power(ring, 9)
    assert calls == []
    thom_class(bundle, ring, law)
    assert calls == ["mul", "mul"]


def test_own_completion_forms_no_product(monkeypatch):
    """Under both conditions of the closed form th(E) is read off the
    Chern classes: no `pb_mul`, no `RingMap` and no difference series."""
    cases = []
    for kind in KINDS:
        law = law_at(kind, 5, 4)
        ctx = law.context(2)
        t1, t2 = ctx.var(0), ctx.var(1)
        bundle = SplitBundle((t1, t2, t1 + t2 + t1 * t2))
        cases.append((bundle, projective_completion_ring(bundle), law))

    def refuse(*args, **kwargs):
        raise AssertionError("the closed form forms no product")

    monkeypatch.setattr(bundles, "pb_mul", refuse)
    monkeypatch.setattr(RingMap, "__call__", refuse)
    monkeypatch.setattr(bundles, "_difference_slices", refuse)
    for bundle, ring, law in cases:
        c1, c2, c3 = bundle.chern
        th = thom_class(bundle, ring, law)
        assert th.coords == (c3, -c2, c1, -ring.base.one())


def closed_form(bundle, ring):
    """(c_n, -c_(n-1), ..., (-1)^n), the Chern polynomial prod_j (x_j - xi)."""
    elem = (ring.base.one(), *bundle.chern)
    n = bundle.rank
    return ring.from_coords([(-1) ** k * elem[n - k] for k in range(n + 1)])


# (law caps, base caps), each pair inside the closed form's guard: the base
# weight cap below the law's t-order cap and at most its weight cap
EXACT_CAPS = (
    ((4, 3), (4, 3)),
    ((4, 3), (6, 2)),  # base t-order cap above the law's
    ((5, 4), (3, 4)),  # base weight cap equal to the law's
    ((3, 6), (5, 2)),  # law weight cap above its t-order cap
    ((5, 4), (7, 1)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_closed_form_matches_both_product_routes(data):
    kind = data.draw(st.sampled_from(KINDS))
    law_caps, base_caps = data.draw(st.sampled_from(EXACT_CAPS))
    law = law_at(kind, *law_caps)
    base = ring_context(kind, data.draw(st.integers(1, 3)), *base_caps)
    rank = data.draw(st.integers(1, 4))
    bundle = SplitBundle(tuple(data.draw(roots(base)) for _ in range(rank)))
    ring = projective_completion_ring(bundle)
    assert bundles._closed_form_applies(bundle, ring, law)
    th = thom_class(bundle, ring, law)
    assert th == closed_form(bundle, ring)
    assert th == ref_thom_class(bundle, ring, law)
    assert th == thom_class_via_twist(bundle, ring, law)


@pytest.mark.parametrize(
    "kind, law_caps, base_caps, top",
    [
        # base weight cap 6 is not below the law's t-order cap 3
        ("multiplicative", (3, 6), (3, 6), "-1 + 1 * b^3*t1^3"),
        # base weight cap 3 is above the law's weight cap 2
        ("multiplicative", (4, 2), (4, 3), "-1 + 1 * b^3*t1^3"),
        ("universal-rational", (3, 1), (3, 2), "-1 + 4 * m1^2*t1^2"),
        # base weight cap W equal to the law's t-order cap T: the product route still
        ("multiplicative", (3, 3), (3, 3), "-1 + 1 * b^3*t1^3"),
        ("universal-rational", (2, 2), (2, 2), "-1 + 4 * m1^2*t1^2"),
    ],
)
def test_a_law_cut_inside_the_window_takes_the_product_route(kind, law_caps, base_caps, top):
    """The truncated F and chi leave terms the window sees, so th(E) is
    not the Chern polynomial; the product route's value is kept."""
    law = law_at(kind, *law_caps)
    base = ring_context(kind, 1, *base_caps)
    bundle = SplitBundle((base.var(0),))
    ring = projective_completion_ring(bundle)
    th = thom_class(bundle, ring, law)
    assert th == ref_thom_class(bundle, ring, law)
    assert th != closed_form(bundle, ring)
    assert th.to_text() == "1 * t1 | " + top


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("caps", [(3, 6), (5, 4), (6, 2)])
def test_every_term_of_the_law_has_degree_one(kind, caps):
    """t-order minus weight is 1 on every term of F and chi, so a term the
    caps cut at t-order k has weight k - 1."""
    law = law_at(kind, *caps)
    for s in (law.series, law.inverse_series):
        assert {m.degree() for m, _ in s.iter_terms()} == {1}


def test_sif_composes_the_difference_series_once():
    bundles._difference_slices.cache_clear()
    argv = "sif --fgl universal --rank 2 --torder 5 --samples 6 --seed 3".split()
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    info = bundles._difference_slices.cache_info()
    assert (info.misses, info.hits) == (1, 5)
