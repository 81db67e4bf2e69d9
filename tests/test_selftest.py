"""The selftest suite, one pytest item per check.

``selftest --seed 42`` as a whole (green, byte-identical twice, recorded
digest) is acceptance criterion 9 in ``test_acceptance.py``; the digests
of other seeds and of the text format are pinned here.
"""

import hashlib
import random
from types import SimpleNamespace

import pytest

from cobcalc import bundles, equivariant, selftest, series
from cobcalc.cli import main
from cobcalc.selftest import CHECKS, run_check
from cobcalc.towers import TowerSlice

by_name = pytest.mark.parametrize("name,fn", CHECKS, ids=[name for name, _ in CHECKS])


@by_name
def test_invariant_check_green(name, fn):
    result = run_check(0, name, fn)
    assert result["ok"], result["detail"]


@by_name
def test_invariant_check_is_seed_deterministic(name, fn):
    assert run_check(123, name, fn) == run_check(123, name, fn)


def test_tower_find_or_refuse_does_not_swallow_a_crash(monkeypatch):
    # only the refusal is an expected outcome; any other exception is a failure
    def crash(sl):
        raise TypeError("inverse_limit_dims crashed")

    monkeypatch.setattr(selftest, "inverse_limit_dims", crash)
    with pytest.raises(TypeError, match="crashed"):
        selftest.check_tower_find_or_refuse(random.Random(0))


def test_gl_additive_counts_read_the_orbit_walk(monkeypatch):
    # bg_dimensions counts by the same product formula as the check's own
    # poly_count, so the orbit-walked basis is the side that can disagree
    monkeypatch.setattr(
        selftest, "invariant_bases", lambda weyl, law, degrees, k: {d: [] for d in degrees})
    ok, detail = selftest.check_gl_additive_counts(random.Random(0))
    assert not ok and detail.startswith("GL(2): {0: 0, 1: 0,"), detail


def _shifted_restriction(a, b, maps):
    """The restriction with i added to component i: neither multiplicative
    nor congruent at any first-root pair."""
    return tuple(f + i for i, f in enumerate(bundles.flag_restriction(a, b, maps)))


# one row per check: a binding the check reads, a stand-in that breaks what
# the check asserts, and the start of the detail it must then fail with
BREAKS = {
    "series.ring-axioms": (
        series.TruncatedSeries, "__mul__", lambda a, b: series.series_mul(a, b) + a, "mul comm: "),
    "series.substitution-homomorphism": (
        selftest, "substitute", lambda s, images: series.substitute(s, images) + 1, "a="),
    "series.caps-and-roundtrip": (
        selftest, "TruncatedSeries", SimpleNamespace(from_text=lambda ctx, text: ctx.zero()),
        "text roundtrip: "),
    "series.bidegree-enumerator": (
        selftest, "bidegree_basis", lambda ctx, d, k: [], "rational d=0 k=0: 0 != 1"),
    "fgl.axioms": (selftest, "direct_associativity_residual", lambda F: F, "additive: "),
    "fgl.log-exp": (selftest, "substitute", lambda s, images: s, "log(exp(x)) != x"),
    "fgl.n-series-additivity": (selftest, "n_series", lambda law, n, a: a, "additive m="),
    "fgl.universal-specializes-to-additive": (
        selftest, "specialize", lambda s, kind: s, "shadow = "),
    "equivariant.weyl-action": (
        selftest, "weyl_map", lambda w, law, ctx: (lambda s: s + 1),
        "additive/GL2: not a ring map on "),
    "equivariant.character-additivity": (
        selftest, "character_class",
        lambda law, char, ctx: equivariant.character_class(law, char, ctx) + ctx.var(0),
        "additive ("),
    "equivariant.invariants-fixed": (
        selftest, "invariant_basis", lambda weyl, law, d, k: [law.context(weyl.rank).var(0)],
        "additive/GL2 d=0: not fixed: "),
    "equivariant.gl-additive-counts": (
        selftest, "bg_dimensions", lambda group, ctx, degrees, k: {}, "GL(2): {} != "),
    "equivariant.gl-universal-bruteforce": (
        selftest, "fixed_basis", lambda gens, law, window, ctx: [], "GL(2) d=0: 0 != 1"),
    "equivariant.generators-vs-enumeration": (
        selftest, "fixed_basis", lambda gens, law, window, ctx: [],
        "multiplicative/SL2 d=0: 2 != 0"),
    "bundles.whitney": (selftest, "direct_sum", lambda e1, e2: e1, "additive: Whitney fails at c_"),
    "bundles.self-intersection": (
        selftest, "top_chern_class", lambda bundle: bundles.top_chern_class(bundle) + 1,
        "additive rank 1: residual "),
    "bundles.thom-multiplicativity": (
        selftest, "pb_mul", lambda ring, u, v: u, "additive ranks (1,"),
    "bundles.projective-bundle-confluence": (
        selftest, "reduce_by_division", lambda ring, coeffs: ((), ()),
        "rank 2: xi^3 division remainder"),
    "bundles.smooth-divisor": (
        selftest, "thom_class_via_twist", lambda bundle, ring, law: ring.zero(), "additive rank 1"),
    "bundles.flag-restriction": (
        selftest, "flag_restriction", _shifted_restriction, "additive: not multiplicative"),
    "towers.find-or-refuse": (
        selftest, "stabilization_index", lambda sl: 99, "index 99 outside window"),
    "towers.coefficient-ring": (
        selftest, "coefficient_ring_dimension", lambda ctx, d: -1, "additive d=0: 1 != -1"),
    "towers.functoriality": (
        selftest, "apply_levelwise_isomorphism", lambda sl, mats: TowerSlice([0] * len(sl.dims)),
        "d=0: limit dim changed"),
}


@by_name
def test_invariant_check_fails_when_what_it_reads_is_broken(name, fn, monkeypatch):
    # a check that always passed would pass the green test above; this one
    # runs each check's failure branch, and the seeded suites' failure counts
    target, attr, stand_in, prefix = BREAKS[name]
    monkeypatch.setattr(target, attr, stand_in)
    result = run_check(0, name, fn)
    assert result["ok"] is False and result["detail"].startswith(prefix), result["detail"]


# stdout sha256 of whole selftest runs, recorded while the series layer still
# had a JSON term form whose round-trip `series.caps-and-roundtrip` checked
SELFTEST_GOLDEN = {
    "selftest --seed 0":
        "f9018a08d47403cafdfb955849ba2be76d24f9a14e9fa3e490e22751d60b19e1",
    "selftest --seed 7":
        "29292f53909713faaae470be5d91eefb7dce3bf81555dd25a683fee315ace3de",
    "selftest --seed 42 --format text":
        "d0bce69fa89a84c965aa47dfe13d425e732f8b11320d43c3c701eb39694ca1ad",
}


@pytest.mark.parametrize("command", sorted(SELFTEST_GOLDEN))
def test_selftest_stdout_golden(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_GOLDEN[command]
