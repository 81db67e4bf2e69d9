"""The value classes keep their constructor, equality, hash, repr and
immutability exactly.

Equality compares the same fields as the repr shows, and only instances of
one class compare equal.  Every value class is frozen: it hashes as the
tuple of those fields, so one with a list field (`TowerSlice`) is
unhashable, and assignment to an instance raises AttributeError.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from cobcalc.bundles import ProjBundleElement, ProjBundleRing, SplitBundle
from cobcalc.equivariant import GroupPreset, WeylGroupSpec, preset
from cobcalc.fgl import AxiomReport, FormalGroupLaw, build_fgl
from cobcalc.series import ContextMismatch, RingContext
from cobcalc.towers import TowerSlice

SRC = Path(__file__).resolve().parent.parent / "src"


def _law():
    return build_fgl("multiplicative", 4, 3)


def _roots(ctx):
    return (ctx.var(0), ctx.var(1) + ctx.var(0) * ctx.var(1))


def _frozen_instances():
    ctx = RingContext(2, "rational", 3, 0)
    ring = ProjBundleRing(ctx, (ctx.var(0), ctx.zero()))
    return [
        ctx,
        _law(),
        AxiomReport(True, True, True, ()),
        WeylGroupSpec(1, (((-1,),),)),
        preset("SL2"),
        SplitBundle(_roots(ctx)),
        ring,
        ring.xi(),
    ]


def _fields(x) -> tuple:
    """The compared fields of x, in declaration order."""
    names = {
        RingContext: ("n_vars", "coeff_kind", "max_t_order", "max_weight"),
        FormalGroupLaw: ("kind", "series", "inverse_series", "log", "exp"),
        AxiomReport: ("unit_ok", "comm_ok", "assoc_ok", "residuals"),
        WeylGroupSpec: ("rank", "generators"),
        GroupPreset: ("name", "weyl", "weyl_order", "fundamental_degrees"),
        SplitBundle: ("roots",),
        ProjBundleRing: ("base", "chern"),
        ProjBundleElement: ("ring", "coords"),
        TowerSlice: ("dims", "maps"),
    }[type(x)]
    return names, tuple(getattr(x, n) for n in names)


def _unhashable_instances():
    return [TowerSlice([1, 2, 2], [[{0: 1}, {}], [{0: 1}, {1: 3}]])]


@pytest.mark.parametrize("x", _frozen_instances() + _unhashable_instances(), ids=lambda x: type(x).__name__)
def test_repr_lists_the_compared_fields(x):
    names, values = _fields(x)
    body = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(x) == f"{type(x).__name__}({body})"


@pytest.mark.parametrize("x", _frozen_instances() + _unhashable_instances(), ids=lambda x: type(x).__name__)
def test_equality_is_by_class_and_compared_fields(x):
    names, values = _fields(x)
    twin = type(x)(**dict(zip(names, values)))
    assert twin == x and not twin != x
    assert x != object() and x != values
    assert x.__eq__(values) is NotImplemented


def _assert_refuses_assignment(x):
    names, values = _fields(x)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert _fields(x) == (names, values)


@pytest.mark.parametrize("x", _frozen_instances(), ids=lambda x: type(x).__name__)
def test_frozen_classes_hash_as_the_field_tuple_and_refuse_assignment(x):
    assert hash(x) == hash(_fields(x)[1])
    _assert_refuses_assignment(x)


@pytest.mark.parametrize("x", _unhashable_instances(), ids=lambda x: type(x).__name__)
def test_classes_with_list_fields_are_frozen_and_unhashable(x):
    with pytest.raises(TypeError):
        hash(x)
    _assert_refuses_assignment(x)


def test_ring_context_repr_and_mismatch_message():
    a, b = RingContext(1, "rational", 3, 0), RingContext(n_vars=1, coeff_kind="rational", max_t_order=4, max_weight=0)
    assert repr(a) == str(a) == "RingContext(n_vars=1, coeff_kind='rational', max_t_order=3, max_weight=0)"
    assert a == RingContext(1, "rational", 3, 0) and a != b
    with pytest.raises(ContextMismatch) as exc:
        a.var(0) + b.var(0)
    assert str(exc.value) == (
        "contexts differ: RingContext(n_vars=1, coeff_kind='rational', max_t_order=3, max_weight=0) "
        "vs RingContext(n_vars=1, coeff_kind='rational', max_t_order=4, max_weight=0)"
    )


@pytest.mark.parametrize("args, message", [
    ((0, "rational", 3, 0), "need at least one degree-1 variable"),
    ((1, "bogus", 3, 0), "unknown coefficient kind 'bogus'"),
    ((1, "rational", -1, 0), "truncation caps must be non-negative"),
    ((1, "rational", 3, -1), "truncation caps must be non-negative"),
])
def test_ring_context_refuses_bad_fields(args, message):
    with pytest.raises(ValueError, match=message):
        RingContext(*args)


def test_laws_differing_only_in_axioms_are_equal():
    law = _law()
    assert law.axioms is not None and law.axioms.ok
    bare = FormalGroupLaw(law.kind, law.series, law.inverse_series, law.log, law.exp)
    assert bare.axioms is None
    assert bare == law and hash(bare) == hash(law)
    other = FormalGroupLaw(
        kind=law.kind, series=law.series, inverse_series=law.inverse_series,
        log=law.log, exp=law.exp, axioms=AxiomReport(False, True, True, ()),
    )
    assert other == law and not other.axioms.ok
    assert FormalGroupLaw(law.kind, law.series, law.inverse_series, law.exp, law.log) != law


def test_axiom_report_ok_needs_every_flag():
    assert AxiomReport(unit_ok=True, comm_ok=True, assoc_ok=True, residuals=()).ok
    assert not AxiomReport(True, False, True, ()).ok
    assert AxiomReport(True, True, True, ()) != AxiomReport(True, True, True, (1,))


def test_weyl_spec_constructor_and_cached_elements():
    spec = WeylGroupSpec(rank=2, generators=[[[0, 1], [1, 0]]])
    assert spec.generators == (((0, 1), (1, 0)),)
    fresh = WeylGroupSpec(2, (((0, 1), (1, 0)),))
    assert spec.elements() is spec.elements() and len(spec.elements()) == 2
    # the enumeration is neither compared nor hashed
    assert spec == fresh and hash(spec) == hash(fresh)
    assert repr(spec) == "WeylGroupSpec(rank=2, generators=(((0, 1), (1, 0)),))"
    assert WeylGroupSpec(2, ()) != spec and WeylGroupSpec(1, ()) != WeylGroupSpec(2, ())
    with pytest.raises(ValueError, match="generator size does not match the rank"):
        WeylGroupSpec(1, (((0, 1), (1, 0)),))
    with pytest.raises(ValueError, match="not invertible over Z"):
        WeylGroupSpec(2, (((2, 0), (0, 1)),))
    with pytest.raises(ValueError, match="square"):
        WeylGroupSpec(2, (((1, 0),),))


def test_group_preset_constructor():
    gl2 = preset("GL2")
    assert gl2 == preset("GL(2)") and hash(gl2) == hash(preset("gl2"))
    bare = GroupPreset(name="GL(2)", weyl=gl2.weyl)
    assert bare.weyl_order is None and bare.fundamental_degrees is None and bare != gl2
    # the degrees are a compared field, kept as a tuple
    assert GroupPreset("GL(2)", gl2.weyl, 2, [1, 2]) == gl2 and gl2.fundamental_degrees == (1, 2)
    assert GroupPreset("GL(2)", gl2.weyl, 2) != gl2
    # the rank is the Weyl group's, so the two cannot disagree
    assert bare.rank == gl2.weyl.rank == 2


def test_bundle_constructors_normalise_and_check():
    ctx = RingContext(2, "rational", 3, 0)
    roots = _roots(ctx)
    bundle = SplitBundle(list(roots))
    assert bundle.roots == roots and type(bundle.roots) is tuple
    assert bundle == SplitBundle(roots=roots) and bundle.rank == 2
    with pytest.raises(ValueError, match="at least one root"):
        SplitBundle(())
    with pytest.raises(ValueError, match="zero constant term"):
        SplitBundle((ctx.one(),))
    with pytest.raises(ContextMismatch):
        SplitBundle((ctx.var(0), RingContext(2, "rational", 4, 0).var(0)))

    ring = ProjBundleRing(base=ctx, chern=list(bundle.chern))
    assert ring.chern == bundle.chern and type(ring.chern) is tuple
    assert ring == ProjBundleRing(ctx, bundle.chern)
    with pytest.raises(ValueError, match="at least one Chern class"):
        ProjBundleRing(ctx, ())
    with pytest.raises(ContextMismatch):
        ProjBundleRing(RingContext(2, "rational", 4, 0), bundle.chern)

    xi = ring.xi()
    assert xi == ProjBundleElement(ring=ring, coords=(ctx.zero(), ctx.one()))
    assert xi != ProjBundleElement(ring, (ctx.one(), ctx.zero()))
    with pytest.raises(ValueError, match="coordinate vector length"):
        ProjBundleElement(ring, (ctx.one(),))


def test_tower_slice_constructor_and_chains_not_compared():
    sl = TowerSlice(dims=[1, 2, 2], maps=[[{0: 1}, {}], [{0: 1}, {1: 3}]])
    twin = TowerSlice([1, 2, 2], [[{0: 1}, {}], [{0: 1}, {1: 3}]])
    assert sl.chains is sl.chains  # computed once, and neither compared nor shown
    assert sl == twin and sl != TowerSlice([1, 2, 2]) and repr(sl) == repr(twin)
    assert TowerSlice([1, 2, 3]).maps is None
    with pytest.raises(ValueError, match="at least three levels"):
        TowerSlice([1, 2])
    with pytest.raises(ValueError, match="not nondecreasing"):
        TowerSlice([2, 1, 1])
    with pytest.raises(ValueError, match="one transition map per step"):
        TowerSlice([1, 1, 1], [[{0: 1}]])
    with pytest.raises(ValueError, match="integer columns"):
        TowerSlice([1, 1, 1], [[{0: 1}], [{0: 1.0}]])


@pytest.mark.parametrize("module", ["cobcalc", "cobcalc.cli"])
def test_import_leaves_dataclasses_and_inspect_out(module):
    """Every CLI call imports the package: it must not pay for ``dataclasses``
    and the ``inspect`` it pulls in."""
    code = (
        "import sys\n"
        f"import {module}\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC)},
    ).stdout
    assert out.strip() == ""
