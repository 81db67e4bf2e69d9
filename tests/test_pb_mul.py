"""Differential tests: ``bundles.pb_mul`` and ``bundles.reduce_coords``
(every product summed in place into one sum per power of xi) against the
product that added one series product at a time (``oracles.ref_pb_mul``,
``oracles.ref_reduce_coords``).

Random base rings over all three coefficient kinds with 1..3 variables,
projective-bundle rings of rank 1..4: general ones with random Chern
classes, and projective completions of split bundles, whose last Chern
class is zero.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc.bundles import (
    ProjBundleRing,
    SplitBundle,
    pb_mul,
    projective_completion_ring,
    reduce_coords,
)
from cobcalc.series import COEFF_KINDS, RingContext

from oracles import ref_pb_mul, ref_reduce_coords
from strategies import assert_canonical, caps, series

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def rings(draw):
    kind = draw(st.sampled_from(COEFF_KINDS))
    base = RingContext(draw(st.integers(1, 3)), kind, *draw(caps))
    rank = draw(st.integers(1, 4))
    if rank > 1 and draw(st.booleans()):
        roots = [draw(series(base, augmentation=True)) for _ in range(rank - 1)]
        return projective_completion_ring(SplitBundle(roots))
    return ProjBundleRing(base, [draw(series(base, augmentation=True)) for _ in range(rank)])


@SETTINGS
@given(st.data())
def test_pb_mul_matches_the_one_product_at_a_time_reference(data):
    ring = data.draw(rings())
    u = ring.from_coords([data.draw(series(ring.base)) for _ in range(ring.rank)])
    v = ring.from_coords([data.draw(series(ring.base)) for _ in range(ring.rank)])
    got = pb_mul(ring, u, v)
    assert got == ref_pb_mul(ring, u, v)
    for c in got.coords:
        assert_canonical(c)
    assert pb_mul(ring, u, -u) == -ref_pb_mul(ring, u, u)


@SETTINGS
@given(st.data())
def test_reduce_coords_matches_the_reference(data):
    ring = data.draw(rings())
    length = data.draw(st.integers(0, 2 * ring.rank + 1))
    coords = [data.draw(series(ring.base)) for _ in range(length)]
    got = reduce_coords(ring, coords)
    assert got == ref_reduce_coords(ring, coords)
    for c in got:
        assert_canonical(c)
