"""Differential tests: ``bundles.pb_substitute`` (coefficients through
``substitute``, powers of the last image by Horner's rule) against the
term-by-term evaluation it replaced (``oracles.ref_pb_substitute``).

Random series over all three coefficient kinds, with 1..3 source
variables whose caps may differ from the base's, base rings of rank 1..3
and projective-bundle rings of rank 1..3.  All variables but the last go
to random augmentation-ideal base series; the last goes to xi, to eta or
to a random element of the ring.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc.bundles import ProjBundleRing, pb_substitute
from cobcalc.fgl import build_fgl
from cobcalc.series import COEFF_KINDS, ContextMismatch, RingContext

from oracles import ref_pb_substitute
from strategies import caps, series

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

LAW_KIND = {
    "rational": "additive",
    "multiplicative-beta": "multiplicative",
    "universal-rational": "universal-rational",
}


@lru_cache(maxsize=None)
def law_for(kind):
    return build_fgl(LAW_KIND[kind], 5, 4)


@SETTINGS
@given(st.data())
def test_pb_substitute_matches_term_by_term_reference(data):
    kind = data.draw(st.sampled_from(COEFF_KINDS))
    base = RingContext(data.draw(st.integers(1, 3)), kind, *data.draw(caps))
    chern = [data.draw(series(base, augmentation=True)) for _ in range(data.draw(st.integers(1, 3)))]
    ring = ProjBundleRing(base, chern)
    src = RingContext(data.draw(st.integers(1, 3)), kind, *data.draw(caps))
    s = data.draw(series(src))
    last = src.n_vars - 1
    base_images = {j: data.draw(series(base, augmentation=True)) for j in range(last)}
    choice = data.draw(st.sampled_from(["xi", "eta", "random"]))
    if choice == "xi":
        v = ring.xi()
    elif choice == "eta":
        v = ref_pb_substitute(ring, law_for(kind).inverse_series, {0: ring.xi()})
    else:
        v = ring.from_coords([data.draw(series(base)) for _ in range(ring.rank)])
    got = pb_substitute(ring, s, base_images, v)
    assert got == ref_pb_substitute(ring, s, {**base_images, last: v})


def test_pb_substitute_refusals():
    base = RingContext(2, "rational", 4, 0)
    ring = ProjBundleRing(base, [base.var(0)])
    src = RingContext(3, "rational", 4, 0)
    s = src.var(0) * src.var(2)
    with pytest.raises(ValueError, match=r"no value for variables \[0\]"):
        pb_substitute(ring, s, {1: base.var(1)}, ring.xi())
    beta = RingContext(2, "multiplicative-beta", 4, 2)
    with pytest.raises(ContextMismatch):
        pb_substitute(ring, beta.var(1), {}, ring.xi())
