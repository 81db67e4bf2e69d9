"""Hypothesis strategies and checks shared by the differential tests.

Random ring contexts over all three coefficient kinds, monomials (with
noncanonical generator parts and exponents beyond the caps), term maps and
series built from them, and the canonical-form check of a series.
"""

from math import gcd

from hypothesis import strategies as st

from cobcalc.series import COEFF_KINDS, Monomial, RingContext

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)
caps = st.tuples(st.integers(0, 5), st.integers(0, 3))  # (max_t_order, max_weight)


@st.composite
def contexts(draw, kind=None, n_vars=None):
    kind = kind or draw(st.sampled_from(COEFF_KINDS))
    n_vars = n_vars or draw(st.integers(1, 3))
    return RingContext(n_vars, kind, draw(st.integers(0, 5)), draw(st.integers(0, 4)))


@st.composite
def monomials(draw, ctx, augmentation=False):
    t = draw(st.lists(st.integers(0, 3), min_size=ctx.n_vars, max_size=ctx.n_vars))
    if augmentation and not any(t):
        t[draw(st.integers(0, ctx.n_vars - 1))] = 1
    if ctx.coeff_kind == "rational":
        laz = ()
    elif ctx.coeff_kind == "multiplicative-beta":
        e = draw(st.integers(0, 3))
        laz = ((1, e),) if e else ()
    else:
        gens = draw(st.dictionaries(st.integers(1, 5), st.integers(1, 2), max_size=3))
        laz = tuple(sorted(gens.items()))
    return Monomial(tuple(t), laz)


def term_dicts(ctx, augmentation=False):
    return st.dictionaries(monomials(ctx, augmentation), coefficients, max_size=6)


def assert_canonical(s):
    assert s._den >= 1
    assert all(s._terms.values())
    assert gcd(s._den, *s._terms.values()) == 1


def series(ctx, augmentation=False):
    return term_dicts(ctx, augmentation).map(ctx.from_terms)

