"""Fuzz tests: the text and JSON parsers of ``TruncatedSeries`` refuse
malformed input with ValueError and with nothing else."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc.series import RingContext, TruncatedSeries

CONTEXTS = [
    RingContext(2, "rational", 4, 0),
    RingContext(2, "multiplicative-beta", 4, 3),
    RingContext(2, "universal-rational", 4, 3),
]

# pieces of the text grammar, including the near misses
TOKENS = [
    "0", "1", "-3", "2/3", "1/0", "0/0", "-0/0", "1.5", " * ", " + ", "*", "+",
    "t1", "t2", "t3", "t0", "m1", "m2", "m0", "b", "^", "^2", "^0", "^-1", "x", " ",
]
texts = st.one_of(
    st.text(max_size=30), st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.floats(),
    st.text(max_size=5),
    st.sampled_from(["1", "1/2", "1/0", "0/0", "x"]),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["t", "lazard", "coeff"]), inner, max_size=3),
    ),
    max_leaves=10,
)
# objects shaped like terms, with any key possibly missing or ill-typed
terms = st.fixed_dictionaries(
    {},
    optional={
        "t": st.one_of(st.lists(st.integers(-1, 3), max_size=3), json_values),
        "lazard": st.one_of(
            st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=2), json_values
        ),
        "coeff": json_values,
    },
)
json_data = st.one_of(json_values, st.lists(terms, max_size=3))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(ctx=st.sampled_from(CONTEXTS), text=texts)
def test_from_text_raises_only_value_error(ctx, text):
    try:
        TruncatedSeries.from_text(ctx, text)
    except ValueError:
        pass


@settings(derandomize=True, max_examples=400, deadline=None)
@given(ctx=st.sampled_from(CONTEXTS), data=json_data)
def test_from_json_terms_raises_only_value_error(ctx, data):
    try:
        TruncatedSeries.from_json_terms(ctx, data)
    except ValueError:
        pass


@pytest.mark.parametrize("text", ["1/0 * t1", "0/0", "1 * t1 + 3/0 * t2"])
def test_zero_denominator_in_text(text):
    with pytest.raises(ValueError, match="zero denominator"):
        TruncatedSeries.from_text(CONTEXTS[0], text)


@pytest.mark.parametrize(
    "data",
    [
        [{"coeff": "1/0", "lazard": [], "t": [1, 0]}],
        [{"coeff": "1", "t": [1, 0]}],
        [{"coeff": "1", "lazard": []}],
        [{"lazard": [], "t": [1, 0]}],
        [{"coeff": None, "lazard": [], "t": [1, 0]}],
        [{"coeff": float("inf"), "lazard": [], "t": [1, 0]}],
        [{"coeff": "1", "lazard": [3], "t": [1, 0]}],
        3,
        ["t"],
    ],
)
def test_malformed_json_terms(data):
    with pytest.raises(ValueError):
        TruncatedSeries.from_json_terms(CONTEXTS[2], data)
