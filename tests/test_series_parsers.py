"""Fuzz tests: the text parser of ``TruncatedSeries`` refuses malformed
input with ValueError and with nothing else."""

import re

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


@settings(derandomize=True, max_examples=400, deadline=None)
@given(ctx=st.sampled_from(CONTEXTS), text=texts)
def test_from_text_raises_only_value_error(ctx, text):
    try:
        TruncatedSeries.from_text(ctx, text)
    except ValueError:
        pass


@pytest.mark.parametrize("text", ["1/0 * t1", "0/0", "1 * t1 + 3/0 * t2"])
def test_zero_denominator_in_text(text):
    with pytest.raises(ValueError, match="zero denominator"):
        TruncatedSeries.from_text(CONTEXTS[0], text)


# each kind reads back only the generator name `to_text` writes for it
@pytest.mark.parametrize("ctx, text, factor", [
    (CONTEXTS[2], "1 * b*t1", "b"),
    (CONTEXTS[1], "1 * m1*t1", "m1"),
    (CONTEXTS[1], "2 * t2 + 1/2 * m1^2", "m1^2"),
    (CONTEXTS[0], "1 * b", "b"),
    (CONTEXTS[0], "1 * m1*t2", "m1"),
], ids=["b-over-universal", "m1-over-multiplicative", "m1-power-over-multiplicative",
        "b-over-rational", "m1-over-rational"])
def test_generator_of_another_kind_is_refused(ctx, text, factor):
    with pytest.raises(ValueError, match=re.escape(f"factor {factor!r}")):
        TruncatedSeries.from_text(ctx, text)


@pytest.mark.parametrize("ctx, text", [
    (CONTEXTS[1], "-1/2 * b^3 + 1 * b*t1"), (CONTEXTS[2], "1 * m1*t1 + 3 * m1*m2*t2^3"),
])
def test_generator_of_the_kind_reads_back(ctx, text):
    assert TruncatedSeries.from_text(ctx, text).to_text() == text
