"""Fuzz tests: the text parser of ``TruncatedSeries`` refuses malformed
input with ValueError and with nothing else."""

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
