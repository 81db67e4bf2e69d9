"""The selftest suite, one pytest item per check.

``selftest --seed 42`` as a whole (green, byte-identical twice, recorded
digest) is acceptance criterion 9 in ``test_acceptance.py``.
"""

import random

import pytest

from cobcalc import selftest
from cobcalc.selftest import CHECKS, run_check

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
    def crash(tower, d):
        raise TypeError("inverse_limit_dims crashed")

    monkeypatch.setattr(selftest, "inverse_limit_dims", crash)
    with pytest.raises(TypeError, match="crashed"):
        selftest.check_tower_find_or_refuse(random.Random(0))
