"""The selftest suite, one pytest item per check.

``selftest --seed 42`` as a whole (green, byte-identical twice, recorded
digest) is acceptance criterion 9 in ``test_acceptance.py``; the digests
of other seeds and of the text format are pinned here.
"""

import hashlib
import random

import pytest

from cobcalc import selftest
from cobcalc.cli import main
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
    def crash(sl):
        raise TypeError("inverse_limit_dims crashed")

    monkeypatch.setattr(selftest, "inverse_limit_dims", crash)
    with pytest.raises(TypeError, match="crashed"):
        selftest.check_tower_find_or_refuse(random.Random(0))


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
