"""Argv fuzz of the CLI's exit contract.

For any options a subcommand is given, `cli.main` exits 0, 1 or 2 (help
is ``SystemExit(0)``), writes no traceback, prints a stdout that parses
under its ``--format``, and answers every exit 2 with a cobcalc/error/v1
object whose ``kind`` is one of `cli.ERROR_KINDS`.  The draws stay small
(caps up to 4, at most 3 pairs or samples), so each job answers in
milliseconds; any value may instead be junk, negative or empty.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import cli

JUNK = st.sampled_from(["", "x", "0", "-1", "-7", "1.5", "0x2", "1..", "..2", "3..1", "--", "-h"])
KINDS = st.sampled_from(["additive", "multiplicative", "universal", "add", "mult", "elliptic"])
GROUPS = st.sampled_from(["GL1", "GL2", "GL3", "SL2", "B2", "torus2", "GL0", "B0", "E8"])


def degrees(lo):
    """A degree or a range of up to 3 degrees, starting at ``lo`` or above."""
    return st.builds(lambda a, n: f"{a}..{a + n}" if n else str(a),
                     st.sampled_from(range(lo, 3)), st.sampled_from(range(3)))

FORMATS = st.sampled_from(["json", "text"])


def ints(lo, hi):
    return st.sampled_from([str(i) for i in range(lo, hi + 1)])


# a law needs max_t >= 2; junk still draws the lower caps
CAPS = {"--max-t": ints(2, 4), "--max-w": ints(0, 4), "--format": FORMATS}
SEED = {"--seed": ints(-3, 50)}

# subcommand -> (its words, the options every draw passes, the options a
# draw may pass); None marks a flag that takes no value
COMMANDS = {
    "fgl": (["fgl", "check"], {"--kind": KINDS, **CAPS}, {}),
    "bg": (["bg"], {"--torder": ints(2, 4), **CAPS},
           {"--group": GROUPS, "--fgl": KINDS, "--deg": degrees(-1), "--emit-basis": None}),
    "flag": (["flag"], {"--pairs": ints(1, 3), **CAPS}, {"--group": GROUPS, "--fgl": KINDS, **SEED}),
    "sif": (["sif"], {"--samples": ints(1, 3), **CAPS},
            {"--fgl": KINDS, "--rank": ints(0, 3), "--torder": ints(0, 4),
             "--base-vars": ints(0, 9), **SEED}),
    "pbf": (["pbf"], {"--samples": ints(1, 3), **CAPS},
            {"--fgl": KINDS, "--rank": ints(0, 5), **SEED}),
    "tower": (["tower", "bgm"], {"--deg": degrees(0), **CAPS}, {"--fgl": KINDS, "--levels": ints(1, 10)}),
    "selftest": (["selftest"], {}, {"--format": FORMATS, **SEED}),
}
SCHEMAS = {"fgl": "fgl-check", "tower": "tower-bgm"}
ERROR_KIND_NAMES = {kind for _, kind in cli.ERROR_KINDS}


@st.composite
def argvs(draw, name):
    words, required, optional = COMMANDS[name]
    chosen = list(required) + [o for o in optional if draw(st.booleans())]
    options = []
    for option in draw(st.permutations(chosen)):
        values = {**required, **optional}[option]
        if values is None:
            options.append([option])
        elif draw(st.integers(0, 11)) < 11:
            options.append([option, draw(values)])
        else:  # junk, negative or empty
            options.append([option, draw(JUNK)])
    stray = draw(st.sampled_from([[]] * 12 + [["extra"], ["--bogus"], ["-h"]]))
    return words + [token for option in options for token in option] + stray


def outcome(argv):
    """(status, stdout, stderr) of ``cli.main(argv)``; status None for help."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # help exits from inside argparse
            assert exc.code == 0, argv
            status = None
    return status, out.getvalue(), err.getvalue()


def check_contract(name, argv):
    status, out, err = outcome(argv)
    assert "Traceback" not in err
    if status is None:
        assert out.startswith("usage: cobcalc")
        return
    assert status in (0, 1, 2)
    if status == 2:
        body = json.loads(out)
        assert body["schema"] == "cobcalc/error/v1"
        assert body["error"]["kind"] in ERROR_KIND_NAMES
        return
    if cli.build_parser().parse_args(argv).output_format == "json":
        assert json.loads(out)["schema"] == f"cobcalc/{SCHEMAS.get(name, name)}/v1"
    elif name == "selftest":
        *checks, verdict = out.splitlines()
        assert all(re.match(r"(PASS|FAIL) \S+ -- ", line) for line in checks)
        assert re.match(r"selftest seed=-?\d+: ", verdict)
    else:
        for line in out.splitlines():
            key, _, value = line.partition(": ")
            assert re.fullmatch(r"\w+", key)
            json.loads(value)


# a valid selftest runs the whole suite, about half a second: few draws
@pytest.mark.parametrize("name", list(COMMANDS))
def test_every_argv_keeps_the_exit_contract(name):
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=3 if name == "selftest" else 100)
    @given(argvs(name))
    def check(argv):
        check_contract(name, argv)

    check()
