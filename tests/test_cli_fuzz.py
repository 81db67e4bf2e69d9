"""Argv fuzz of the CLI's exit contract, and of its argv reader.

For any options a subcommand is given, `cli.main` exits 0, 1 or 2 (help
is ``SystemExit(0)``), writes no traceback, prints a stdout that parses
under its ``--format``, and answers every exit 2 with a cobcalc/error/v1
object whose ``kind`` is one of `cli.ERROR_KINDS`; a range refusal has
kind ``config`` and names one of the subcommand's options.  The draws stay
small (caps up to 4, at most 3 pairs or samples), so each job answers in
milliseconds, but every option whose row in `cli.SUBCOMMANDS` declares a
range also draws both sides of each bound; any value may instead be junk,
negative or empty.

`cli.read_argv` either declines an argv or reads it exactly as argparse
does, on the same draws and on variants argparse alone reads: abbreviated
options, ``--opt=value``, repeats, ``-``-leading values and help anywhere.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import cli

from test_cli import (
    EMIT_BASIS_GOLDEN,
    PERFBENCH_ARGV,
    README_GOLDEN,
    SIF_GOLDEN,
    TOWER_GOLDEN,
)

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


# a law needs max_t >= 2; junk and the bound draws still reach the lower caps
CAPS = {"--max-t": ints(2, 4), "--max-w": ints(0, 4), "--format": FORMATS}
SEED = {"--seed": ints(-3, 50)}


def bound_sides(option):
    """low - 1 .. low + 2, and high - 1 .. high + 1 where the row declares a high."""
    values = [*range(option.low - 1, option.low + 3)]
    if option.high is not None:
        values += range(option.high - 1, option.high + 2)
    return st.sampled_from([str(v) for v in values])


def with_bounds(name, words, required, optional):
    """Every option whose row in `cli.SUBCOMMANDS` declares a range drawn on
    both sides of its bounds as well as at its small values; one the draws
    leave out becomes optional."""
    for option in cli.SUBCOMMANDS[name].options:
        if option.low is not None:
            table = required if option.flag in required else optional
            small = table.get(option.flag)
            table[option.flag] = bound_sides(option) if small is None else st.one_of(
                small, bound_sides(option))
    return words, required, optional


# subcommand -> (its words, the options every draw passes, the options a
# draw may pass); None marks a flag that takes no value
COMMANDS = {name: with_bounds(name, *row) for name, row in {
    "fgl": (["fgl", "check"], {"--kind": KINDS, **CAPS}, {}),
    "bg": (["bg"], {"--torder": ints(2, 4), **CAPS},
           {"--group": GROUPS, "--fgl": KINDS, "--deg": degrees(-1), "--emit-basis": None}),
    "flag": (["flag"], {"--pairs": ints(1, 3), **CAPS}, {"--group": GROUPS, "--fgl": KINDS, **SEED}),
    # sif's t-order cap is its --torder
    "sif": (["sif"], {"--samples": ints(1, 3), "--max-w": CAPS["--max-w"], "--format": FORMATS},
            {"--fgl": KINDS, "--rank": ints(0, 3), "--torder": ints(0, 4),
             "--base-vars": ints(0, 9), **SEED}),
    "pbf": (["pbf"], {"--samples": ints(1, 3), **CAPS},
            {"--fgl": KINDS, "--rank": ints(0, 5), **SEED}),
    "tower": (["tower", "bgm"], {"--deg": degrees(0), **CAPS}, {"--fgl": KINDS, "--levels": ints(1, 10)}),
    "selftest": (["selftest"], {}, {"--format": FORMATS, **SEED}),
}.items()}
# the message of a refusal from an option's range
RANGE_REFUSAL = re.compile(r"(\S+) must (?:be in -?\d+\.\.-?\d+|be at least -?\d+), got -?\d+")
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
        refusal = RANGE_REFUSAL.fullmatch(body["error"]["message"])
        if refusal is not None:
            assert body["error"]["kind"] == "config"
            assert refusal.group(1) in {o.flag for o in cli.SUBCOMMANDS[name].options}
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


@pytest.mark.parametrize("name", list(COMMANDS))
def test_the_fuzz_draws_only_declared_options(name):
    _, required, optional = COMMANDS[name]
    assert {*required, *optional} <= {o.flag for o in cli.SUBCOMMANDS[name].options}


# a valid selftest runs the whole suite, about half a second: few draws
@pytest.mark.parametrize("name", list(COMMANDS))
def test_every_argv_keeps_the_exit_contract(name):
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=3 if name == "selftest" else 100)
    @given(argvs(name))
    def check(argv):
        check_contract(name, argv)

    check()


@st.composite
def variants(draw, name):
    """An argv of `argvs`, as drawn or with one edit: an option abbreviated,
    joined to its value by ``=`` or dropped with its value, an option pair
    repeated, a value that starts with ``-``, a token after the subcommand
    replaced by a word, or ``-h`` / ``--help`` anywhere."""
    argv = draw(argvs(name))
    options = [i for i, token in enumerate(argv) if token.startswith("--") and len(token) > 3]
    pairs = [i for i in options if i + 1 < len(argv) and not argv[i + 1].startswith("-")]
    edit = draw(st.sampled_from(
        ["none", "abbreviate", "equals", "drop", "repeat", "dash", "word", "help"]))
    if edit == "abbreviate" and options:
        i = draw(st.sampled_from(options))
        argv[i] = argv[i][:draw(st.integers(3, len(argv[i]) - 1))]
    elif edit == "equals" and pairs:
        i = draw(st.sampled_from(pairs))
        argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif edit == "drop" and pairs:
        i = draw(st.sampled_from(pairs))
        del argv[i:i + 2]
    elif edit == "repeat" and pairs:
        i = draw(st.sampled_from(pairs))
        argv += [argv[i], draw(st.sampled_from([argv[i + 1], "1", "2"]))]
    elif edit == "dash" and pairs:
        i = draw(st.sampled_from(pairs))
        argv[i + 1] = draw(st.sampled_from(["-1", "-0", "-1..2", "-x", "--"]))
    elif edit == "word" and len(argv) > 1:
        argv[draw(st.integers(1, len(argv) - 1))] = draw(st.sampled_from(["extra", "check", "bgm"]))
    elif edit == "help":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--help"])))
    return argv


# one tree serves every draw: parse_args leaves the parser as it found it
PARSER = cli.build_parser()


def argparse_reads(argv):
    """The namespace argparse reads from ``argv``, or None where it writes
    help or refuses."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return PARSER.parse_args(argv)
        except (cli.ConfigError, SystemExit):
            return None


@pytest.mark.parametrize("name", list(COMMANDS))
def test_the_reader_declines_or_reads_as_argparse_does(name):
    read = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(variants(name))
    def check(argv):
        got = cli.read_argv(argv)
        if got is not None:
            assert got == argparse_reads(argv)
            read.append(argv)

    check()
    assert read  # the draws reach the reader, not only argparse


# the README's commands are its goldens and `selftest --seed 42`
DOCUMENTED_ARGV = sorted(
    {tuple(c.split()) for table in (README_GOLDEN, TOWER_GOLDEN, SIF_GOLDEN, EMIT_BASIS_GOLDEN)
     for c in table} | set(PERFBENCH_ARGV) | {("selftest", "--seed", "42")}
)


@pytest.mark.parametrize("argv", DOCUMENTED_ARGV, ids=" ".join)
def test_the_reader_reads_every_documented_command(argv):
    argv = list(argv)
    got = cli.read_argv(argv)
    # a negative degree starts with "-": only argparse reads it
    if any(token.startswith("-") and token[1:2].isdigit() for token in argv):
        assert got is None
    else:
        assert got is not None and got == argparse_reads(argv)
