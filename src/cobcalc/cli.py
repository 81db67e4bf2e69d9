"""Command-line front end: deterministic, scriptable JSON/text reports.

Subcommands: ``fgl check``, ``bg``, ``flag``, ``sif``, ``pbf``,
``tower bgm``, ``selftest``, one row each in `SUBCOMMANDS`: the help, the
nested word, the option table and the function that runs the job.
Options, defaults and ranges are written only there.  `read_argv` reads a
well-formed argv off the table; argparse's one parser tree, built from it,
reads the rest and writes help and refusals.  Either namespace is the job
once `config_from_args` has checked its ranges.
No job draws: `sif`, `flag` and `pbf` pass ``random.Random(seed)`` to a
seeded suite of `selftest` and write its verdict.  A job passes the law's
kind, as `config_from_args` normalized it, and the caps, and nothing more:
`fgl.build_fgl` builds its law and `fgl.ring_context` its series contexts.
A job returns its report's body; `run` writes the header of every report,
its ``schema`` and, from the law kind and the caps, its ``caps``.
Identical configuration and seed produce byte-identical output; exit
status is 0 iff every requested check passed.  An invalid configuration,
a refused job or one out of memory exits 2 with a ``cobcalc/error/v1``
object whose ``kind`` names the cause (see `ERROR_KINDS`).  A `tower bgm`
degree whose window is too short to certify stabilization is reported in
the body, as ``refused`` text that names the degree, and exits 1: the job
ran, and one of its checks did not pass.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from typing import Callable, Optional, Sequence

from .bundles import trivial_bundle_ring, xi_power
from .equivariant import EnumerationCapExceeded, bg_dimensions, invariant_bases, preset
from .fgl import FglConstructionError, build_fgl, normalize_kind, ring_context
from .selftest import division_suite, flag_suite, run_selftest, self_intersection_suite
from .series import ContextMismatch, RingContext, SubstitutionError
from .towers import (
    WindowNotStabilized,
    inverse_limit_dims,
    projective_space_tower,
    stabilization_index,
)
from .value import FrozenValue

SCHEMA_PREFIX = "cobcalc"
# `tower bgm` refuses more levels than this before it builds anything: every
# level costs memory in the one slice it holds, and no cap or degree needs nearly this many
MAX_LEVELS = 10_000
# ... nor more level dims over all its slices, (asked degrees) x (levels + 1), than
# this: a cap on work, since a job builds only the degrees it is asked
MAX_TOWER_DIMS = 10_000_000
# `--deg` refuses a range of more degrees than this before expanding it: each
# degree costs a job up to a kilobyte of memory, and no job needs nearly this many
MAX_DEGREES = 100_000


class ConfigError(ValueError):
    """Invalid job configuration; message is meant to be actionable."""


# the exceptions a job can end with, each with the stable ``kind`` of its
# cobcalc/error/v1 object; the first match wins, so subclasses come first
ERROR_KINDS = (
    (ConfigError, "config"),
    (EnumerationCapExceeded, "refused"),
    (FglConstructionError, "construction"),
    (ContextMismatch, "context"),
    (SubstitutionError, "substitution"),
    (ValueError, "invalid"),
    (MemoryError, "resources"),
)


def _context(config: argparse.Namespace, n_vars: int) -> RingContext:
    return ring_context(config.fgl_kind, n_vars, config.max_t, config.max_w)


def _law(config: argparse.Namespace):
    return build_fgl(config.fgl_kind, config.max_t, config.max_w)


def parse_degree_range(text: str) -> list:
    lo, sep, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise ConfigError(f"--deg takes a degree or a range lo..hi, got {text!r}") from None
    if hi < lo:
        raise ConfigError(f"empty degree range {text!r}")
    if hi - lo >= MAX_DEGREES:
        raise ConfigError(f"--deg {text!r} spans more than the cap of {MAX_DEGREES} degrees")
    return list(range(lo, hi + 1))


def _emit(report: dict, config: argparse.Namespace) -> str:
    if config.output_format == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    lines = []
    for key in sorted(report):
        lines.append(f"{key}: {json.dumps(report[key], sort_keys=True)}")
    return "\n".join(lines)


# -- subcommand bodies -------------------------------------------------------------


def _run_fgl_check(config: argparse.Namespace):
    law = _law(config)
    report = law.axioms
    body = {
        "kind": law.kind,
        "unit": report.unit_ok,
        "comm": report.comm_ok,
        "assoc": report.assoc_ok,
    }
    return (0 if report.ok else 1), body


def _run_bg(config: argparse.Namespace):
    if config.t_order > config.max_t:
        raise ConfigError(
            f"--torder {config.t_order} exceeds the cap --max-t {config.max_t}"
        )
    if max(config.degrees) > config.t_order:
        raise ConfigError(
            f"degree {max(config.degrees)} of --deg {config.deg} exceeds "
            f"--torder {config.t_order}; monomials of that degree need a larger window"
        )
    group = preset(config.group)
    degrees = sorted(set(config.degrees))
    if config.emit_basis:
        law = _law(config)  # only the basis needs a law: Lambda is its logarithm
        bases = {
            d: [s.to_text() for s in basis]
            for d, basis in invariant_bases(group.weyl, law, degrees, config.t_order).items()
        }
        dims = {d: len(basis) for d, basis in bases.items()}
    else:
        dims = bg_dimensions(group, _context(config, group.rank), degrees, config.t_order)
    body = {
        "group": group.name,
        "fgl": config.fgl_kind,
        "torder": config.t_order,
        "dims": {str(d): dim for d, dim in dims.items()},
    }
    if config.emit_basis:
        body["basis"] = {str(d): basis for d, basis in bases.items()}
    return 0, body


def _run_flag(config: argparse.Namespace):
    group = preset(config.group)
    # the job enumerates the Weyl group: refuse an oversized one before building anything
    group.require_enumerable()
    law = _law(config)
    elements = group.weyl.elements()
    mult_ok, cong_ok, shown = flag_suite(random.Random(config.seed), law, elements, config.samples)
    body = {
        "group": group.name,
        "fgl": law.kind,
        "seed": config.seed,
        "samples": config.samples,
        "weyl_order": len(elements),
        "images": [
            {"a": a.to_text(), "b": b.to_text(), "components": [c.to_text() for c in image]}
            for a, b, image in shown
        ],
        "multiplicative_ok": mult_ok,
        # divisibility by the group-law root difference: a derived consistency
        # check, not one of the structural identities
        "congruence_ok_derived": cong_ok,
    }
    return (0 if mult_ok and cong_ok is not False else 1), body


def _run_sif(config: argparse.Namespace):
    # every Chern root has t-order >= 1, so c_rank has t-order >= rank
    if config.rank > config.max_t:
        raise ConfigError(f"--rank {config.rank} exceeds --torder {config.max_t}: "
                          f"c_{config.rank} and every trial vanish in the window")
    law = _law(config)
    failures, residual = self_intersection_suite(random.Random(config.seed), law,
                                                 law.context(config.base_vars), config.rank,
                                                 config.samples)
    body = {
        "fgl": law.kind,
        "rank": config.rank,
        "base_vars": config.base_vars,
        "seed": config.seed,
        "samples": config.samples,
        "failures": failures,
        "residual": residual.to_text(),
    }
    return (1 if failures else 0), body


def _run_pbf(config: argparse.Namespace):
    ctx = _context(config, 2)
    xi_zero = xi_power(trivial_bundle_ring(ctx, config.rank), config.rank).is_zero()
    division_ok = division_suite(random.Random(config.seed), ctx, config.rank, config.samples)
    body = {
        "fgl": config.fgl_kind,
        "rank": config.rank,
        "seed": config.seed,
        "samples": config.samples,
        "trivial_xi_power_zero": xi_zero,
        "division_oracle_ok": division_ok,
    }
    return (0 if xi_zero and division_ok else 1), body


def _run_tower_bgm(config: argparse.Namespace):
    if min(config.degrees) < 0:
        raise ConfigError(
            f"degree {min(config.degrees)} is negative; the tower starts at degree 0"
        )
    if max(config.degrees) > config.max_t:
        raise ConfigError(
            f"degree {max(config.degrees)} of --deg {config.deg} exceeds --max-t {config.max_t}"
        )
    degrees = sorted(set(config.degrees))
    dims = len(degrees) * (config.levels + 1)
    if dims > MAX_TOWER_DIMS:
        raise ConfigError(
            f"the job would build {dims} level dims, (asked degrees) x (levels + 1), "
            f"over the cap of {MAX_TOWER_DIMS}"
        )
    ctx = _context(config, 1)
    table = {}
    for d in degrees:
        # no answer reads another degree: hold one slice at a time
        sl = projective_space_tower(ctx, d, config.levels)
        entry = table[d] = {"stab_index": stabilization_index(sl)}
        try:
            entry["lim_dim"] = inverse_limit_dims(sl)
        except WindowNotStabilized as exc:
            entry["lim_dim"] = None
            entry["refused"] = f"degree {d}: {exc}"
    ok = all(
        e["stab_index"] is not None and e["lim_dim"] is not None
        for e in table.values()
    )
    body = {
        "fgl": config.fgl_kind,
        "levels": config.levels,
        "degrees": {str(d): e for d, e in table.items()},
    }
    return (0 if ok else 1), body


def _run_selftest(config: argparse.Namespace):
    ok, results = run_selftest(config.seed)
    if config.output_format == "json":
        return (0 if ok else 1), {"seed": config.seed, "ok": ok, "checks": results}
    lines = [
        f"{'PASS' if r['ok'] else 'FAIL'} {r['name']} -- {r['detail']}"
        for r in results
    ]
    lines.append(f"selftest seed={config.seed}: {'all checks passed' if ok else 'FAILURES'}")
    return (0 if ok else 1), "\n".join(lines)


def run(config: argparse.Namespace):
    """Run a job, the namespace `config_from_args` checked; returns
    (exit_status, report_string).

    A job returns its body without a header, and this is the one writer of
    the header of a JSON or key-per-line report: its ``schema``, named by
    the subcommand and its nested word, and for a job with a law kind its
    ``caps``, the weight cap as `fgl.ring_context` gives it for that kind.
    """
    row = SUBCOMMANDS[config.command]
    status, body = row.run(config)
    if isinstance(body, str):
        return status, body
    name = config.command if row.nested is None else f"{config.command}-{row.nested[0]}"
    body["schema"] = f"{SCHEMA_PREFIX}/{name}/v1"
    if hasattr(config, "fgl_kind"):
        ctx = ring_context(config.fgl_kind, 1, config.max_t, config.max_w)
        body["caps"] = {"max_t": ctx.max_t_order, "max_w": ctx.max_weight}
    return status, _emit(body, config)


# -- argument parsing --------------------------------------------------------------


class Option(FrozenValue):
    """One option of a subcommand, as `build_parser` declares it to argparse
    and `read_argv` reads it.  ``type`` converts the value token; ``bool``
    marks a flag that takes none (argparse's ``store_true``).  ``low`` and
    ``high`` (None: unbounded; a high needs a low) are the range that
    `config_from_args` holds an int to.  A plain value class (`cobcalc.value`):
    a ``NamedTuple`` class took about 0.3 ms of every import on a 2-core VM."""

    _fields = ("flag", "dest", "type", "default", "required", "choices", "help", "low", "high")

    def __init__(self, flag: str, dest: str, type: type, default=None, *, required: bool = False,
                 choices: Optional[tuple] = None, help: Optional[str] = None,
                 low: Optional[int] = None, high: Optional[int] = None):
        self.__dict__.update(flag=flag, dest=dest, type=type, default=default, required=required,
                             choices=choices, help=help, low=low, high=high)


class Subcommand(FrozenValue):
    """A row of `SUBCOMMANDS`: its help, its one nested word as ``(word,
    help)`` or None, its options in the order help lists them, and the
    function that runs its job."""

    _fields = ("help", "nested", "options", "run")

    def __init__(self, help: str, nested: Optional[tuple], options: tuple, run: Callable):
        self.__dict__.update(help=help, nested=nested, options=options, run=run)


_MAX_W = Option("--max-w", "max_w", int, 5, help="generator weight cap (default 5)", low=0)
_CAPS = (
    Option("--max-t", "max_t", int, 6, help="t-order truncation cap (default 6)", low=0),
    _MAX_W,
)
_SEED = (Option("--seed", "seed", int, 0, help="seed for the randomized suite"),)
_FORMAT = (Option("--format", "output_format", str, "json", choices=("json", "text")),)

# subcommand -> its row, in help order; 0 samples would check nothing and still pass
SUBCOMMANDS = {
    "fgl": Subcommand(
        "formal group law utilities", ("check", "verify the group law axioms"),
        (Option("--kind", "fgl_kind", str, required=True), *_CAPS, *_FORMAT),
        _run_fgl_check,
    ),
    "bg": Subcommand(
        "invariant dimensions of a classifying space", None,
        (
            Option("--group", "group", str, "GL2"),
            Option("--fgl", "fgl_kind", str, "additive"),
            Option("--deg", "deg", str, "0..3", help="degree or range, e.g. 0..4"),
            Option("--torder", "t_order", int, required=True, low=0),
            Option("--emit-basis", "emit_basis", bool, False),
            *_CAPS, *_FORMAT,
        ),
        _run_bg,
    ),
    "flag": Subcommand(
        "flag-variety fixed point restriction", None,
        (
            Option("--group", "group", str, "GL2"),
            Option("--fgl", "fgl_kind", str, "additive"),
            Option("--pairs", "samples", int, 25, low=1),
            *_CAPS, *_SEED, *_FORMAT,
        ),
        _run_flag,
    ),
    "sif": Subcommand(
        "self-intersection identity suite", None,
        (
            Option("--fgl", "fgl_kind", str, "universal"),
            Option("--rank", "rank", int, 2, low=1),
            Option("--torder", "max_t", int, 6, help="t-order truncation cap (default 6)", low=0),
            Option("--samples", "samples", int, 25, low=1),
            # samples redraw t-exponents in 0..2 to fit the cap: hopeless past 8 variables
            Option("--base-vars", "base_vars", int, 3, low=1, high=8),
            _MAX_W, *_SEED, *_FORMAT,
        ),
        _run_sif,
    ),
    "pbf": Subcommand(
        "projective bundle formula suite", None,
        (
            Option("--fgl", "fgl_kind", str, "additive"),
            Option("--rank", "rank", int, 3, low=1, high=4),
            Option("--samples", "samples", int, 25, low=1),
            *_CAPS, *_SEED, *_FORMAT,
        ),
        _run_pbf,
    ),
    "tower": Subcommand(
        "inverse limit diagnostics", ("bgm", "rank-1 classifying space tower"),
        (
            Option("--fgl", "fgl_kind", str, "additive"),
            Option("--deg", "deg", str, "0..5"),
            Option("--levels", "levels", int, 8, help=f"window levels, 2..{MAX_LEVELS}",
                   low=2, high=MAX_LEVELS),
            *_CAPS, *_FORMAT,
        ),
        _run_tower_bgm,
    ),
    "selftest": Subcommand("run the full invariant suite", None, (*_SEED, *_FORMAT), _run_selftest),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative degree range such as -1..2 is a value, like -1, not an option
        self._negative_number_matcher = re.compile(r"^-\d+(\.\.-?\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `SUBCOMMANDS`, one tree with every subcommand.

    `main` builds it only for an argv `read_argv` declines, for argparse's
    help, usage and error messages.
    """
    parser = _Parser(
        prog="cobcalc",
        description="exact formal-group-law and equivariant ring calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=row.help)
        if row.nested is not None:
            word, help_text = row.nested
            nested = p.add_subparsers(dest=f"{name}_command", required=True)
            p = nested.add_parser(word, help=help_text)
        for o in row.options:
            keywords = {"dest": o.dest, "default": o.default, "required": o.required, "help": o.help}
            if o.type is bool:
                p.add_argument(o.flag, action="store_true", **keywords)
            else:
                p.add_argument(o.flag, type=o.type, choices=o.choices, **keywords)
    return parser


def read_argv(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace ``build_parser().parse_args(argv)`` gives, read
    off `SUBCOMMANDS` without argparse, or None when ``argv`` is not in the
    one form read here: the subcommand and its nested word, then options
    named exactly, each at most once, each value a token that does not
    start with ``-`` and that its type accepts, and every required option
    given.  Help, abbreviations, ``--opt=value``, repeats and ``-``-leading
    values are argparse's to read or refuse.
    """
    row = SUBCOMMANDS.get(argv[0]) if argv else None
    if row is None:
        return None
    config = {"command": argv[0]}
    tokens = iter(argv[1:])
    if row.nested is not None:
        word = row.nested[0]
        if next(tokens, None) != word:
            return None
        config[f"{argv[0]}_command"] = word
    options = {o.flag: o for o in row.options}
    given = {}
    for token in tokens:
        option = options.get(token)
        if option is None or token in given:
            return None
        if option.type is bool:
            given[token] = True
            continue
        value = next(tokens, "-")  # a missing value reads as "-", and is declined
        if value.startswith("-") or (option.choices and value not in option.choices):
            return None
        try:
            given[token] = option.type(value)
        except ValueError:
            return None
    for o in row.options:
        if o.flag in given:
            config[o.dest] = given[o.flag]
        elif o.required:
            return None
        else:
            config[o.dest] = o.default
    return argparse.Namespace(**config)


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed ``args`` and expand ``--deg`` into ``degrees``, in
    place: the namespace is the job `run` takes, and `SUBCOMMANDS` holds
    every option, default and range.  Each option's range is checked here,
    in the order of its row; a check that reads two options is its job's."""
    if hasattr(args, "deg"):
        args.degrees = parse_degree_range(args.deg)
    for o in SUBCOMMANDS[args.command].options:
        value = getattr(args, o.dest)
        if o.low is not None and (value < o.low or o.high is not None and value > o.high):
            bound = f"at least {o.low}" if o.high is None else f"in {o.low}..{o.high}"
            raise ConfigError(f"{o.flag} must be {bound}, got {value}")
    if hasattr(args, "fgl_kind"):
        args.fgl_kind = normalize_kind(args.fgl_kind)
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the job ``argv`` names (``sys.argv[1:]`` when None); returns the exit status.

    One leading ``--`` ends the (empty) top-level options and is dropped;
    any other option before the subcommand but help is a config error.  A
    well-formed argv is read by `read_argv` and builds no parser; any
    other goes to the argparse tree of `build_parser`, which writes help
    and refusals.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    first = argv[0] if argv else ""
    try:
        # help and its abbreviations are all argparse reads before a subcommand
        if first.startswith("-") and first not in ("-h", "--h", "--he", "--hel", "--help"):
            raise ConfigError(f"{first!r} comes before the subcommand; options follow the subcommand")
        args = read_argv(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        status, report = run(config_from_args(args))
    except tuple(cls for cls, _ in ERROR_KINDS) as exc:
        # drop the job first: after a MemoryError its frames hold what filled memory
        args = exc.__traceback__ = exc.__context__ = None
        kind = next(kind for cls, kind in ERROR_KINDS if isinstance(exc, cls))
        message = str(exc) if kind != "resources" else "the job ran out of memory"
        error = {
            "schema": f"{SCHEMA_PREFIX}/error/v1",
            "error": {"kind": kind, "message": message},
        }
        status, report = 2, json.dumps(error, sort_keys=True, indent=2)
    try:
        print(report, flush=True)
    except BrokenPipeError:
        # the reader of stdout exited early; the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
