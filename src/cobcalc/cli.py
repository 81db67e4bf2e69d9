"""Command-line front end: deterministic, scriptable JSON/text reports.

Subcommands: ``fgl check``, ``bg``, ``flag``, ``sif``, ``pbf``,
``tower bgm``, ``selftest``, one row each in `SUBCOMMANDS`: the help, the
function that adds the options and the one that runs the job.  Options
and defaults are written only in the parser; its namespace is the job.
Identical configuration and seed produce byte-identical output; exit
status is 0 iff every requested check passed.  An invalid configuration,
a refused job or one out of memory exits 2 with a ``cobcalc/error/v1``
object whose ``kind`` names the cause (see `ERROR_KINDS`).  A `tower bgm`
degree whose window is too short to certify stabilization is reported in
the body and exits 1: the job ran, and one of its checks did not pass.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from typing import Optional, Sequence

from .bundles import (
    SplitBundle,
    diagonal_map,
    first_root_congruent_pairs,
    flag_restriction,
    pb_mul,
    projective_completion_ring,
    reduce_by_division,
    top_chern_class,
    trivial_bundle_ring,
    xi_power,
    zero_section_pushforward,
    zero_section_restriction,
)
from .equivariant import (
    EnumerationCapExceeded,
    bg_dimensions,
    invariant_bases,
    preset,
    weyl_map,
)
from .fgl import COEFF_KIND_FOR, FglConstructionError, build_fgl, normalize_kind
from .selftest import random_series, run_selftest
from .series import ContextMismatch, RingContext, SubstitutionError
from .towers import (
    WindowNotStabilized,
    inverse_limit_dims,
    projective_space_tower,
    stabilization_index,
)

SCHEMA_PREFIX = "cobcalc"
# `tower bgm` refuses more levels than this before it builds anything: every
# level costs memory per degree, and no cap or degree needs nearly this many
MAX_LEVELS = 10_000
# ... nor a tower of more level dims, (max degree + 1) x (levels + 1), than this
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
    kind = normalize_kind(config.fgl_kind)
    coeff = COEFF_KIND_FOR[kind]
    max_w = 0 if coeff == "rational" else config.max_w
    return RingContext(n_vars, coeff, config.max_t, max_w)


def _law(config: argparse.Namespace, n_vars: int = 2):
    return build_fgl(normalize_kind(config.fgl_kind), _context(config, n_vars))


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
        "schema": f"{SCHEMA_PREFIX}/fgl-check/v1",
        "kind": law.kind,
        "caps": {"max_t": config.max_t, "max_w": law.max_weight},
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
    ctx = _context(config, group.rank)

    degrees = sorted(set(config.degrees))
    if config.emit_basis:
        law = _law(config)  # only the basis needs a law: Lambda is its logarithm
        bases = {
            d: [s.to_text() for s in basis]
            for d, basis in invariant_bases(group.weyl, law, degrees, config.t_order).items()
        }
        dims = {d: len(basis) for d, basis in bases.items()}
    else:
        dims = bg_dimensions(group, ctx, degrees, config.t_order)
    body = {
        "schema": f"{SCHEMA_PREFIX}/bg/v1",
        "group": group.name,
        "fgl": normalize_kind(config.fgl_kind),
        "caps": {"max_t": config.max_t, "max_w": ctx.max_weight},
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
    ctx = law.context(group.rank)
    rng = random.Random(config.seed)
    elements = group.weyl.elements()
    maps = [weyl_map(w, law, ctx) for w in elements]
    congruent_pairs = first_root_congruent_pairs(elements)
    # t1 -> t2, the restriction every compared pair goes through
    diagonal = diagonal_map(ctx, 0, 1) if congruent_pairs else None
    mult_ok = True
    # null when the group has no pair of components to compare
    cong_ok = True if congruent_pairs else None
    shown = []
    for trial in range(config.samples):
        a, b = random_series(rng, ctx), random_series(rng, ctx)
        a2, b2 = random_series(rng, ctx), random_series(rng, ctx)
        image = flag_restriction(a, b, maps)
        other = flag_restriction(a2, b2, maps)
        product = flag_restriction(a * a2, b * b2, maps)
        if any((p - x * y) for p, x, y in zip(product, image, other)):
            mult_ok = False
        for f in (image, other, product):
            for i, j in congruent_pairs:
                if diagonal(f[i] - f[j]):
                    cong_ok = False
        if trial < 3:
            shown.append(
                {
                    "a": a.to_text(),
                    "b": b.to_text(),
                    "components": [c.to_text() for c in image],
                }
            )
    ok = mult_ok and cong_ok is not False
    body = {
        "schema": f"{SCHEMA_PREFIX}/flag/v1",
        "group": group.name,
        "fgl": law.kind,
        "caps": {"max_t": config.max_t, "max_w": law.max_weight},
        "seed": config.seed,
        "samples": config.samples,
        "weyl_order": len(elements),
        "images": shown,
        "multiplicative_ok": mult_ok,
        # divisibility by the group-law root difference: a derived consistency
        # check, not one of the structural identities
        "congruence_ok_derived": cong_ok,
    }
    return (0 if ok else 1), body


def _run_sif(config: argparse.Namespace):
    # samples redraw t-exponents in 0..2 until their sum fits the cap: hopeless past 8 variables
    if config.base_vars < 1 or config.base_vars > 8:
        raise ConfigError("sif supports --base-vars 1..8")
    if config.rank < 1:
        raise ConfigError("sif needs --rank >= 1")
    ctx = _context(config, 2)
    if config.t_order is not None:  # --torder overrides --max-t
        ctx = RingContext(2, ctx.coeff_kind, config.t_order, ctx.max_weight)
    law = build_fgl(normalize_kind(config.fgl_kind), ctx)
    ctx = law.context(config.base_vars)
    rng = random.Random(config.seed)
    worst = ctx.zero()
    failures = 0
    for trial in range(config.samples):
        roots = tuple(
            random_series(rng, ctx, 2, augmentation=True) for _ in range(config.rank)
        )
        bundle = SplitBundle(roots)
        ring = projective_completion_ring(bundle)
        a = random_series(rng, ctx, 3)
        got = zero_section_restriction(
            zero_section_pushforward(a, bundle, ring, law)
        )
        residual = got - a * top_chern_class(bundle)
        if not residual.is_zero():
            failures += 1
            if worst.is_zero():
                worst = residual
    ok = failures == 0
    body = {
        "schema": f"{SCHEMA_PREFIX}/sif/v1",
        "fgl": law.kind,
        "rank": config.rank,
        "base_vars": config.base_vars,
        "caps": {"max_t": law.max_t_order, "max_w": law.max_weight},
        "seed": config.seed,
        "samples": config.samples,
        "failures": failures,
        "residual": worst.to_text(),
    }
    return (0 if ok else 1), body


def _run_pbf(config: argparse.Namespace):
    if config.rank < 1 or config.rank > 4:
        raise ConfigError("pbf supports --rank 1..4")
    ctx = _context(config, 2)
    rng = random.Random(config.seed)
    ring = trivial_bundle_ring(ctx, config.rank)
    xi_zero = xi_power(ring, config.rank).is_zero()
    division_ok = True
    for trial in range(config.samples):
        roots = tuple(
            random_series(rng, ctx, 2, augmentation=True) for _ in range(config.rank)
        )
        r = projective_completion_ring(SplitBundle(roots))
        u = r.from_coords([random_series(rng, ctx, 2) for _ in range(r.rank)])
        v = r.from_coords([random_series(rng, ctx, 2) for _ in range(r.rank)])
        conv = [ctx.zero()] * (2 * r.rank - 1)
        for i, ua in enumerate(u.coords):
            for j, vb in enumerate(v.coords):
                conv[i + j] = conv[i + j] + ua * vb
        _, rem = reduce_by_division(r, conv)
        if list(pb_mul(r, u, v).coords) != list(rem):
            division_ok = False
    ok = xi_zero and division_ok
    body = {
        "schema": f"{SCHEMA_PREFIX}/pbf/v1",
        "fgl": normalize_kind(config.fgl_kind),
        "rank": config.rank,
        "caps": {"max_t": config.max_t, "max_w": ctx.max_weight},
        "seed": config.seed,
        "samples": config.samples,
        "trivial_xi_power_zero": xi_zero,
        "division_oracle_ok": division_ok,
    }
    return (0 if ok else 1), body


def _run_tower_bgm(config: argparse.Namespace):
    if min(config.degrees) < 0:
        raise ConfigError(
            f"degree {min(config.degrees)} is negative; the tower starts at degree 0"
        )
    if max(config.degrees) > config.max_t:
        raise ConfigError(
            f"degree {max(config.degrees)} of --deg {config.deg} exceeds --max-t {config.max_t}"
        )
    if config.levels < 2:
        raise ConfigError("--levels must be at least 2")
    if config.levels > MAX_LEVELS:
        raise ConfigError(f"--levels {config.levels} exceeds the cap of {MAX_LEVELS}")
    dims = (max(config.degrees) + 1) * (config.levels + 1)
    if dims > MAX_TOWER_DIMS:
        raise ConfigError(
            f"the tower would hold {dims} level dims, (max degree + 1) x (levels + 1), "
            f"over the cap of {MAX_TOWER_DIMS}"
        )
    ctx = _context(config, 1)
    tower = projective_space_tower(ctx, max(config.degrees), config.levels, min(config.degrees))

    table = {}
    for d in sorted(set(config.degrees)):
        entry = table[d] = {"stab_index": stabilization_index(tower, d)}
        try:
            entry["lim_dim"] = inverse_limit_dims(tower, d)
        except WindowNotStabilized as exc:
            entry["lim_dim"] = None
            entry["refused"] = str(exc)
    ok = all(
        e["stab_index"] is not None and e["lim_dim"] is not None
        for e in table.values()
    )
    body = {
        "schema": f"{SCHEMA_PREFIX}/tower-bgm/v1",
        "fgl": normalize_kind(config.fgl_kind),
        "caps": {"max_t": config.max_t, "max_w": ctx.max_weight},
        "levels": config.levels,
        "degrees": {str(d): e for d, e in table.items()},
    }
    return (0 if ok else 1), body


def _run_selftest(config: argparse.Namespace):
    ok, results = run_selftest(config.seed)
    if config.output_format == "json":
        body = {
            "schema": f"{SCHEMA_PREFIX}/selftest/v1",
            "seed": config.seed,
            "ok": ok,
            "checks": results,
        }
        return (0 if ok else 1), body
    lines = [
        f"{'PASS' if r['ok'] else 'FAIL'} {r['name']} -- {r['detail']}"
        for r in results
    ]
    lines.append(f"selftest seed={config.seed}: {'all checks passed' if ok else 'FAILURES'}")
    return (0 if ok else 1), "\n".join(lines)


def run(config: argparse.Namespace):
    """Run a job, the namespace `config_from_args` checked; returns
    (exit_status, report_string)."""
    status, body = SUBCOMMANDS[config.command][2](config)
    if isinstance(body, str):
        return status, body
    return status, _emit(body, config)


# -- argument parsing --------------------------------------------------------------


def _add_common(p, *, caps=True, seed=False):
    if caps:
        p.add_argument("--max-t", type=int, default=6, dest="max_t",
                       help="t-order truncation cap (default 6)")
        p.add_argument("--max-w", type=int, default=5, dest="max_w",
                       help="generator weight cap (default 5)")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="seed for the randomized suite")
    p.add_argument("--format", choices=("json", "text"), default="json",
                   dest="output_format")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative degree range such as -1..2 is a value, like -1, not an option
        self._negative_number_matcher = re.compile(r"^-\d+(\.\.-?\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise ConfigError(message)


def _add_fgl(p):
    fgl_sub = p.add_subparsers(dest="fgl_command", required=True)
    check_p = fgl_sub.add_parser("check", help="verify the group law axioms")
    check_p.add_argument("--kind", required=True, dest="fgl_kind")
    _add_common(check_p)


def _add_bg(p):
    p.add_argument("--group", default="GL2")
    p.add_argument("--fgl", default="additive", dest="fgl_kind")
    p.add_argument("--deg", default="0..3", help="degree or range, e.g. 0..4")
    p.add_argument("--torder", type=int, required=True, dest="t_order")
    p.add_argument("--emit-basis", action="store_true", dest="emit_basis")
    _add_common(p)


def _add_flag(p):
    p.add_argument("--group", default="GL2")
    p.add_argument("--fgl", default="additive", dest="fgl_kind")
    p.add_argument("--pairs", type=int, default=25, dest="samples")
    _add_common(p, seed=True)


def _add_sif(p):
    p.add_argument("--fgl", default="universal", dest="fgl_kind")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--torder", type=int, default=None, dest="t_order",
                   help="overrides --max-t")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--base-vars", type=int, default=3, dest="base_vars")
    _add_common(p, seed=True)


def _add_pbf(p):
    p.add_argument("--fgl", default="additive", dest="fgl_kind")
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--samples", type=int, default=25)
    _add_common(p, seed=True)


def _add_tower(p):
    tower_sub = p.add_subparsers(dest="tower_command", required=True)
    bgm_p = tower_sub.add_parser("bgm", help="rank-1 classifying space tower")
    bgm_p.add_argument("--fgl", default="additive", dest="fgl_kind")
    bgm_p.add_argument("--deg", default="0..5")
    bgm_p.add_argument("--levels", type=int, default=8, help=f"window levels, 2..{MAX_LEVELS}")
    _add_common(bgm_p)


def _add_selftest(p):
    _add_common(p, caps=False, seed=True)


# subcommand -> (help, the function that adds its arguments, the function that
# runs its job), in the order help lists them
SUBCOMMANDS = {
    "fgl": ("formal group law utilities", _add_fgl, _run_fgl_check),
    "bg": ("invariant dimensions of a classifying space", _add_bg, _run_bg),
    "flag": ("flag-variety fixed point restriction", _add_flag, _run_flag),
    "sif": ("self-intersection identity suite", _add_sif, _run_sif),
    "pbf": ("projective bundle formula suite", _add_pbf, _run_pbf),
    "tower": ("inverse limit diagnostics", _add_tower, _run_tower_bgm),
    "selftest": ("run the full invariant suite", _add_selftest, _run_selftest),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser: every subcommand of `SUBCOMMANDS`, or only ``command``.

    A subparser's usage, help and error messages do not depend on its
    siblings, so a parser built for one subcommand parses that subcommand's
    argv exactly as the full tree does.  Only the top level's own messages
    (its help, "invalid choice") list the siblings: build the full tree for
    an argv that does not name a subcommand.
    """
    parser = _Parser(
        prog="cobcalc",
        description="exact formal-group-law and equivariant ring calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in SUBCOMMANDS.items():
        if command is None or name == command:
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed ``args`` and expand ``--deg`` into ``degrees``, in
    place: the namespace is the job `run` takes, and the parser holds every
    option and default."""
    if hasattr(args, "deg"):
        args.degrees = parse_degree_range(args.deg)
    # --torder, where given, is a cap like --max-t
    caps = (getattr(args, name, None) for name in ("max_t", "max_w", "t_order"))
    if any(cap is not None and cap < 0 for cap in caps):
        raise ConfigError("caps must be non-negative")
    # zero samples would check nothing and still report a pass
    if getattr(args, "samples", 1) < 1:
        flag = "--pairs" if args.command == "flag" else "--samples"
        raise ConfigError(f"{flag} must be at least 1, got {args.samples}")
    if hasattr(args, "fgl_kind"):
        normalize_kind(args.fgl_kind)  # validate early
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the job ``argv`` names (``sys.argv[1:]`` when None); returns the exit status.

    The top-level parser has no options of its own but help, so ``argv[0]``
    is the subcommand: only its subtree is built.  One leading ``--`` ends
    the (empty) top-level options and is dropped.  Help, an empty argv and
    an unknown subcommand get the full tree, whose messages list every
    subcommand; any other option first is a config error.
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
        args = build_parser(first if first in SUBCOMMANDS else None).parse_args(argv)
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
