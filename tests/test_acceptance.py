"""Acceptance suite: one test per criterion, each printing a verdict line.

All comparisons are exact (rational arithmetic); the only tolerance that
appears anywhere is the wall-clock target of criterion 1.
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import sympy

from cobcalc.bundles import (
    SplitBundle,
    diagonal_map,
    direct_sum,
    flag_restriction,
    pb_mul,
    projective_completion_ring,
    reduce_by_division,
    thom_class,
    thom_class_via_twist,
    top_chern_class,
    trivial_bundle_ring,
    xi_power,
    zero_section_pushforward,
    zero_section_restriction,
)
from cobcalc.cli import build_parser, config_from_args, run
from cobcalc.equivariant import bg_dimensions, invariant_basis, preset, weyl_map, window_basis
from cobcalc.fgl import build_fgl, verify_fgl_axioms
from cobcalc.selftest import random_series
from cobcalc.series import Monomial, RingContext
from cobcalc.towers import coefficient_ring_dimension

from oracles import (
    count_poly_monomials,
    permutation_orbit_count,
    series_to_sympy,
    universal_fgl_sympy,
)

ALL_KINDS = ("additive", "multiplicative", "universal-rational")

COEFF_FOR = {
    "additive": "rational",
    "multiplicative": "multiplicative-beta",
    "universal-rational": "universal-rational",
}


def make_law(kind, max_t, max_w):
    return build_fgl(kind, max_t, max_w)


def verdict(n, label, ok):
    print(f"[acceptance] criterion {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed: {label}"


def test_criterion_1_fgl_axioms_at_large_caps():
    start = time.monotonic()
    ok = True
    for kind in ALL_KINDS:
        law = make_law(kind, 8, 7)
        report = verify_fgl_axioms(law.series)
        ok = ok and report.ok and all(r.is_zero() for _, r in report.residuals)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    print(f"[acceptance] criterion 1 runtime: {elapsed:.2f}s")
    verdict(1, "FGL axioms exact at caps (8, 7), < 5 s", ok)


def test_criterion_2_universal_coefficients_vs_oracle():
    law = make_law("universal-rational", 6, 5)
    terms = dict(law.series.items())
    ok = terms[Monomial((1, 1), ((1, 1),))] == Fraction(-2)
    ok = ok and terms[Monomial((2, 1), ((1, 2),))] == Fraction(4)
    ok = ok and terms[Monomial((2, 1), ((2, 1),))] == Fraction(-3)
    # cross-check the full degree <= 4 part against the brute-force oracle
    F_oracle, x, y, ms = universal_fgl_sympy(4)
    small = build_fgl("universal-rational", 4, 3)
    got = series_to_sympy(small.series, (x, y), lambda i: ms[i - 1])
    ok = ok and sympy.expand(got - F_oracle) == 0
    verdict(2, "xy -> -2*m1 and x^2y -> 4*m1^2 - 3*m2, oracle-exact", ok)


def test_criterion_3_tower_matches_coefficient_ring():
    ok = True
    for kind in ALL_KINDS:
        argv = ["tower", "bgm", "--fgl", kind, "--deg", "0..5", "--levels", "8",
                "--max-t", "6", "--max-w", "5"]
        status, report = run(config_from_args(build_parser().parse_args(argv)))
        body = json.loads(report)
        ok = ok and status == 0
        ctx = RingContext(1, COEFF_FOR[kind], 6, 0 if kind == "additive" else 5)
        for d in range(6):
            entry = body["degrees"][str(d)]
            expected = coefficient_ring_dimension(ctx, d)
            ok = ok and entry["lim_dim"] == expected
            ok = ok and entry["stab_index"] is not None and entry["stab_index"] <= d
    verdict(3, "tower limits = bidegree counts, stab index <= degree", ok)


def test_criterion_4_weyl_invariant_dimensions():
    ok = True
    add = make_law("additive", 6, 0)
    for n in (2, 3):
        dims = bg_dimensions(preset(f"GL{n}"), add.context(n), range(5), 4)
        expected = {d: count_poly_monomials(range(1, n + 1), d) for d in range(5)}
        ok = ok and dims == expected
    uni = make_law("universal-rational", 4, 3)
    for n in (2, 3):
        group = preset(f"GL{n}")
        ctx = uni.context(n)
        for d in range(5):
            dim = len(invariant_basis(group.weyl, uni, d, 4))
            brute = permutation_orbit_count(window_basis(ctx, d, 4))
            ok = ok and dim == brute
    verdict(4, "GL(2)/GL(3) invariants: additive counts + brute force at (4, 3)", ok)


def test_criterion_5_self_intersection():
    rng = random.Random(1005)
    checked = 0
    ok = True
    for kind in ALL_KINDS:
        law = make_law(kind, 6, 4)
        ctx = law.context(3)
        for rank in (1, 2, 3):
            roots = tuple(
                random_series(rng, ctx, 2, augmentation=True) for _ in range(rank)
            )
            bundle = SplitBundle(roots)
            ring = projective_completion_ring(bundle)
            top = top_chern_class(bundle)
            for _ in range(12):
                a = random_series(rng, ctx, 3)
                lhs = zero_section_restriction(
                    zero_section_pushforward(a, bundle, ring, law)
                )
                ok = ok and (lhs - a * top).is_zero()
                checked += 1
    ok = ok and checked >= 100
    print(f"[acceptance] criterion 5 base elements checked: {checked}")
    verdict(5, "restriction o pushforward = c_n(E) exactly, caps (6, 4)", ok)


def test_criterion_6_thom_multiplicativity_and_divisor():
    rng = random.Random(1006)
    ok = True
    for kind in ALL_KINDS:
        law = make_law(kind, 5, 3)
        ctx = law.context(2)
        for r1, r2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
            e1 = SplitBundle(
                tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(r1))
            )
            e2 = SplitBundle(
                tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(r2))
            )
            total = direct_sum(e1, e2)
            ring = projective_completion_ring(total)
            lhs = thom_class(total, ring, law)
            rhs = pb_mul(ring, thom_class(e1, ring, law), thom_class(e2, ring, law))
            ok = ok and (lhs - rhs).is_zero()
        for rank in (1, 2):
            roots = tuple(
                random_series(rng, ctx, 2, augmentation=True) for _ in range(rank)
            )
            bundle = SplitBundle(roots)
            ring = projective_completion_ring(bundle)
            via_push = zero_section_pushforward(ctx.one(), bundle, ring, law)
            via_twist = thom_class_via_twist(bundle, ring, law)
            ok = ok and (via_push - via_twist).is_zero()
    verdict(6, "Thom multiplicativity + smooth-divisor agreement, all kinds", ok)


def test_criterion_7_projective_bundle_formula():
    rng = random.Random(1007)
    ok = True
    law = make_law("universal-rational", 5, 3)
    ctx = law.context(2)
    for rank in (1, 2, 3, 4):
        ring = trivial_bundle_ring(ctx, rank)
        ok = ok and xi_power(ring, rank).is_zero()
    for rank in (2, 3, 4):
        roots = tuple(
            random_series(rng, ctx, 2, augmentation=True) for _ in range(rank)
        )
        ring = projective_completion_ring(SplitBundle(roots))
        for _ in range(10):
            u = ring.from_coords([random_series(rng, ctx, 2) for _ in range(ring.rank)])
            v = ring.from_coords([random_series(rng, ctx, 2) for _ in range(ring.rank)])
            conv = [ctx.zero()] * (2 * ring.rank - 1)
            for i, ua in enumerate(u.coords):
                for j, vb in enumerate(v.coords):
                    conv[i + j] = conv[i + j] + ua * vb
            _, remainder = reduce_by_division(ring, conv)
            ok = ok and list(pb_mul(ring, u, v).coords) == list(remainder)
    verdict(7, "trivial xi^n = 0 and products match the division oracle", ok)


def test_criterion_8_flag_restriction():
    rng = random.Random(1008)
    law = make_law("universal-rational", 4, 3)
    group = preset("GL2")
    ctx = law.context(2)
    maps = [weyl_map(w, law, ctx) for w in group.weyl.elements()]
    mult_ok = True
    cong_ok = True
    pairs_checked = 0
    for _ in range(100):
        a, b = random_series(rng, ctx), random_series(rng, ctx)
        a2, b2 = random_series(rng, ctx), random_series(rng, ctx)
        product = flag_restriction(a * a2, b * b2, maps)
        left = flag_restriction(a, b, maps)
        right = flag_restriction(a2, b2, maps)
        mult_ok = mult_ok and all(
            (p - l * r).is_zero() for p, l, r in zip(product, left, right)
        )
        image = [x + y for x, y in zip(left, right)]
        cong_ok = cong_ok and diagonal_map(ctx, 0, 1)(image[0] - image[1]).is_zero()
        pairs_checked += 1
    print(f"[acceptance] criterion 8 pairs checked: {pairs_checked}; "
          f"multiplicative: {mult_ok}; congruence (derived check): {cong_ok}")
    verdict(8, "flag restriction multiplicative + root congruence (derived)",
            mult_ok and cong_ok and pairs_checked >= 100)


# stdout sha256 of ``selftest --seed 42``, recorded before the packed series
# kernel replaced the Monomial/Fraction one
SELFTEST_42_SHA256 = "1b050fadf67cf1ae153f75ea3bc4c8e52df31c7079c6228e9a552f16b118c875"


def test_criterion_9_selftest_determinism():
    args = [sys.executable, "-m", "cobcalc.cli", "selftest", "--seed", "42"]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    ok = (
        first.stdout == second.stdout
        and first.returncode == second.returncode == 0
        and hashlib.sha256(first.stdout).hexdigest() == SELFTEST_42_SHA256
    )
    verdict(9, "selftest --seed 42 twice is byte-identical, green and as recorded", ok)
