"""Seeded invariant suite covering every module's stated properties.

Each check returns (ok, detail); on failure the detail carries the first
counterexample term map in canonical text form.  The suite is fully
deterministic for a fixed seed: identical runs print identical bytes.

The seeded suites beside the sampler, `random_series`, hold each sampled
identity once: the ``sif``, ``flag`` and ``pbf`` jobs run them at the
user's caps and seed, and the checks here at fixed ones.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from . import linalg
from .bundles import (
    SplitBundle,
    diagonal_map,
    direct_sum,
    first_root_congruent_pairs,
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
from .equivariant import (
    bg_dimensions,
    character_class,
    fixed_basis,
    int_mat_mul,
    invariant_basis,
    invariant_bases,
    preset,
    weyl_map,
    window_basis,
)
from .fgl import (
    FGL_KINDS,
    FormalGroupLaw,
    build_fgl,
    direct_associativity_residual,
    fgl_sum,
    n_series,
    specialize,
    verify_fgl_axioms,
)
from .series import (
    Monomial,
    RingContext,
    TruncatedSeries,
    bidegree_basis,
    lazard_monomials,
    sparse_coordinates,
    substitute,
)
from .towers import (
    TowerSlice,
    WindowNotStabilized,
    apply_levelwise_isomorphism,
    coefficient_ring_dimension,
    inverse_limit_dims,
    projective_space_tower,
    stabilization_index,
)


def random_monomial(rng: random.Random, ctx: RingContext) -> Monomial:
    while True:
        t = tuple(rng.randint(0, 2) for _ in range(ctx.n_vars))
        if sum(t) > ctx.max_t_order:
            continue
        laz = ()
        if ctx.coeff_kind == "multiplicative-beta" and ctx.max_weight and rng.random() < 0.5:
            laz = ((1, rng.randint(1, ctx.max_weight)),)
        elif ctx.coeff_kind == "universal-rational" and ctx.max_weight and rng.random() < 0.5:
            w = rng.randint(1, ctx.max_weight)
            opts = lazard_monomials("universal-rational", w)
            laz = opts[rng.randrange(len(opts))]
        return Monomial(t, laz)


def random_series(rng: random.Random, ctx: RingContext, n_terms: int = 3,
                  augmentation: bool = False) -> TruncatedSeries:
    terms = {}
    for _ in range(n_terms):
        m = random_monomial(rng, ctx)
        if augmentation and m.t_order() == 0:
            continue
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.randint(1, 3)
        terms[m] = terms.get(m, Fraction(0)) + Fraction(num, den)
    return ctx.from_terms(terms)


# -- seeded suites: each sampled identity of the sif, flag and pbf jobs, once ----------


def self_intersection_suite(rng: random.Random, law: FormalGroupLaw, ctx: RingContext,
                            rank: int, samples: int) -> Tuple[int, TruncatedSeries]:
    """s^* s_*(a) = a * c_rank(E) for ``samples`` draws of E, ``rank`` roots over
    ``ctx``, and a: the count of nonzero residuals and the first (zero if none)."""
    failures, first = 0, ctx.zero()
    for _ in range(samples):
        roots = tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(rank))
        bundle = SplitBundle(roots)
        ring = projective_completion_ring(bundle)
        a = random_series(rng, ctx, 3)
        got = zero_section_restriction(zero_section_pushforward(a, bundle, ring, law))
        residual = got - a * top_chern_class(bundle)
        if residual:
            failures += 1
            first = first or residual
    return failures, first


def flag_suite(rng: random.Random, law: FormalGroupLaw, elements: list,
               samples: int) -> Tuple[bool, Optional[bool], list]:
    """Restriction to the fixed points of G/B through the Weyl maps of
    ``elements`` under ``law``, on ``samples`` draws of a, b, a2, b2 over the
    law's context of their rank: (multiplicative, congruent at every
    first-root pair in all three images, or None with no pair, and
    (a, b, image of a (x) b) for the first three draws)."""
    ctx = law.context(len(elements[0]))
    maps = [weyl_map(w, law, ctx) for w in elements]
    pairs = first_root_congruent_pairs(elements)
    # t1 -> t2, the restriction every compared pair goes through
    diagonal = diagonal_map(ctx, 0, 1) if pairs else None
    multiplicative, congruent, shown = True, (True if pairs else None), []
    for trial in range(samples):
        a, b = random_series(rng, ctx), random_series(rng, ctx)
        a2, b2 = random_series(rng, ctx), random_series(rng, ctx)
        image = flag_restriction(a, b, maps)
        other = flag_restriction(a2, b2, maps)
        product = flag_restriction(a * a2, b * b2, maps)
        if any((p - x * y) for p, x, y in zip(product, image, other)):
            multiplicative = False
        if any(diagonal(f[i] - f[j]) for f in (image, other, product) for i, j in pairs):
            congruent = False
        if trial < 3:
            shown.append((a, b, image))
    return multiplicative, congruent, shown


def division_suite(rng: random.Random, ctx: RingContext, rank: int, samples: int) -> bool:
    """`pb_mul` against `reduce_by_division` of the plain convolution, for
    ``samples`` draws of ``rank`` roots over ``ctx`` and two ring elements."""
    ok = True
    for _ in range(samples):
        roots = tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(rank))
        ring = projective_completion_ring(SplitBundle(roots))
        u = ring.from_coords([random_series(rng, ctx, 2) for _ in range(ring.rank)])
        v = ring.from_coords([random_series(rng, ctx, 2) for _ in range(ring.rank)])
        conv = [ctx.zero()] * (2 * ring.rank - 1)
        for i, ua in enumerate(u.coords):
            for j, vb in enumerate(v.coords):
                conv[i + j] = conv[i + j] + ua * vb
        _, rem = reduce_by_division(ring, conv)
        ok = ok and list(pb_mul(ring, u, v).coords) == list(rem)
    return ok


# -- series-core ---------------------------------------------------------------


def check_ring_axioms(rng: random.Random) -> Tuple[bool, str]:
    ctx = RingContext(2, "universal-rational", 3, 2)
    for trial in range(1000):
        a = random_series(rng, ctx)
        b = random_series(rng, ctx)
        c = random_series(rng, ctx)
        if (a + b) - (b + a):
            return False, f"add comm: {a.to_text()} ; {b.to_text()}"
        if (a * b) - (b * a):
            return False, f"mul comm: {a.to_text()} ; {b.to_text()}"
        if ((a * b) * c) - (a * (b * c)):
            return False, f"mul assoc: {a.to_text()} ; {b.to_text()} ; {c.to_text()}"
        if (a * (b + c)) - (a * b + a * c):
            return False, f"distrib: {a.to_text()} ; {b.to_text()} ; {c.to_text()}"
    return True, "1000 triples"


def check_substitution_homomorphism(rng: random.Random) -> Tuple[bool, str]:
    ctx = RingContext(2, "universal-rational", 4, 3)
    for trial in range(200):
        a = random_series(rng, ctx)
        b = random_series(rng, ctx)
        assignment = {0: random_series(rng, ctx, augmentation=True),
                      1: random_series(rng, ctx, augmentation=True)}
        lhs = substitute(a * b, assignment)
        rhs = substitute(a, assignment) * substitute(b, assignment)
        if lhs - rhs:
            return False, f"a={a.to_text()} b={b.to_text()}"
    return True, "200 pairs"


def check_caps_and_roundtrip(rng: random.Random) -> Tuple[bool, str]:
    for kind, w in (("rational", 0), ("multiplicative-beta", 3), ("universal-rational", 4)):
        ctx = RingContext(3, kind, 4, w)
        for trial in range(100):
            s = random_series(rng, ctx, n_terms=5)
            for m, _ in s.iter_terms():
                if m.t_order() > ctx.max_t_order or m.weight() > ctx.max_weight:
                    return False, f"cap violated by {s.to_text()}"
            if TruncatedSeries.from_text(ctx, s.to_text()) != s:
                return False, f"text roundtrip: {s.to_text()}"
    return True, "3 kinds x 100 series"


def check_bidegree_enumerator(rng: random.Random) -> Tuple[bool, str]:
    # independent exhaustive enumeration on caps <= 6
    for kind, w in (("rational", 0), ("multiplicative-beta", 4), ("universal-rational", 4)):
        ctx = RingContext(2, kind, 4, w)
        everything = []
        for t1 in range(ctx.max_t_order + 1):
            for t2 in range(ctx.max_t_order + 1 - t1):
                for wt in range(ctx.max_weight + 1):
                    for laz in lazard_monomials(kind, wt):
                        everything.append(Monomial((t1, t2), laz))
        for d in range(-4, 5):
            for k in range(ctx.max_t_order + 1):
                expected = sorted(
                    (m for m in everything if m.t_order() == k and m.degree() == d),
                    key=Monomial.sort_key,
                )
                got = bidegree_basis(ctx, d, k)
                if got != expected:
                    return False, f"{kind} d={d} k={k}: {len(got)} != {len(expected)}"
    return True, "caps (4, 4), degrees -4..4"


# -- fgl-engine ------------------------------------------------------------------


def check_fgl_axioms(rng: random.Random) -> Tuple[bool, str]:
    # the invariant-differential verdict against the two 3-variable compositions,
    # on each law and on it plus x^2*y^2, which keeps unit and commutativity only
    for kind in FGL_KINDS:
        law = build_fgl(kind, 6, 5)
        x, y = law.series.ctx.var(0), law.series.ctx.var(1)
        for F in (law.series, law.series + x * x * y * y):
            report = verify_fgl_axioms(F)
            direct = direct_associativity_residual(F).is_zero()
            if not (report.unit_ok and report.comm_ok) or report.assoc_ok != direct:
                return False, f"{kind}: {F.to_text()}: certified {report.assoc_ok}, direct {direct}"
    return True, "3 kinds at caps (6, 5)"


def check_log_exp(rng: random.Random) -> Tuple[bool, str]:
    law = build_fgl("universal-rational", 6, 5)
    ctx1 = law.log.ctx
    x = ctx1.var(0)
    if substitute(law.log, {0: law.exp}) - x:
        return False, "log(exp(x)) != x"
    if substitute(law.exp, {0: law.log}) - x:
        return False, "exp(log(x)) != x"
    return True, "both compositions"


def check_n_series_additivity(rng: random.Random) -> Tuple[bool, str]:
    for kind in FGL_KINDS:
        law = build_fgl(kind, 5, 4)
        ctx = law.context(2)
        for trial in range(10):
            a = random_series(rng, ctx, augmentation=True)
            m, n = rng.randint(-3, 3), rng.randint(-3, 3)
            lhs = fgl_sum(law, n_series(law, m, a), n_series(law, n, a))
            rhs = n_series(law, m + n, a)
            if lhs - rhs:
                return False, f"{kind} m={m} n={n} a={a.to_text()}"
    return True, "random m, n per kind"


def check_universal_specializes(rng: random.Random) -> Tuple[bool, str]:
    shadow = specialize(build_fgl("universal-rational", 6, 5).series, "additive")
    if shadow != build_fgl("additive", 6, 5).series:
        return False, f"shadow = {shadow.to_text()}"
    return True, "m_i -> 0 gives x + y"


# -- equivariant-rings --------------------------------------------------------------


def check_weyl_action(rng: random.Random) -> Tuple[bool, str]:
    for kind in ("additive", "universal-rational"):
        law = build_fgl(kind, 4, 3)
        for group in ("GL2", "SL2", "B2"):
            g = preset(group)
            ctx = law.context(g.rank)
            gens = g.weyl.generators or ()
            elements = g.weyl.elements()
            # one map per element; the generators and all products are elements
            act = {w: weyl_map(w, law, ctx) for w in elements}
            for trial in range(5):
                s = random_series(rng, ctx)
                t = random_series(rng, ctx)
                for w in gens:
                    if act[w](s * t) - act[w](s) * act[w](t):
                        return False, f"{kind}/{group}: not a ring map on {s.to_text()}"
                for w1 in elements:
                    for w2 in elements:
                        lhs = act[w1](act[w2](s))
                        rhs = act[int_mat_mul(w1, w2)](s)
                        if lhs - rhs:
                            return False, f"{kind}/{group}: not a left action"
    return True, "ring map + left action on GL2, SL2, B2"


def check_character_additivity(rng: random.Random) -> Tuple[bool, str]:
    for kind in FGL_KINDS:
        law = build_fgl(kind, 4, 3)
        ctx = law.context(2)
        for trial in range(10):
            c1 = (rng.randint(-2, 2), rng.randint(-2, 2))
            c2 = (rng.randint(-2, 2), rng.randint(-2, 2))
            lhs = character_class(law, tuple(a + b for a, b in zip(c1, c2)), ctx)
            rhs = fgl_sum(law, character_class(law, c1, ctx), character_class(law, c2, ctx))
            if lhs - rhs:
                return False, f"{kind} {c1}+{c2}"
    return True, "lattice additivity through the law"


def check_invariants_fixed(rng: random.Random) -> Tuple[bool, str]:
    for kind in ("additive", "universal-rational"):
        law = build_fgl(kind, 4, 3)
        for group in ("GL2", "SL2"):
            g = preset(group)
            ctx = law.context(g.rank)
            # the action through the law, one map per element, independent of
            # the orbit sums the basis is read off
            act = {w: weyl_map(w, law, ctx) for w in g.weyl.elements()}
            for d in range(0, 3):
                basis = invariant_basis(g.weyl, law, d, 3)
                k_max = 3
                for v in basis:
                    for w in g.weyl.generators:
                        image = act[w](v)
                        image = ctx.from_terms(
                            {m: c for m, c in image.iter_terms() if m.t_order() <= k_max}
                        )
                        if image - v:
                            return False, f"{kind}/{group} d={d}: not fixed: {v.to_text()}"
                # symmetrization of every window monomial lies in the span
                window = window_basis(ctx, d, k_max)
                # strict: a term outside the window fails the check, as it must
                try:
                    rows = [nums for nums, _ in sparse_coordinates(basis, window, strict=True)]
                except ValueError:
                    return False, f"{kind}/{group} d={d}: basis leaves the window"
                rank = len(linalg.echelon(rows))
                for mono in window:
                    unit = ctx.from_terms({mono: Fraction(1)})
                    sym = sum((f(unit) for f in act.values()), ctx.zero())
                    sym = ctx.from_terms({m: c for m, c in sym.iter_terms() if m.t_order() <= k_max})
                    try:
                        [(vec, _)] = sparse_coordinates([sym], window, strict=True)
                    except ValueError:
                        return False, f"{kind}/{group} d={d}: symmetrization leaves the window"
                    if len(linalg.echelon(rows + [vec])) != rank:
                        return False, f"{kind}/{group} d={d}: symmetrization escapes span"
    return True, "fixed + symmetrization containment"


def check_gl_additive_counts(rng: random.Random) -> Tuple[bool, str]:
    def poly_count(n, d):
        # monomials in c1..cn with deg c_i = i and total degree d
        counts = [1] + [0] * d
        for i in range(1, n + 1):
            for deg in range(i, d + 1):
                counts[deg] += counts[deg - i]
        return counts[d]

    law = build_fgl("additive", 6, 5)
    for n in (2, 3):
        g = preset(f"GL{n}")
        expected = {d: poly_count(n, d) for d in range(0, 5)}
        # bg counts from the fundamental degrees, the same product as
        # poly_count: the basis, from the orbit walk, is the second side
        bases = invariant_bases(g.weyl, law, range(0, 5), 4)
        for dims in (
            bg_dimensions(g, law.context(n), range(0, 5), 4),
            {d: len(basis) for d, basis in bases.items()},
        ):
            if dims != expected:
                return False, f"GL({n}): {dims} != {expected}"
    return True, "GL(2), GL(3) degrees 0..4"


def check_gl_universal_bruteforce(rng: random.Random) -> Tuple[bool, str]:
    # independent brute force for permutation actions: orbit counting
    law = build_fgl("universal-rational", 4, 3)
    for n in (2, 3):
        g = preset(f"GL{n}")
        ctx = law.context(n)
        for d in range(0, 5):
            window = window_basis(ctx, d, 4)
            orbits = {(m.laz, tuple(sorted(m.t))) for m in window}
            # the direct action, not the orbit sums, which would check themselves
            dim = len(fixed_basis(g.weyl.generators, law, window, ctx))
            if dim != len(orbits):
                return False, f"GL({n}) d={d}: {dim} != {len(orbits)}"
    return True, "orbit-count oracle, caps (4, 3)"


def check_joint_kernel_vs_all_elements(rng: random.Random) -> Tuple[bool, str]:
    # generators-only fixed space must equal the fixed space over all elements
    for kind in ("multiplicative", "universal-rational"):
        law = build_fgl(kind, 4, 3)
        for group in ("SL2", "B2"):
            g = preset(group)
            ctx = law.context(g.rank)
            for d in range(0, 3):
                window = window_basis(ctx, d, 3)
                # the orbit-sum basis against the direct action of every element:
                # both are the unique reduced echelon form of the fixed space
                orbit_basis = invariant_basis(g.weyl, law, d, 3)
                direct_basis = fixed_basis(g.weyl.elements(), law, window, ctx)
                if orbit_basis != direct_basis:
                    dims = f"{len(orbit_basis)} != {len(direct_basis)}"
                    return False, f"{kind}/{group} d={d}: {dims}"
    return True, "generators vs full enumeration"


# -- bundle-calculus ------------------------------------------------------------------


def check_whitney(rng: random.Random) -> Tuple[bool, str]:
    for kind in FGL_KINDS:
        law = build_fgl(kind, 5, 4)
        ctx = law.context(3)
        for trial in range(5):
            e1 = SplitBundle(tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(2)))
            e2 = SplitBundle(tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(2)))
            total = direct_sum(e1, e2).chern
            c1 = (ctx.one(), *e1.chern)
            c2 = (ctx.one(), *e2.chern)
            for k, ck in enumerate((ctx.one(), *total)):
                conv = ctx.zero()
                for i in range(k + 1):
                    if i < len(c1) and k - i < len(c2):
                        conv = conv + c1[i] * c2[k - i]
                if conv - ck:
                    return False, f"{kind}: Whitney fails at c_{k}"
    return True, "random roots, 3 kinds"


def check_self_intersection(rng: random.Random) -> Tuple[bool, str]:
    for kind in FGL_KINDS:
        law = build_fgl(kind, 6, 4)
        ctx = law.context(3)
        for rank in (1, 2, 3):
            failures, residual = self_intersection_suite(rng, law, ctx, rank, 4)
            if failures:
                return False, f"{kind} rank {rank}: residual {residual.to_text()}"
    return True, "ranks 1..3, 3 kinds, caps (6, 4)"


def check_thom_multiplicativity(rng: random.Random) -> Tuple[bool, str]:
    for kind in FGL_KINDS:
        law = build_fgl(kind, 5, 3)
        ctx = law.context(3)
        for r1, r2 in ((1, 1), (1, 2), (2, 1)):
            e1 = SplitBundle(tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(r1)))
            e2 = SplitBundle(tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(r2)))
            total = direct_sum(e1, e2)
            ring = projective_completion_ring(total)
            lhs = thom_class(total, ring, law)
            rhs = pb_mul(ring, thom_class(e1, ring, law), thom_class(e2, ring, law))
            if not (lhs - rhs).is_zero():
                return False, f"{kind} ranks ({r1},{r2})"
    return True, "rank splits (1,1), (1,2), (2,1)"


def check_pb_confluence(rng: random.Random) -> Tuple[bool, str]:
    law = build_fgl("multiplicative", 5, 4)
    ctx = law.context(2)
    for rank in (2, 3, 4):
        ring = trivial_bundle_ring(ctx, rank)
        if not xi_power(ring, rank).is_zero():
            return False, f"trivial rank {rank}: xi^{rank} != 0"
        roots = tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(rank))
        ring = projective_completion_ring(SplitBundle(roots))
        n = ring.rank
        # xi^k built one power at a time with plain series arithmetic: xi^(k+1)
        # shifts the coordinates of xi^k up and reduces the top one by
        # xi^n = sum_i signed_chern[i-1] * xi^(n-i)
        stepwise = [ctx.one()] + [ctx.zero()] * (n - 1)
        for k in range(1, rank + 4):
            top = stepwise[-1]
            stepwise = [ctx.zero()] + stepwise[:-1]
            for i, sc in enumerate(ring.signed_chern, start=1):
                stepwise[n - i] = stepwise[n - i] + sc * top
            if k <= rank:
                continue
            table = xi_power(ring, k)
            if stepwise != list(table.coords):
                return False, f"rank {rank}: xi^{k} stepwise vs table"
            quot, rem = reduce_by_division(ring, [ctx.zero()] * k + [ctx.one()])
            if list(rem) != list(table.coords):
                return False, f"rank {rank}: xi^{k} division remainder"
    return True, "stepwise = table = division"


def check_smooth_divisor(rng: random.Random) -> Tuple[bool, str]:
    for kind in FGL_KINDS:
        law = build_fgl(kind, 5, 3)
        ctx = law.context(2)
        for rank in (1, 2):
            roots = tuple(random_series(rng, ctx, 2, augmentation=True) for _ in range(rank))
            bundle = SplitBundle(roots)
            ring = projective_completion_ring(bundle)
            via_thom = zero_section_pushforward(ctx.one(), bundle, ring, law)
            via_twist = thom_class_via_twist(bundle, ring, law)
            if not (via_thom - via_twist).is_zero():
                return False, f"{kind} rank {rank}"
    return True, "push-forward route = Chern-twist route"


def check_flag_multiplicative(rng: random.Random) -> Tuple[bool, str]:
    elements = preset("GL2").weyl.elements()
    for kind in ("additive", "universal-rational"):
        multiplicative, congruent, _ = flag_suite(rng, build_fgl(kind, 4, 3), elements, 10)
        if not multiplicative:
            return False, f"{kind}: not multiplicative"
        if not congruent:
            return False, f"{kind}: congruence fails"
    return True, "multiplicativity + diagonal congruence"


# -- tower-limits ------------------------------------------------------------------


def check_tower_find_or_refuse(rng: random.Random) -> Tuple[bool, str]:
    for trial in range(30):
        k = rng.randint(3, 6)
        dims = [rng.randint(0, 3) for _ in range(k + 1)]
        maps = []
        for i in range(k):
            # entries drawn row by row, kept as the slice's sparse integer columns
            rows = [[rng.randint(-2, 2) for _ in range(dims[i + 1])] for _ in range(dims[i])]
            maps.append([{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(dims[i + 1])])
        sl = TowerSlice(dims=dims, maps=maps)
        idx = stabilization_index(sl)
        if idx is not None and idx > k:
            return False, f"index {idx} outside window"
        if idx is not None:
            try:
                inverse_limit_dims(sl)
            except WindowNotStabilized:
                pass
    # constant towers with window > max dim must always certify
    if stabilization_index(TowerSlice([2, 2, 2, 2, 2], [[{0: 1}, {1: 1}]] * 4)) != 0:
        return False, "identity tower not certified at 0"
    return True, "30 random towers + identity"


def check_tower_coefficient_ring(rng: random.Random) -> Tuple[bool, str]:
    for kind in FGL_KINDS:
        law = build_fgl(kind, 6, 5)
        ctx = law.context(1)
        for d in range(0, 6):
            sl = projective_space_tower(ctx, d, law.max_t_order + 2)
            idx = stabilization_index(sl)
            if idx is None or idx > d:
                return False, f"{kind} d={d}: index {idx}"
            lim = inverse_limit_dims(sl)
            expect = coefficient_ring_dimension(ctx, d)
            if lim != expect:
                return False, f"{kind} d={d}: {lim} != {expect}"
    return True, "3 kinds, degrees 0..5"


def check_tower_functoriality(rng: random.Random) -> Tuple[bool, str]:
    law = build_fgl("universal-rational", 4, 3)
    for d in range(0, 4):
        sl = projective_space_tower(law.context(1), d, 6)
        mats = []
        for dim in sl.dims:
            m = linalg.identity(dim)
            for _ in range(3):  # random unimodular row operations
                if dim >= 2:
                    i, j = rng.sample(range(dim), 2)
                    c = Fraction(rng.randint(-2, 2))
                    for col in range(dim):
                        m[i][col] += c * m[j][col]
            mats.append(m)
        moved = apply_levelwise_isomorphism(sl, mats)
        if stabilization_index(sl) != stabilization_index(moved):
            return False, f"d={d}: index changed"
        if inverse_limit_dims(sl) != inverse_limit_dims(moved):
            return False, f"d={d}: limit dim changed"
    return True, "levelwise isomorphism invariance"


CHECKS: List[Tuple[str, Callable]] = [
    ("series.ring-axioms", check_ring_axioms),
    ("series.substitution-homomorphism", check_substitution_homomorphism),
    ("series.caps-and-roundtrip", check_caps_and_roundtrip),
    ("series.bidegree-enumerator", check_bidegree_enumerator),
    ("fgl.axioms", check_fgl_axioms),
    ("fgl.log-exp", check_log_exp),
    ("fgl.n-series-additivity", check_n_series_additivity),
    ("fgl.universal-specializes-to-additive", check_universal_specializes),
    ("equivariant.weyl-action", check_weyl_action),
    ("equivariant.character-additivity", check_character_additivity),
    ("equivariant.invariants-fixed", check_invariants_fixed),
    ("equivariant.gl-additive-counts", check_gl_additive_counts),
    ("equivariant.gl-universal-bruteforce", check_gl_universal_bruteforce),
    ("equivariant.generators-vs-enumeration", check_joint_kernel_vs_all_elements),
    ("bundles.whitney", check_whitney),
    ("bundles.self-intersection", check_self_intersection),
    ("bundles.thom-multiplicativity", check_thom_multiplicativity),
    ("bundles.projective-bundle-confluence", check_pb_confluence),
    ("bundles.smooth-divisor", check_smooth_divisor),
    ("bundles.flag-restriction", check_flag_multiplicative),
    ("towers.find-or-refuse", check_tower_find_or_refuse),
    ("towers.coefficient-ring", check_tower_coefficient_ring),
    ("towers.functoriality", check_tower_functoriality),
]


def run_check(seed: int, name: str, fn: Callable) -> dict:
    """Run one check with its own generator, seeded by the suite seed and its name."""
    ok, detail = fn(random.Random(f"{seed}:{name}"))
    return {"name": name, "ok": ok, "detail": detail}


def run_selftest(seed: int = 0) -> Tuple[bool, List[dict]]:
    """Run every check with its own seeded generator; returns (ok, results)."""
    results = [run_check(seed, name, fn) for name, fn in CHECKS]
    return all(r["ok"] for r in results), results
