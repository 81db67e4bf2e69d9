"""Chern/Thom/Gysin calculus on projective-bundle quotient rings.

A vector bundle enters as a split bundle: the list of its Chern roots
(splitting principle).  The ring of a rank-n projective bundle is the
free module on 1, xi, ..., xi^(n-1) over the base, with xi the first
Chern class of the tautological line bundle O(-1) and the reduction

    xi^n = c1*xi^(n-1) - c2*xi^(n-2) + ... + (-1)^(n-1)*cn.

Every xi-polynomial enters the ring through `ProjBundleRing.from_coords`,
which reduces a coordinate list longer than the rank top power first by
the signed classes `ProjBundleRing.signed_chern` (built once per ring):
`xi`, `xi_power`, ``eta`` and the Thom factors below are such lists.

The zero-section calculus happens in the projective completion
P(1 (+) E), whose last Chern class vanishes, so setting xi = 0 is a ring
map there.  With eta = chi(xi) the class of O(1), the Thom class is

    th(E) = prod_j F(x_j, eta),

whose xi^0 coordinate is c_n(E) = prod_j x_j on the nose; push-forward
along the zero section is multiplication by th(E) after pull-back, which
makes the self-intersection identity

    restrict(pushforward(a)) = a * c_n(E)

exact inside the truncation window.  ``eta`` is the truncated formal
inverse evaluated at xi: it inverts xi exactly modulo terms whose
xi-degree exceeds the t-order cap, which is the window semantics used
everywhere here.

Each Thom factor is F(x_j, chi(xi)) = D(x_j, xi) for the difference
series D(x, y) = F(x, chi(y)) = x -_F y, composed once per law and
headroom from the stored F and chi; its slices in y, mapped into the
base, are the coordinates of the factor, reduced like any product, so
eta itself is never formed.  The truncation of D is exact by a
filtration argument.  When every nonzero c_k has t-order >= k, every
coordinate of xi^j has t-order >= j - (n - 1) (induction on the
reduction), so a term x^i * y^j of D with i + j > max_t + n - 1
vanishes in the ring once x -> x_j (t-order >= 1) and y -> xi.  D is
therefore composed at t-order cap max_t + n - 1 (the headroom n - 1),
and its slice at y^j keeps only x^i with i <= max_t.  A ring whose
Chern classes break the filtration is refused
(`ProjBundleRing.require_filtration`), by `thom_class` and by
`thom_class_via_twist`, which relies on the same headroom.

In E's own completion the product is already determined: there

    th(E) = prod_j (x_j - xi) = sum_k (-1)^k c_(n-k)(E) xi^k,

whatever the law, and `thom_class` reads the class off the Chern classes
when (a) the ring is P(1 (+) E) itself (rank rank(E) + 1, first Chern
classes those of E, last one zero) and (b) the law is exact in the
ring's window (built by `build_fgl`, base weight cap below the law's
t-order cap and at most its weight cap).  Proof: by (a) the relation of
the ring is xi * prod_j (xi - x_j) = 0.  D(x, y) vanishes at x = y and
D(x, 0) = x, so D(x, y) = (x - y) * U(x, y) with U(x, 0) = 1; hence
prod_j U(x_j, xi) - 1 is xi times a ring element V, and
th = prod_j (x_j - xi) + (-1)^n * xi * prod_j (xi - x_j) * V is
prod_j (x_j - xi).  Every term of F and chi has degree 1 (t-order minus
weight), so a term the law's caps cut at t-order k has weight
k - 1 >= min(law t-order cap, law weight cap + 1), which (b) puts above
the base's weight cap: the stored F and chi are exact in the window.
Any other ring or law (a larger bundle's completion, a law whose caps
cut terms the window sees) takes the product route above, which stays
the reference for this one.

`pb_substitute` evaluates a series at base series and one element of
the ring by Horner's rule in that element; the coefficient of each power
goes into the base through one `RingMap`.

`pb_mul` keeps one running sum per power of xi.  The products a_i * b_j
of the convolution and the products +-c_i * coordinate of the Chern
reduction are all added into those sums by `series.mul_into`, and each
coordinate of the result is canonicalized once; `reduce_coords`, behind
`from_coords`, runs the same reduction loop.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from .fgl import FormalGroupLaw, fgl_sum
from .series import (
    ContextMismatch,
    RingContext,
    RingMap,
    TruncatedSeries,
    add_into,
    collect,
    mul_into,
    series_mul,
    substitute,
    variable_slices,
)
from .value import FrozenValue


class SplitBundle(FrozenValue):
    """A bundle presented by its Chern roots (all in one base context)."""

    _fields = ("roots",)

    def __init__(self, roots: Sequence[TruncatedSeries]):
        roots = tuple(roots)
        if not roots:
            raise ValueError("a split bundle needs at least one root")
        ctx = roots[0].ctx
        for r in roots:
            if r.ctx != ctx:
                raise ContextMismatch("all roots must share one context")
            if r.has_t_constant_term():
                raise ValueError("Chern roots must have zero constant term")
        self.__dict__["roots"] = roots

    @property
    def rank(self) -> int:
        return len(self.roots)

    @property
    def base(self) -> RingContext:
        return self.roots[0].ctx

    @cached_property
    def chern(self) -> tuple:
        """c1..cr as elementary symmetric polynomials of the roots (c0 = 1
        implicit), computed once per bundle.

        Every root has t-order >= 1, so c_k has t-order >= k: the classes
        past the t-order cap are zero and the recurrence stops there."""
        ctx = self.base
        elem = [ctx.one()] + [ctx.zero()] * self.rank
        for root in self.roots:
            for i in range(min(self.rank, ctx.max_t_order), 0, -1):
                elem[i] = elem[i] + elem[i - 1] * root
        return tuple(elem[1:])


def top_chern_class(bundle: SplitBundle) -> TruncatedSeries:
    prod = bundle.base.one()
    for root in bundle.roots:
        prod = prod * root
    return prod


def direct_sum(*bundles: SplitBundle) -> SplitBundle:
    roots = tuple(r for b in bundles for r in b.roots)
    return SplitBundle(roots)


class ProjBundleRing(FrozenValue):
    """Free module on 1, xi, ..., xi^(n-1) with the Chern reduction attached."""

    _fields = ("base", "chern")

    def __init__(self, base: RingContext, chern: Sequence[TruncatedSeries]):
        chern = tuple(chern)
        if not chern:
            raise ValueError("need at least one Chern class (rank >= 1)")
        for c in chern:
            if c.ctx != base:
                raise ContextMismatch("Chern classes must live over the base context")
        self.__dict__.update(base=base, chern=chern)

    @property
    def rank(self) -> int:
        return len(self.chern)

    @cached_property
    def signed_chern(self) -> tuple:
        """c1, -c2, c3, ...: xi^n = sum_i signed_chern[i-1] * xi^(n-i)."""
        return tuple(-c if i % 2 else c for i, c in enumerate(self.chern))

    def require_filtration(self) -> None:
        """Refuse the ring unless every nonzero c_k has t-order >= k.

        Chern classes of roots in the augmentation ideal (every
        `projective_completion_ring`) always pass; the Thom routes need it
        for their headroom (module docstring).
        """
        for k, c in enumerate(self.chern, start=1):
            order = c.min_t_order()
            if order is not None and order < k:
                raise ValueError(
                    f"c_{k} has t-order {order} < {k}: the Thom class needs "
                    "every nonzero c_k of t-order >= k"
                )

    def zero(self) -> "ProjBundleElement":
        z = self.base.zero()
        return ProjBundleElement(self, (z,) * self.rank)

    def one(self) -> "ProjBundleElement":
        return self.from_base(self.base.one())

    def xi(self) -> "ProjBundleElement":
        return self.from_coords([self.base.zero(), self.base.one()])

    def from_base(self, s: TruncatedSeries) -> "ProjBundleElement":
        return self.from_coords([s])

    def from_coords(self, coords: Sequence[TruncatedSeries]) -> "ProjBundleElement":
        """sum_p coords[p] * xi^p for base series ``coords``; a list longer
        than the rank is reduced by `reduce_coords`."""
        coords = list(coords)
        for c in coords:
            if c.ctx is not self.base and c.ctx != self.base:
                raise ContextMismatch("series does not live over the base context")
        if len(coords) > self.rank:
            coords = reduce_coords(self, coords)
        coords += [self.base.zero()] * (self.rank - len(coords))
        return ProjBundleElement(self, tuple(coords))


class ProjBundleElement(FrozenValue):
    """Coordinate vector (a0..a_{n-1}) in the xi-power basis; `pb_mul` is
    the product of two elements."""

    _fields = ("ring", "coords")

    def __init__(self, ring: ProjBundleRing, coords: tuple):
        if len(coords) != ring.rank:
            raise ValueError("coordinate vector length must equal the rank")
        self.__dict__.update(ring=ring, coords=coords)

    def __add__(self, other):
        other = _coerce_pb(self.ring, other)
        return ProjBundleElement(
            self.ring, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        other = _coerce_pb(self.ring, other)
        return ProjBundleElement(
            self.ring, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return ProjBundleElement(self.ring, tuple(-a for a in self.coords))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def to_text(self) -> str:
        return " | ".join(c.to_text() for c in self.coords)


def _coerce_pb(ring: ProjBundleRing, value) -> ProjBundleElement:
    if isinstance(value, ProjBundleElement):
        if value.ring != ring:
            raise ContextMismatch("elements live in different projective bundle rings")
        return value
    if isinstance(value, TruncatedSeries):
        return ring.from_base(value)
    raise TypeError(f"cannot coerce {value!r} into the projective bundle ring")


def projective_completion_ring(bundle: SplitBundle) -> ProjBundleRing:
    """The ring of P(1 (+) E): rank + 1 basis, last Chern class zero."""
    return ProjBundleRing(bundle.base, bundle.chern + (bundle.base.zero(),))


def trivial_bundle_ring(base: RingContext, rank: int) -> ProjBundleRing:
    """P^(rank-1) over the base: all Chern classes vanish, so xi^rank = 0."""
    return ProjBundleRing(base, (base.zero(),) * rank)


def reduce_coords(ring: ProjBundleRing, coords: Sequence[TruncatedSeries]) -> list:
    """Stepwise reduction of a xi-polynomial to the basis, top power first."""
    sums = []
    for c in coords:
        acc: dict = {}
        sums.append((acc, add_into(acc, 1, c)))
    return _reduce_sums(ring, sums)


def _reduce_sums(ring: ProjBundleRing, sums: list) -> list:
    """`reduce_coords` of the xi-polynomial whose coordinate p is the sum
    ``sums[p]``, an ``(acc, den)`` pair of `mul_into`; the sums are reduced
    in place, each reduction product summed into them, and every
    coordinate is canonicalized once."""
    base, n = ring.base, ring.rank
    for p in range(len(sums) - 1, n - 1, -1):
        c = collect(base, *sums[p])
        if c.is_zero():
            continue
        for i, sc in enumerate(ring.signed_chern, start=1):
            acc, den = sums[p - i]
            sums[p - i] = (acc, mul_into(acc, den, sc, c))
    return [collect(base, *sums[p]) for p in range(min(n, len(sums)))]


def reduce_by_division(ring: ProjBundleRing, coords: Sequence[TruncatedSeries]) -> tuple:
    """Long division by the monic reduction polynomial.

    Returns (quotient, remainder) coefficient lists with
    input = quotient * relation + remainder; the relation is
    xi^n - c1*xi^(n-1) + ... + (-1)^n*cn.
    """
    n = ring.rank
    rel = _relation_coeffs(ring)
    rem = list(coords)
    if len(rem) < n + 1:
        rem += [ring.base.zero()] * (n + 1 - len(rem))
    quot = [ring.base.zero()] * max(1, len(rem) - n)
    for p in range(len(rem) - 1, n - 1, -1):
        q = rem[p]
        if q.is_zero():
            continue
        quot[p - n] = quot[p - n] + q
        for i, r in enumerate(rel):
            rem[p - n + i] = rem[p - n + i] - r * q
    return quot, rem[:n]


def _relation_coeffs(ring: ProjBundleRing) -> list:
    """Coefficients of xi^0..xi^n in the relation xi^n - c1*xi^(n-1) + ... + (-1)^n*cn."""
    return [-c for c in reversed(ring.signed_chern)] + [ring.base.one()]


def xi_power(ring: ProjBundleRing, k: int) -> ProjBundleElement:
    """Reduced form of xi^k."""
    return ring.from_coords([ring.base.zero()] * k + [ring.base.one()])


def pb_mul(ring: ProjBundleRing, u, v) -> ProjBundleElement:
    """Product in the reduced ring: convolution in xi, then stepwise reduction.

    Every product of the convolution and of the reduction is summed by
    `mul_into` into one sum per power of xi, and each coordinate of the
    result is canonicalized once.
    """
    u = _coerce_pb(ring, u)
    v = _coerce_pb(ring, v)
    sums = [({}, 1) for _ in range(2 * ring.rank - 1)]
    for i, a in enumerate(u.coords):
        for j, b in enumerate(v.coords):
            acc, den = sums[i + j]
            sums[i + j] = (acc, mul_into(acc, den, a, b))
    return ProjBundleElement(ring, tuple(_reduce_sums(ring, sums)))


def pb_substitute(
    ring: ProjBundleRing,
    s: TruncatedSeries,
    base_images: Mapping[int, TruncatedSeries],
    v,
) -> ProjBundleElement:
    """Evaluate ``s`` at base series for all variables but the last, and at
    the projective-bundle element ``v`` for the last one.

    ``base_images`` maps the other variables in the support of ``s`` to
    augmentation-ideal series over the base.  Writing
    s = sum_e c_e * t_last^e, each c_e goes into the base by one `RingMap`
    and the powers of ``v`` are summed by Horner's rule.
    """
    if s.ctx.coeff_kind != ring.base.coeff_kind:
        raise ContextMismatch("coefficient kinds differ")
    last = s.ctx.n_vars - 1
    missing = s.support_vars() - set(base_images) - {last}
    if missing:
        raise ValueError(f"no value for variables {sorted(missing)}")
    v = _coerce_pb(ring, v)
    to_base = RingMap(s.ctx, base_images, ring.base)
    acc = ring.zero()
    for c in reversed(variable_slices(s, last)):
        if not acc.is_zero():
            acc = pb_mul(ring, acc, v)
        if not c.is_zero():
            acc = acc + to_base(c)
    return acc


def tautological_inverse_class(ring: ProjBundleRing, law: FormalGroupLaw) -> ProjBundleElement:
    """eta = chi(xi), the class of O(1) as the formal inverse of xi: the
    coefficients of chi, mapped into the base, are its coordinates."""
    chi = law.inverse_series
    to_base = RingMap(chi.ctx, {}, ring.base)
    return ring.from_coords([to_base(c) for c in variable_slices(chi, 0)])


@lru_cache(maxsize=8)
def _difference_slices(law: FormalGroupLaw, ctx: RingContext, headroom: int) -> tuple:
    """The slices d_0, d_1, ... of D(x, y) = F(x, chi(y)) = x -_F y in y,
    each a series in x = t1 over the two-variable ``ctx``.

    chi(y), then D, is composed from the stored F and chi at the caps of
    ``ctx`` with t-order cap raised by ``headroom``; a slice comes back by
    x -> x, keeping the x^i with i <= ctx.max_t_order (module docstring).
    Cached per law, caps and headroom: a ``sif`` job composes D once.
    """
    wide = RingContext(2, ctx.coeff_kind, ctx.max_t_order + headroom, ctx.max_weight)
    chi_y = substitute(law.inverse_series, {0: wide.var(1)}, target=wide)
    D = substitute(law.series, {0: wide.var(0), 1: chi_y}, target=wide)
    back = RingMap(wide, {0: ctx.var(0)}, ctx)
    return tuple(back(d) for d in variable_slices(D, 1))


def thom_class(bundle: SplitBundle, ring: ProjBundleRing, law: FormalGroupLaw) -> ProjBundleElement:
    """th(E) = prod_j F(x_j, eta) reduced in the completion ring.

    ``ring`` must be the projective completion of a bundle containing E
    as a summand (for the plain Thom class, of E itself); its rank must
    exceed the rank of E, and every nonzero c_k of it must have t-order
    >= k (`ProjBundleRing.require_filtration`).

    In E's own completion, under a law exact in the ring's window (the
    conditions of `_closed_form_applies`), the value is the Chern
    polynomial prod_j (x_j - xi), with coordinates
    (c_n, -c_(n-1), ..., (-1)^n): no product is formed.  Proof: the
    ring's relation is xi * prod_j (xi - x_j) = 0, and
    D(x, y) = (x - y) * U(x, y) with U(x, 0) = 1, so the factors
    prod_j U(x_j, xi) = 1 + xi * V change nothing; the law is exact there
    because a term its caps cut has weight above the base's weight cap
    (module docstring).

    Otherwise each factor is F(x_j, chi(xi)) = D(x_j, xi) with
    D = x -_F y, whose slices in y are composed once per law and headroom
    rank(ring) - 1: they go into the base through one `RingMap` per root
    and are the coordinates of the factor, reduced by
    `ProjBundleRing.from_coords`, and the factors are multiplied by
    `pb_mul`.  The value is that of F(x_j, eta) evaluated exactly in the
    ring.
    """
    if ring.rank < bundle.rank + 1:
        raise ValueError("ring rank must be at least rank(E) + 1 (completion by 1)")
    ring.require_filtration()
    base = ring.base
    if law.coeff_kind != base.coeff_kind:
        raise ContextMismatch("coefficient kinds differ")
    if _closed_form_applies(bundle, ring, law):
        n = bundle.rank
        elem = (base.one(),) + bundle.chern
        return ring.from_coords([elem[n - k] if k % 2 == 0 else -elem[n - k] for k in range(n + 1)])
    ctx = RingContext(2, base.coeff_kind, base.max_t_order, base.max_weight)
    slices = _difference_slices(law, ctx, ring.rank - 1)
    th = None
    for root in bundle.roots:
        to_base = RingMap(ctx, {0: root}, base)
        factor = ring.from_coords([to_base(d) for d in slices])
        th = factor if th is None else pb_mul(ring, th, factor)
    return th


def _closed_form_applies(bundle: SplitBundle, ring: ProjBundleRing, law: FormalGroupLaw) -> bool:
    """(a) ``ring`` is P(1 (+) E) for E = ``bundle`` and (b) the stored F
    and chi of ``law`` are exact in the ring's window: the law was built
    and validated by `build_fgl` (so it is the truncation of the law its
    logarithm defines), and every term its caps cut has a weight above
    the base's weight cap."""
    base, n = ring.base, bundle.rank
    return (
        law.axioms is not None
        and base.max_weight < law.max_t_order
        and base.max_weight <= law.max_weight
        and ring.rank == n + 1
        and ring.chern[n].is_zero()
        and ring.chern[:n] == bundle.chern
    )


def thom_class_via_twist(
    bundle: SplitBundle, ring: ProjBundleRing, law: FormalGroupLaw
) -> ProjBundleElement:
    """Independent route: top Chern class of (pulled-back E) tensor O(1).

    The twist happens in an extended base with a fresh degree-1 variable
    standing for the class of O(1); the top Chern class is expanded
    there by the Cartan formula and only then evaluated at eta.  The
    extension carries t-order headroom rank(ring) - 1 so that no term
    surviving the final window is lost in the intermediate ring; a ring
    that breaks the filtration this relies on is refused
    (`ProjBundleRing.require_filtration`).
    """
    ring.require_filtration()
    base = bundle.base
    ext = RingContext(
        base.n_vars + 1,
        base.coeff_kind,
        base.max_t_order + ring.rank - 1,
        base.max_weight,
    )
    u = ext.var(base.n_vars)
    lifts = []
    for root in bundle.roots:
        assignment = {j: ext.var(j) for j in range(base.n_vars)}
        lifts.append(substitute(root, assignment, target=ext))
    twisted = SplitBundle(tuple(fgl_sum(law, x, u) for x in lifts))
    top = top_chern_class(twisted)
    eta = tautological_inverse_class(ring, law)
    values = {j: base.var(j) for j in range(base.n_vars)}
    return pb_substitute(ring, top, values, eta)


def zero_section_pushforward(
    a: TruncatedSeries,
    bundle: SplitBundle,
    ring: ProjBundleRing,
    law: FormalGroupLaw,
) -> ProjBundleElement:
    """Gysin push-forward along the zero section: p^*(a) * th(E)."""
    return pb_mul(ring, ring.from_base(a), thom_class(bundle, ring, law))


def zero_section_restriction(u: ProjBundleElement) -> TruncatedSeries:
    """The ring map xi -> 0 of the completion ring: the xi^0 coordinate."""
    return u.coords[0]


def flag_restriction(a: TruncatedSeries, b: TruncatedSeries, maps: Sequence[RingMap]) -> tuple:
    """Image of the pure tensor a (x) b: component at w is a * w(b).

    ``maps`` holds the `equivariant.weyl_map` of every Weyl element, in the
    deterministic order of the full enumeration (identity first), so a
    caller restricting many tensors builds each map once.
    """
    return tuple(series_mul(a, w(b)) for w in maps)


def first_root_congruent_pairs(elements: Sequence) -> list:
    """Index pairs (i, j), i < j, of Weyl elements with elements[j] = s * elements[i],
    for s the reflection swapping the first two coordinates.

    Flag-restriction components at such a pair agree after identifying
    t1 with t2.  Left multiplication by s swaps the first two rows.
    """
    if not elements or len(elements[0]) < 2:
        return []
    index = {w: i for i, w in enumerate(elements)}
    pairs = []
    for i, w in enumerate(elements):
        j = index.get((w[1], w[0]) + w[2:])
        if j is not None and i < j:
            pairs.append((i, j))
    return pairs


def diagonal_map(ctx: RingContext, i: int, j: int) -> RingMap:
    """The ring map t_i -> t_j of ``ctx``: restriction to the diagonal.  The
    image of a series vanishes iff the series is divisible by t_i - t_j,
    equivalently by the group-law difference class (they agree up to a
    unit), so this is the congruence test at the root e_i - e_j."""
    return RingMap(ctx, {i: ctx.var(j)}, ctx)
