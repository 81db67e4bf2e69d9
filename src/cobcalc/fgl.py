"""Formal group laws over the truncated coefficient rings.

Three kinds are supported, each given by its logarithm over Q:

* ``additive``: log(x) = x, so F(x, y) = x + y over plain Q,
* ``multiplicative``: log(x) = sum_k b^k x^(k+1)/(k+1) over Q[b], so
  F(x, y) = x + y - b*x*y (flipping the sign of b is a ring automorphism,
  so nothing downstream may depend on the sign choice),
* ``universal-rational``: log(x) = x + m1*x^2 + m2*x^3 + ... over
  Q[m1, m2, ...].

A law is fixed by its kind and its caps: `build_fgl` takes only those and
builds the law over its `ring_context`, the one place that pairs a kind
with its coefficient ring and gives the additive law weight cap 0.

One construction serves all three: exp is the compositional inverse of
log (`series.compositional_inverse`; this module reads no packed key),
F(x, y) = exp(log(x) + log(y)) and the formal inverse is
chi(x) = exp(-log(x)).  Truncation is an ideal that composition
respects, so these are the truncated laws themselves.  Construction
checks the unit, commutativity and associativity axioms of the stored F
and F(x, chi(x)) = 0 inside the truncation window, and refuses to
return an invalid law.  The axioms are identities of F alone, so
`verify_fgl_axioms` takes the series F, not a law.  Associativity of an
F with unit and commutativity is certified by F's own invariant
differential dx / u(x), u(x) = F_2(x, 0): F is associative in the window
exactly when u(x) * dF/dx is symmetric in x and y below the top t-order,
which needs one product and no composition into F (`verify_fgl_axioms`).
An associative F is L^-1(L(x) + L(y)) with L = integral of dx / u(x),
so L(F(x, y)) = L(x) + L(y) in the window.

F(x, chi(x)) = 0 is checked on the returned F, chi and log, with no
substitution into F (`build_fgl`):

(i)  u(x) * log'(x) = 1 below the top t-order, one product in F's
     context.  u = 1 + ... is a unit of the window, so log' = 1/u through
     t-order T - 1 (T the t-order cap) and log = L + c through T, c the
     constant term of log;
(ii) log(chi(x)) + log(x) = 0, one 1-variable composition.

With the axioms, (i) gives log(F(x, y)) = log(x) + log(y) - c, and at
y = chi(x), by (ii), log(F(x, chi(x))) = -c.  F(x, chi(x)) has no
constant term, so the constant term of the left side is c: c = 0, and
L(F(x, chi(x))) = 0.  L = x + ... is invertible, so F(x, chi(x)) = 0.
Nothing is taken on trust from the build: an exp that does not invert
log breaks the unit axiom F(x, 0) = exp(log x) = x, a log that is not
F's breaks (i), and a wrong chi breaks (ii).  A law whose axioms fail
is refused before chi is checked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .series import (
    ContextMismatch,
    Monomial,
    RingContext,
    RingMap,
    SubstitutionError,
    TruncatedSeries,
    compositional_inverse,
    derivative,
    substitute,
    variable_slice,
)
from .value import FrozenValue

FGL_KINDS = ("additive", "multiplicative", "universal-rational")

COEFF_KIND_FOR = {
    "additive": "rational",
    "multiplicative": "multiplicative-beta",
    "universal-rational": "universal-rational",
}

KIND_ALIASES = {
    "additive": "additive",
    "add": "additive",
    "multiplicative": "multiplicative",
    "mult": "multiplicative",
    "universal": "universal-rational",
    "universal-rational": "universal-rational",
}


class FglConstructionError(RuntimeError):
    """F(x, chi(x)) or an axiom residual came out nonzero: a construction bug, surfaced loudly."""


def normalize_kind(kind: str) -> str:
    try:
        return KIND_ALIASES[kind]
    except KeyError:
        raise ValueError(f"unknown formal group law kind {kind!r}") from None


class FormalGroupLaw(FrozenValue):
    """A validated formal group law.

    ``series`` is F(x, y) in a two-variable context (x = t1, y = t2);
    ``inverse_series`` is chi(x) and ``log``/``exp`` the logarithm and
    exponential the law is built from, all in a one-variable context;
    ``axioms`` is the report `build_fgl` validated the law with.  It is
    neither compared, hashed nor shown.
    """

    _fields = ("kind", "series", "inverse_series", "log", "exp")

    def __init__(
        self,
        kind: str,
        series: TruncatedSeries,
        inverse_series: TruncatedSeries,
        log: TruncatedSeries,
        exp: TruncatedSeries,
        axioms: Optional[AxiomReport] = None,
    ):
        self.__dict__.update(
            kind=kind, series=series, inverse_series=inverse_series, log=log, exp=exp,
            axioms=axioms,
        )

    @property
    def coeff_kind(self) -> str:
        return COEFF_KIND_FOR[self.kind]

    @property
    def max_t_order(self) -> int:
        return self.series.ctx.max_t_order

    @property
    def max_weight(self) -> int:
        return self.series.ctx.max_weight

    def context(self, n_vars: int) -> RingContext:
        """A compatible series context with the given number of variables."""
        return RingContext(n_vars, self.coeff_kind, self.max_t_order, self.max_weight)


class AxiomReport(FrozenValue):
    """Residual series for the group law axioms of F alone; all must be
    exactly zero.  F(x, chi(x)) = 0 is not an axiom of F, and `build_fgl`
    checks it apart."""

    _fields = ("unit_ok", "comm_ok", "assoc_ok", "residuals")

    def __init__(self, unit_ok: bool, comm_ok: bool, assoc_ok: bool, residuals: tuple):
        self.__dict__.update(
            unit_ok=unit_ok, comm_ok=comm_ok, assoc_ok=assoc_ok, residuals=residuals
        )

    @property
    def ok(self) -> bool:
        return self.unit_ok and self.comm_ok and self.assoc_ok


def ring_context(kind: str, n_vars: int, max_t: int, max_w: int) -> RingContext:
    """The series context over which the law of ``kind`` lives at caps
    ``(max_t, max_w)``, in ``n_vars`` variables: the coefficient ring of the
    kind (`COEFF_KIND_FOR`), and for the additive law, over plain Q, weight
    cap 0.

    >>> ring_context("add", 3, 6, 5)
    RingContext(n_vars=3, coeff_kind='rational', max_t_order=6, max_weight=0)
    """
    # the additive weight cap is zeroed below: a negative one is refused first
    if max_w < 0:
        raise ValueError("truncation caps must be non-negative")
    kind = normalize_kind(kind)
    return RingContext(n_vars, COEFF_KIND_FOR[kind], max_t, 0 if kind == "additive" else max_w)


def build_fgl(kind: str, max_t: int, max_w: int) -> FormalGroupLaw:
    """Construct and validate the formal group law of ``kind`` at caps
    ``(max_t, max_w)``, over its `ring_context`.

    The axioms are checked first (`verify_fgl_axioms`); a failed axiom is
    reported and nothing more is checked.  When they hold, F(x, chi(x)) = 0
    is checked through the stored log, tied to F by its invariant
    differential (`_inverts`, module docstring).

    >>> law = build_fgl("multiplicative", 4, 3)
    >>> law.inverse_series.to_text()
    '-1 * t1 + -1 * b*t1^2 + -1 * b^2*t1^3 + -1 * b^3*t1^4'
    """
    kind = normalize_kind(kind)
    ctx1, ctx2 = (ring_context(kind, n, max_t, max_w) for n in (1, 2))
    if max_t < 2:
        raise ValueError("caps must admit degree 2 in x, y")
    log = _logarithm(kind, ctx1)
    exp = compositional_inverse(log)
    lx, ly = (substitute(log, {0: ctx2.var(j)}, target=ctx2) for j in (0, 1))
    F = substitute(exp, {0: lx + ly}, target=ctx2)
    chi = substitute(exp, {0: -log})
    report = verify_fgl_axioms(F)
    if not report.ok:
        bad = [name for name, r in report.residuals if not r.is_zero()]
        raise FglConstructionError(f"axiom residuals nonzero for {kind}: {bad}")
    if not _inverts(F, chi, log):
        raise FglConstructionError(f"the stored chi or log is not that of F for {kind}")
    return FormalGroupLaw(kind, F, chi, log, exp, axioms=report)


def _inverts(F: TruncatedSeries, chi: TruncatedSeries, log: TruncatedSeries) -> bool:
    """F(x, chi(x)) = 0 in the window for an F that satisfies the axioms,
    checked as (i) u(x) * log'(x) = 1 below the top t-order, u = F_2(x, 0),
    and (ii) log(chi(x)) + log(x) = 0 (module docstring).  (i) is one
    product in F's context, with log' relabelled into it.

    >>> law = build_fgl("additive", 4, 0)
    >>> x = law.log.ctx.var(0)
    >>> _inverts(law.series, law.inverse_series, law.log)
    True
    >>> _inverts(law.series, -x - x ** 3, law.log)  # a wrong chi fails (ii)
    False
    >>> _inverts(law.series, law.inverse_series, law.log + x ** 3)  # chi is odd: only (i) sees it
    False
    """
    ctx2 = F.ctx
    dlog = substitute(derivative(log, 0), {0: ctx2.var(0)}, target=ctx2)
    r = variable_slice(F, 1, 1) * dlog - 1
    # log' has no part of the top t-order, so that slice of the product is incomplete
    if not (r - r.t_slice(ctx2.max_t_order)).is_zero():
        return False
    return (substitute(log, {0: chi}) + log).is_zero()


def _logarithm(kind: str, ctx1: RingContext) -> TruncatedSeries:
    """log(x) of the law of ``kind``; terms beyond the caps are dropped."""
    top = 0 if kind == "additive" else min(ctx1.max_t_order - 1, ctx1.max_weight)
    if kind == "multiplicative":
        # -log(1 - b*x)/b = sum_k b^k x^(k+1)/(k+1), so that
        # 1 - b*F(x, y) = (1 - b*x)(1 - b*y)
        terms = {Monomial((k + 1,), ((1, k),) if k else ()): Fraction(1, k + 1)
                 for k in range(top + 1)}
        return ctx1.from_terms(terms)
    # x + m1*x^2 + m2*x^3 + ...
    return ctx1.from_terms({Monomial((i + 1,), ((i, 1),) if i else ()): 1 for i in range(top + 1)})


def verify_fgl_axioms(F: TruncatedSeries) -> AxiomReport:
    """Residuals for unit, commutativity and associativity inside the caps,
    for a series F(x, y) in a two-variable context (x = t1, y = t2).

    The axioms are identities of F alone.  When the unit and commutativity
    residuals are exactly zero, the associativity residual is
    G(x, y) - G(y, x) with G = u(x) * dF/dx through t-order T - 1, where
    u(x) = F_2(x, 0) is the coefficient of y^1 in F and T is the t-order
    cap: one product and no composition.  Its zero is equivalent to
    F(F(x, y), z) = F(x, F(y, z)) in the window.  Truncation is an ideal
    that products, derivatives and augmentation-ideal substitution
    respect, so every step below holds inside the window:

    * sufficient: by commutativity u(y) * dF/dy is G(y, x), so a
      symmetric G means u(x) F_x = u(y) F_y through t-order T - 1.  Let
      L = integral of dx / u, E = L^-1 and D = F - E(L(x) + L(y)).
      Then D(x, 0) = 0 by the unit axiom, and D satisfies the same linear
      equation u(x) D_x = u(y) D_y there, as E(L(x) + L(y)) does.  As
      u = 1 + ... (unit axiom), the lowest t-order part D_n of D (n <= T) has
      (d/dx - d/dy) D_n = 0, so D_n = c (x + y)^n, and D_n(x, 0) = 0
      forces c = 0.  So D = 0 and F = E(L(x) + L(y)) is associative;
    * necessary: an associative F is E(L(x) + L(y)), so
      G = E'(L(x) + L(y)) is symmetric.

    dF/dx has no part of t-order T (it would come from F's part of
    t-order T + 1), so the top slice of u(x) * dF/dx is incomplete and
    dropped: kept, it refuses the associative x + y + c(x^2 y + x y^2)
    at T = 4.  One swap x <-> y serves the commutativity and the
    associativity residuals, and both it and every other map here only
    relabel variables, so no power of F is formed.  A law that fails unit
    or commutativity gets the direct residual F(F(x, y), z) - F(x, F(y, z))
    instead.  The unit residuals need no map: F(x, 0) is the part
    of F free of y, and F(0, y) the part free of x (`series.variable_slice`).
    """
    ctx2 = F.ctx
    x, y = ctx2.var(0), ctx2.var(1)
    swap = RingMap(ctx2, {0: y, 1: x})
    unit_x = variable_slice(F, 1, 0) - x
    unit_y = variable_slice(F, 0, 0) - y
    comm = F - swap(F)
    unit_ok = unit_x.is_zero() and unit_y.is_zero()
    if unit_ok and comm.is_zero():
        G = variable_slice(F, 1, 1) * derivative(F, 0)
        G = G - G.t_slice(ctx2.max_t_order)
        assoc = G - swap(G)
    else:
        assoc = direct_associativity_residual(F)
    return AxiomReport(
        unit_ok=unit_ok,
        comm_ok=comm.is_zero(),
        assoc_ok=assoc.is_zero(),
        residuals=(
            ("unit_x", unit_x),
            ("unit_y", unit_y),
            ("comm", comm),
            ("assoc", assoc),
        ),
    )


def direct_associativity_residual(F: TruncatedSeries) -> TruncatedSeries:
    """F(F(x, y), z) - F(x, F(y, z)), by two compositions in three variables."""
    ctx3 = RingContext(3, F.ctx.coeff_kind, F.ctx.max_t_order, F.ctx.max_weight)
    x, y, z = ctx3.var(0), ctx3.var(1), ctx3.var(2)
    f_xy = substitute(F, {0: x, 1: y}, target=ctx3)
    f_yz = substitute(F, {0: y, 1: z}, target=ctx3)
    return substitute(F, {0: f_xy, 1: z}, target=ctx3) - substitute(
        F, {0: x, 1: f_yz}, target=ctx3
    )


def _require_augmentation(s: TruncatedSeries) -> None:
    if s.has_t_constant_term():
        raise SubstitutionError("argument must have zero constant term")


def fgl_sum(law: FormalGroupLaw, a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """F(a, b), the group-law sum of two augmentation-ideal elements."""
    if a.ctx != b.ctx:
        raise ContextMismatch("fgl_sum arguments live in different contexts")
    _require_augmentation(a)
    _require_augmentation(b)
    return substitute(law.series, {0: a, 1: b}, target=a.ctx)


def fgl_inverse(law: FormalGroupLaw, a: TruncatedSeries) -> TruncatedSeries:
    """chi(a): the inverse for the group-law sum, fgl_sum(a, chi(a)) = 0."""
    _require_augmentation(a)
    return substitute(law.inverse_series, {0: a}, target=a.ctx)


def n_series(law: FormalGroupLaw, n: int, a: TruncatedSeries) -> TruncatedSeries:
    """[n](a): iterated group-law sum, with [-n](a) = chi([n](a))."""
    _require_augmentation(a)
    if n < 0:
        return fgl_inverse(law, n_series(law, -n, a))
    if n == 0:
        return a.ctx.zero()
    # F(0, a) = a by the unit axiom, so the sum starts at a
    result = a
    for _ in range(n - 1):
        result = fgl_sum(law, result, a)
    return result


def additive_shadow(s: TruncatedSeries) -> TruncatedSeries:
    """Specialize every coefficient generator to 0 (image in the rational kind)."""
    ctx = RingContext(s.ctx.n_vars, "rational", s.ctx.max_t_order, 0)
    return ctx.from_terms({m: c for m, c in s.iter_terms() if not m.laz})
