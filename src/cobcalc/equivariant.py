"""Torus-equivariant coefficient rings and Weyl-invariant subspaces.

The equivariant ring of a rank-n split torus is the truncated series
ring on t1..tn over the chosen coefficient kind, with tj the first
Chern class of the j-th basis character.  A general character
c = (c1..cn) gets the class

    [c](t) = [c1](t1) +_F [c2](t2) +_F ... +_F [cn](tn),

the group-law sum of the n-series of the basis classes.  A Weyl group
acts through integer matrices on the character lattice; the induced
ring endomorphism sends tj to the class of the j-th column.
`weyl_map` builds it once per matrix as one `series.RingMap`: it checks
the matrix and computes the rank-many column classes.  Invariant
subspaces are computed per diagonal degree in the filtration quotient
spanned by monomials of t-order <= k_max: the action only preserves the
augmentation filtration for non-additive laws, and truncating to the
window is a ring quotient, so the restricted action is an honest group
representation there.

Invariants through the logarithm.  Over Q the logarithm is a strict
isomorphism from F to the additive law, and [c](t) = exp(sum_j cj log tj).
So the action w_F through F is conjugate to the plain linear action w_A
of the same matrix (tj -> sum_i w_ij ti):

    w_F o Lambda = Lambda o w_A,   Lambda the ring map tj -> log(tj).

Lambda keeps the diagonal degree and never lowers the t-order, so it is
an automorphism of every window, and the invariants of w_F there are
Lambda of the invariants of w_A.  When every generator is a signed
permutation (every preset is), w_A moves monomials to +-monomials and
never touches the generator part.  Its invariants are then spanned by
the images of the Reynolds operator, sum_g g(m) over the group: up to a
scalar, the signed sum over the orbit of m.  The signed sums of distinct
orbits have disjoint supports.  A sum vanishes exactly when some element
fixes m with sign -1.  `_signed_orbits` finds this by walking each orbit
over the generators: a monomial reached with both signs is a conflict.
`bg_dimensions` only counts these orbits, with no law-dependent work,
and `invariant_basis` maps the sums through Lambda and takes their
`series.reduced_basis`: every term has the degree of the window, so only
the t-order cut is applied, and no monomial list is built.

The direct path serves any other generators, and is the oracle for the
orbit sums in `selftest` and the tests: `fixed_space_rows` reads the
action of each matrix on the window (its `action_matrix`) as sparse
integer columns and stacks the rows of (rho_w - 1), and `linalg.kernel`
gives their joint kernel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from math import factorial, lcm
from typing import Optional, Sequence

from . import linalg
from .fgl import FormalGroupLaw, fgl_sum, n_series
from .series import (
    Monomial,
    RingContext,
    RingMap,
    TruncatedSeries,
    bidegree_basis,
    compositions,
    lazard_count,
    lazard_monomials,
    reduced_basis,
    sparse_coordinates,
    substitute,
    unit_series,
)

Matrix = tuple  # tuple of row tuples with integer entries


class EnumerationCapExceeded(RuntimeError):
    """Weyl group closure did not terminate below the element cap."""


def _as_matrix(rows) -> Matrix:
    m = tuple(tuple(map(int, row)) for row in rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("Weyl generators must be square matrices")
    return m


def _signed_columns(m: Matrix) -> Optional[tuple]:
    """``((i_0, s_0), ..., (i_{n-1}, s_{n-1}))`` when m is a signed
    permutation: column j holds its one nonzero entry s_j = +-1 at row i_j,
    so the linear action sends t_j to s_j * t_{i_j}.  None for any other
    matrix."""
    cols = []
    for col in zip(*m):
        support = [(i, x) for i, x in enumerate(col) if x]
        if len(support) != 1 or support[0][1] not in (1, -1):
            return None
        cols.append(support[0])
    return tuple(cols) if len({i for i, _ in cols}) == len(m) else None


def _signed_actions(generators) -> Optional[tuple]:
    """The `_signed_columns` of every generator, or None when one of them is
    not a signed permutation."""
    actions = tuple(map(_signed_columns, generators))
    return None if None in actions else actions


def _check_unimodular(m: Matrix) -> None:
    # a signed permutation has det +-1; this O(n^2) test spares the presets'
    # generators an elimination
    if _signed_columns(m) is not None:
        return
    # an integer matrix has an integral inverse exactly when its det is +-1
    try:
        if linalg.inverse(m)[1] == 1:
            return
    except ValueError:  # m is square, so it is singular
        pass
    raise ValueError("matrix is not invertible over Z (det is not +-1)")


def int_mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product of two square integer matrices (Weyl group composition)."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity_int(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class WeylGroupSpec:
    """A finite group of unimodular integer matrices given by generators."""

    rank: int
    generators: tuple
    max_elements: int = 20000
    # the enumeration, built on the first call of elements() and kept
    _elements: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(_as_matrix(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if len(g) != self.rank:
                raise ValueError("generator size does not match the rank")
            _check_unimodular(g)

    def elements(self) -> tuple:
        """Full enumeration: closure of the generators, BFS order from the
        identity; computed on the first call."""
        if self._elements is not None:
            return self._elements
        identity = _identity_int(self.rank)
        seen = {identity}
        order = [identity]
        frontier = [identity]
        while frontier:
            new = []
            for w in frontier:
                for g in self.generators:
                    wg = int_mat_mul(w, g)
                    if wg not in seen:
                        seen.add(wg)
                        order.append(wg)
                        new.append(wg)
                        if len(seen) > self.max_elements:
                            raise EnumerationCapExceeded(
                                f"closure exceeds the cap of {self.max_elements} elements"
                            )
            frontier = new
        object.__setattr__(self, "_elements", tuple(order))
        return self._elements


@dataclass(frozen=True)
class GroupPreset:
    name: str
    rank: int
    weyl: WeylGroupSpec
    # the order of the Weyl group when known in closed form, so that a group
    # too large to enumerate is refused before any work
    weyl_order: Optional[int] = None

    def require_enumerable(self) -> None:
        """Raise EnumerationCapExceeded if the known Weyl order exceeds the enumeration cap."""
        cap = self.weyl.max_elements
        if self.weyl_order is not None and self.weyl_order > cap:
            raise EnumerationCapExceeded(
                f"the Weyl group of {self.name} has {self.weyl_order} elements, "
                f"over the cap of {cap} elements"
            )


def _transposition(n: int, i: int) -> Matrix:
    """Permutation matrix swapping coordinates i and i+1."""
    perm = list(range(n))
    perm[i], perm[i + 1] = i + 1, i
    return tuple((0,) * p + (1,) + (0,) * (n - 1 - p) for p in perm)


def _sign_flip(n: int, i: int) -> Matrix:
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[i][i] = -1
    return _as_matrix(rows)


def symmetric_group(n: int) -> WeylGroupSpec:
    gens = tuple(_transposition(n, i) for i in range(n - 1))
    return WeylGroupSpec(rank=n, generators=gens)


def signed_permutation_group(n: int) -> WeylGroupSpec:
    """Type B/C Weyl group (signed permutations); shipped for rank <= 3."""
    if n > 3:
        raise ValueError("signed permutation presets are shipped for rank <= 3 only")
    gens = tuple(_transposition(n, i) for i in range(n - 1)) + (_sign_flip(n, n - 1),)
    return WeylGroupSpec(rank=n, generators=gens)


# the largest preset rank: GL(n) builds n - 1 dense n x n generators and n!
MAX_PRESET_RANK = 100


def preset(name: str) -> GroupPreset:
    """Group presets: GL(n), SL(2), torus(n), plus B/C signed permutations of rank <= 3."""
    canon = name.replace("(", "").replace(")", "").replace("_", "").upper()
    if canon == "SL2":
        return GroupPreset("SL(2)", 1, WeylGroupSpec(rank=1, generators=(((-1,),),)), 2)
    m = re.fullmatch(r"(GL|TORUS|[BC])(\d+)", canon)
    if m is None:
        raise ValueError(f"unknown group preset {name!r}")
    family, n = m.group(1), int(m.group(2))
    # the rank is checked before any generator is built; rank 0 gets the refusal of RingContext
    if n < 1:
        raise ValueError("need at least one degree-1 variable")
    if n > MAX_PRESET_RANK:
        raise ValueError(f"group rank {n} is over the preset cap of {MAX_PRESET_RANK}")
    if family == "GL":
        return GroupPreset(f"GL({n})", n, symmetric_group(n), factorial(n))
    if family == "TORUS":
        return GroupPreset(f"torus({n})", n, WeylGroupSpec(rank=n, generators=()), 1)
    return GroupPreset(f"{family}{n}", n, signed_permutation_group(n), 2**n * factorial(n))


def character_class(
    law: FormalGroupLaw, char: Sequence[int], ctx: Optional[RingContext] = None
) -> TruncatedSeries:
    """First Chern class of the character line bundle, [c1](t1) +_F ... +_F [cn](tn)."""
    char = tuple(int(c) for c in char)
    if ctx is None:
        ctx = law.context(len(char))
    if len(char) != ctx.n_vars:
        raise ValueError("character length does not match the context rank")
    acc = None
    for j, cj in enumerate(char):
        if cj == 0:
            continue
        term = n_series(law, cj, ctx.var(j))
        # the sum starts at the first summand: F(0, a) = a by the unit axiom
        acc = term if acc is None else fgl_sum(law, acc, term)
    return ctx.zero() if acc is None else acc


def weyl_map(w, law: FormalGroupLaw, ctx: RingContext) -> RingMap:
    """Ring endomorphism of ``ctx`` sending tj to the class of the j-th column of w."""
    m = _as_matrix(w)
    _check_unimodular(m)
    n = ctx.n_vars
    if len(m) != n:
        raise ValueError("matrix size does not match the context rank")
    columns = {j: character_class(law, tuple(m[i][j] for i in range(n)), ctx) for j in range(n)}
    return RingMap(ctx, columns, ctx)


def weyl_apply(w, s: TruncatedSeries, law: FormalGroupLaw) -> TruncatedSeries:
    """Ring endomorphism sending tj to the class of the j-th column of w."""
    return weyl_map(w, law, s.ctx)(s)


def _check_window(ctx: RingContext, k_max: int) -> None:
    if k_max > ctx.max_t_order:
        raise ValueError(
            f"t-order window {k_max} exceeds the context cap {ctx.max_t_order}"
        )


def window_basis(ctx: RingContext, degree: int, k_max: int) -> list:
    """Monomials of the given diagonal degree with t-order <= k_max."""
    _check_window(ctx, k_max)
    monos = []
    # the t-order leads the sort key, so the blocks are already in order
    for k in range(0, k_max + 1):
        monos.extend(bidegree_basis(ctx, degree, k))
    return monos


def _window_orders(ctx: RingContext, degree: int, k_max: int) -> range:
    """The t-orders k of the degree window that hold a monomial: k <= k_max
    and 0 <= k - degree <= the weight cap."""
    return range(max(degree, 0), min(k_max, degree + ctx.max_weight) + 1)


def _signed_orbits(actions: tuple, n: int, k: int) -> list:
    """The orbits of the t-exponent vectors of total k under the signed
    permutations ``actions`` (`_signed_actions`) whose signed sums are
    nonzero, each as ``{vector: sign}``, with sign 1 on its first vector.

    Each orbit is walked over the generators, and every vector gets the sign
    of the first path that reaches it.  A second path with the other sign
    means that some group element fixes the monomial with sign -1, and then
    the orbit sum vanishes.
    """
    seen: set = set()
    orbits = []
    for start in compositions(k, n):
        if start in seen:
            continue
        orbit = {start: 1}
        frontier = [start]
        consistent = True
        while frontier:
            t = frontier.pop()
            for cols in actions:
                image = [0] * n
                sign = orbit[t]
                for e, (i, s) in zip(t, cols):
                    image[i] = e
                    if s < 0 and e & 1:
                        sign = -sign
                image = tuple(image)
                known = orbit.get(image)
                if known is None:
                    orbit[image] = sign
                    frontier.append(image)
                elif known != sign:
                    consistent = False
        seen.update(orbit)
        if consistent:
            orbits.append(orbit)
    return orbits


def log_map(law: FormalGroupLaw, ctx: RingContext) -> RingMap:
    """The ring automorphism Lambda of ``ctx`` sending tj to log(tj), which
    conjugates the linear Weyl action into the action through the law."""
    images = {j: substitute(law.log, {0: ctx.var(j)}, target=ctx) for j in range(ctx.n_vars)}
    return RingMap(ctx, images, ctx)


def action_matrix(w, law: FormalGroupLaw, basis: Sequence[Monomial], ctx: RingContext) -> list:
    """Matrix of the Weyl action on the span of ``basis``: column j is
    ``(nums, den)``, the `sparse_coordinates` of the image of ``basis[j]``."""
    # terms outside the window fall into the filtration ideal: dropped
    return sparse_coordinates(map(weyl_map(w, law, ctx), unit_series(ctx, basis)), basis)


def fixed_space_rows(matrices, law: FormalGroupLaw, basis, ctx: RingContext) -> list:
    """The rows of (rho_w - id) for every w in ``matrices``, stacked, as sparse
    integer rows: their joint kernel is the subspace of the span of ``basis``
    fixed by all of them.  One `sparse_coordinates` call reads the images
    under every w."""
    units = unit_series(ctx, basis)
    n = len(basis)
    images = sparse_coordinates(
        chain.from_iterable(map(weyl_map(w, law, ctx), units) for w in matrices), basis
    )
    stacked = []
    for at in range(0, len(images), n or 1):
        columns = images[at:at + n]
        # the rows of (rho_w - id), all scaled by one den
        den = lcm(*[d for _, d in columns])
        rows = [{} for _ in basis]
        for j, (nums, d) in enumerate(columns):
            for i, num in nums.items():
                rows[i][j] = num * (den // d)
        for i, row in enumerate(rows):
            x = row.get(i, 0) - den
            if x:
                row[i] = x
            else:
                del row[i]
        stacked.extend(rows)
    return stacked


def fixed_basis(matrices, law: FormalGroupLaw, basis, ctx: RingContext) -> list:
    """The subspace of the span of ``basis`` fixed by every matrix in
    ``matrices``, through the law: the joint kernel of the
    `fixed_space_rows`, in the canonical form of `invariant_basis`."""
    rows = fixed_space_rows(matrices, law, basis, ctx)
    return [
        TruncatedSeries(ctx, {basis[j]: c for j, c in vec.items()})
        for vec in linalg.kernel(rows, len(basis))
    ]


def invariant_basis(
    wspec: WeylGroupSpec,
    law: FormalGroupLaw,
    degree: int,
    k_max: int,
    ctx: Optional[RingContext] = None,
) -> list:
    """Basis of the Weyl-fixed subspace in the degree window, as series:
    the reduced echelon form over Q in the order of `window_basis`, each
    row scaled to 1 at its pivot, the rows in pivot order.  That form is
    unique, and zero columns do not change it, so both paths give the same
    basis.

    When every generator is a signed permutation, the basis is read off
    Lambda of the nonzero signed orbit sums (module docstring).  Otherwise
    it is the `fixed_basis` of the generators.
    """
    return invariant_bases(wspec, law, [degree], k_max, ctx)[degree]


def invariant_bases(
    wspec: WeylGroupSpec,
    law: FormalGroupLaw,
    degrees: Sequence[int],
    k_max: int,
    ctx: Optional[RingContext] = None,
) -> dict:
    """``{degree: invariant_basis(wspec, law, degree, k_max, ctx)}``, with
    Lambda of each orbit sum computed once for all degrees."""
    if ctx is None:
        ctx = law.context(wspec.rank)
    if ctx.n_vars != wspec.rank:
        raise ValueError("context rank does not match the Weyl rank")
    actions = _signed_actions(wspec.generators)
    _check_window(ctx, k_max)
    log = None if actions is None else log_map(law, ctx)
    images: dict = {}  # t-order -> Lambda of its nonzero orbit sums
    zero_t = (0,) * ctx.n_vars
    out = {}
    for degree in degrees:
        if actions is None:
            basis = window_basis(ctx, degree, k_max)
            out[degree] = fixed_basis(wspec.generators, law, basis, ctx) if basis else []
            continue
        sums = []
        for k in _window_orders(ctx, degree, k_max):
            if k not in images:
                images[k] = [
                    log(ctx.from_terms({Monomial(t, ()): s for t, s in orbit.items()}))
                    for orbit in _signed_orbits(actions, ctx.n_vars, k)
                ]
            for laz in lazard_monomials(ctx.coeff_kind, k - degree):
                # the generator part is never moved: Lambda commutes with it
                scalar = ctx.from_terms({Monomial(zero_t, laz): 1})
                sums.extend(image * scalar for image in images[k])
        out[degree] = reduced_basis(sums, k_max)
    return out


def bg_dimensions(
    group: GroupPreset, law: FormalGroupLaw, degrees: Sequence[int], k_max: int
) -> dict:
    """Per-degree invariant dimensions in the (degree, <= k_max) window.

    For signed-permutation generators this is a count, with no series:
    each nonzero signed orbit of t-exponent vectors of total k gives one
    invariant per generator monomial of weight k - degree.
    """
    ctx = law.context(group.rank)
    actions = _signed_actions(group.weyl.generators)
    if actions is None:
        return {
            int(d): len(invariant_basis(group.weyl, law, int(d), k_max, ctx))
            for d in degrees
        }
    _check_window(ctx, k_max)
    orbits = [len(_signed_orbits(actions, ctx.n_vars, k)) for k in range(k_max + 1)]
    return {
        int(d): sum(
            orbits[k] * lazard_count(ctx.coeff_kind, k - int(d))
            for k in _window_orders(ctx, int(d), k_max)
        )
        for d in degrees
    }
