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
the matrix and computes the rank-many column classes.  `action_matrix`
sends every basis monomial through that map, as sparse integer columns,
and `fixed_space_rows` stacks the rows of (rho_w - 1).  Invariant
subspaces are computed per diagonal degree in the filtration quotient
spanned by monomials of t-order <= k_max: the action only preserves the
augmentation filtration for non-additive laws, and truncating to the
window is a ring quotient, so the restricted action is an honest group
representation there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import factorial, lcm
from typing import Optional, Sequence

from . import linalg
from .fgl import FormalGroupLaw, fgl_sum, n_series
from .series import (
    Monomial,
    RingContext,
    RingMap,
    TruncatedSeries,
    basis_units,
    bidegree_basis,
    sparse_coordinates,
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


def _is_signed_permutation(m: Matrix) -> bool:
    """One entry +-1 in each row and in each column, zeros elsewhere."""
    if any(sum(map(abs, row)) != 1 for row in m):
        return False
    return len({row.index(1) if 1 in row else row.index(-1) for row in m}) == len(m)


def _check_unimodular(m: Matrix) -> None:
    # a signed permutation has det +-1; this O(n^2) test spares the presets'
    # generators an O(n^3) determinant
    if _is_signed_permutation(m):
        return
    d = linalg.det([list(r) for r in m])
    if d not in (1, -1):
        raise ValueError(f"matrix is not invertible over Z (det = {d})")


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


def preset(name: str) -> GroupPreset:
    """Group presets: GL(n), SL(2), torus(n), plus B/C signed permutations of rank <= 3."""
    canon = name.replace("(", "").replace(")", "").replace("_", "").upper()
    m = re.fullmatch(r"GL(\d+)", canon)
    if m:
        n = int(m.group(1))
        return GroupPreset(f"GL({n})", n, symmetric_group(n), factorial(n))
    if canon == "SL2":
        return GroupPreset("SL(2)", 1, WeylGroupSpec(rank=1, generators=(((-1,),),)), 2)
    m = re.fullmatch(r"TORUS(\d+)", canon)
    if m:
        n = int(m.group(1))
        return GroupPreset(f"torus({n})", n, WeylGroupSpec(rank=n, generators=()), 1)
    m = re.fullmatch(r"[BC](\d+)", canon)
    if m:
        n = int(m.group(1))
        return GroupPreset(
            f"{canon[0]}{n}", n, signed_permutation_group(n), 2**n * factorial(n)
        )
    raise ValueError(f"unknown group preset {name!r}")


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


def window_basis(ctx: RingContext, degree: int, k_max: int) -> list:
    """Monomials of the given diagonal degree with t-order <= k_max."""
    if k_max > ctx.max_t_order:
        raise ValueError(
            f"t-order window {k_max} exceeds the context cap {ctx.max_t_order}"
        )
    monos = []
    for k in range(0, k_max + 1):
        monos.extend(bidegree_basis(ctx, degree, k))
    monos.sort(key=Monomial.sort_key)
    return monos


def action_matrix(
    w,
    law: FormalGroupLaw,
    basis: Sequence[Monomial],
    ctx: RingContext,
    units: Optional[Sequence[TruncatedSeries]] = None,
    index: Optional[dict] = None,
) -> list:
    """Matrix of the Weyl action on the span of ``basis``: column j is
    ``(nums, den)``, the `sparse_coordinates` of the image of ``basis[j]``.

    ``units`` and ``index`` are ``basis_units(ctx, basis)``, for a caller
    that acts on one basis by several matrices and builds them once.
    """
    if units is None:
        units = unit_series(ctx, basis)
    # terms outside the window fall into the filtration ideal: dropped
    return sparse_coordinates(map(weyl_map(w, law, ctx), units), basis, index=index)


def fixed_space_rows(matrices, law: FormalGroupLaw, basis, ctx: RingContext) -> list:
    """The rows of (rho_w - id) for every w in ``matrices``, stacked, as sparse
    integer rows: their joint kernel is the subspace of the span of ``basis``
    fixed by all of them."""
    units, index = basis_units(ctx, basis)
    stacked = []
    for w in matrices:
        images = action_matrix(w, law, basis, ctx, units, index)
        # the rows of (rho_w - id), all scaled by one den
        den = lcm(*[d for _, d in images])
        rows = [{} for _ in basis]
        for j, (nums, d) in enumerate(images):
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


def invariant_basis(
    wspec: WeylGroupSpec,
    law: FormalGroupLaw,
    degree: int,
    k_max: int,
    ctx: Optional[RingContext] = None,
) -> list:
    """Basis of the Weyl-fixed subspace in the degree window, as series.

    The fixed space is the joint kernel of (action - id) over the
    generators only; the basis is canonicalized by reduced echelon form
    over Q.
    """
    if ctx is None:
        ctx = law.context(wspec.rank)
    if ctx.n_vars != wspec.rank:
        raise ValueError("context rank does not match the Weyl rank")
    basis = window_basis(ctx, degree, k_max)
    if not basis:
        return []
    rows = fixed_space_rows(wspec.generators, law, basis, ctx)
    return [
        TruncatedSeries(ctx, {basis[j]: c for j, c in vec.items()})
        for vec in linalg.kernel(rows, len(basis))
    ]


def bg_dimensions(
    group: GroupPreset, law: FormalGroupLaw, degrees: Sequence[int], k_max: int
) -> dict:
    """Per-degree invariant dimensions in the (degree, <= k_max) window."""
    ctx = law.context(group.rank)
    return {
        int(d): len(invariant_basis(group.weyl, law, int(d), k_max, ctx))
        for d in degrees
    }
