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
spanned by monomials of t-order <= k_max (`series.window_orders`): the
action only preserves the augmentation filtration for non-additive laws,
and truncating to the window is a ring quotient, so the restricted action
is an honest group representation there.

Every invariant is Lambda of a linear invariant.  Over Q the logarithm
is a strict isomorphism from F to the additive law, and
[c](t) = exp(sum_j cj log tj).  So the action w_F through F is conjugate
to the plain linear action w_A of the same matrix (tj -> sum_i w_ij ti):

    w_F o Lambda = Lambda o w_A,   Lambda the ring map tj -> log(tj).

Lambda keeps the diagonal degree and never lowers the t-order, so it is
an automorphism of every window, and the invariants of w_F there are
Lambda of those of w_A.  These never depend on the law: w_A keeps the
t-order and fixes the generators, so they are the linear invariants of
each t-order k (`_linear_invariants`, the invariant code's one branch
on the kind of matrix) times the generator monomials of weight
k - degree.  For
signed permutations (every preset) the linear invariants are spanned by
the Reynolds images sum_g g(m): up to a scalar, the signed orbit sums of
monomials, with disjoint supports; a sum vanishes exactly when some
element fixes m with sign -1.  `_signed_orbits` walks each orbit over
the generators, and a monomial reached with both signs is a conflict.
Any other generators get the kernel of the additive law's action, which
is w_A.  `bg_dimensions` only counts the linear invariants, with no law
and, for a preset, with no orbit walk: every preset's Weyl group is a
reflection group or trivial, so by Chevalley-Shephard-Todd its linear
invariants form a polynomial ring on generators of t-orders d_1..d_n,
the fundamental degrees, and t-order k holds [q^k] prod_i 1/(1 - q^d_i)
of them (`series.graded_counts`).  `invariant_basis` maps them through
Lambda and takes their `series.reduced_basis`: every term has the degree
of the window, so only the t-order cut is applied, and no list of the
window's monomials is built.

The kernel through the law itself is the oracle in `selftest` and the
tests: `fixed_space_rows` reads the action of each matrix on the window
as sparse integer columns, one `action_matrix` call per matrix, and
stacks the rows of (rho_w - 1), and `linalg.kernel` gives their joint
kernel.
"""

from __future__ import annotations

from itertools import chain
from math import lcm, prod
from typing import Optional, Sequence

from . import linalg
from .fgl import FormalGroupLaw, build_fgl, fgl_sum, n_series
from .series import (
    Monomial,
    RingContext,
    RingMap,
    TruncatedSeries,
    bidegree_basis,
    compositions,
    graded_counts,
    lazard_count,
    lazard_monomials,
    reduced_basis,
    sparse_coordinates,
    substitute,
    window_orders,
)
from .value import FrozenValue

Matrix = tuple  # tuple of row tuples with integer entries

# `WeylGroupSpec.elements` and `GroupPreset.require_enumerable` refuse a
# group of more elements than this
MAX_WEYL_ELEMENTS = 20_000


class EnumerationCapExceeded(RuntimeError):
    """Weyl group closure did not terminate below the element cap."""


def _ints(values, what: str) -> tuple:
    """``values`` as a tuple; ValueError unless every entry is an int, and
    not a bool."""
    out = tuple(values)
    for x in out:
        if type(x) is not int:
            raise ValueError(f"{what} entries must be int, got {type(x).__name__}")
    return out


def _as_matrix(rows) -> Matrix:
    m = tuple(_ints(row, "Weyl matrix") for row in rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("Weyl generators must be square matrices")
    return m


def _signed_code(m: Matrix) -> Optional[tuple]:
    """The tuple of s_j * (i_j + 1) when m is a signed permutation: column j
    holds its one nonzero entry s_j = +-1 at row i_j, so the linear action
    sends t_j to s_j * t_{i_j}.  None for any other matrix."""
    support = [[(i, x) for i, x in enumerate(col) if x] for col in zip(*m)]
    if any(len(col) != 1 or col[0][1] not in (1, -1) for col in support):
        return None
    code = tuple(x * (i + 1) for [(i, x)] in support)
    return code if len(set(map(abs, code))) == len(m) else None


def _check_unimodular(m: Matrix) -> None:
    # a signed permutation has det +-1; this O(n^2) test spares the presets'
    # generators an elimination
    if _signed_code(m) is not None:
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


class WeylGroupSpec(FrozenValue):
    """A finite group of unimodular integer matrices given by generators."""

    _fields = ("rank", "generators")

    def __init__(self, rank: int, generators: tuple):
        gens = tuple(_as_matrix(g) for g in generators)
        for g in gens:
            if len(g) != rank:
                raise ValueError("generator size does not match the rank")
            _check_unimodular(g)
        # _elements is the enumeration, built on the first call of elements() and kept
        self.__dict__.update(rank=rank, generators=gens, _elements=None)

    def elements(self) -> tuple:
        """Full enumeration: closure of the generators, BFS order from the
        identity; computed on the first call.  Signed permutations compose
        as `_signed_code` tuples, O(n) a product."""
        if self._elements is not None:
            return self._elements
        codes = tuple(map(_signed_code, self.generators))
        if None in codes:
            order = self._closure(_identity_int(self.rank), self.generators, int_mat_mul)
        else:
            identity = tuple(range(1, self.rank + 1))
            order = map(_signed_matrix, self._closure(identity, codes, _compose_signed))
        self.__dict__["_elements"] = tuple(order)
        return self._elements

    def _closure(self, identity, generators, mul) -> list:
        seen = {identity}
        order = [identity]
        frontier = [identity]
        while frontier:
            new = []
            for w in frontier:
                for g in generators:
                    wg = mul(w, g)
                    if wg not in seen:
                        seen.add(wg)
                        order.append(wg)
                        new.append(wg)
                        if len(seen) > MAX_WEYL_ELEMENTS:
                            raise EnumerationCapExceeded(
                                f"closure exceeds the cap of {MAX_WEYL_ELEMENTS} elements"
                            )
            frontier = new
        return order


def _compose_signed(w: tuple, g: tuple) -> tuple:
    """The `_signed_code` of w * g from those of w and g."""
    return tuple(w[c - 1] if c > 0 else -w[-c - 1] for c in g)


def _signed_matrix(code: tuple) -> Matrix:
    """The signed permutation matrix of a `_signed_code`."""
    n = len(code)
    rows = [[0] * n for _ in range(n)]
    for j, c in enumerate(code):
        rows[abs(c) - 1][j] = 1 if c > 0 else -1
    return tuple(map(tuple, rows))


class GroupPreset(FrozenValue):
    """A named group: its Weyl group, whose rank is the group's, and, when
    known in closed form, the order of that group, so that a group too large
    to enumerate is refused before any work, and the fundamental degrees of
    its linear action, so that `bg_dimensions` counts the invariants with no
    orbit walk.

    The degrees d_1..d_rank say that the linear invariants form a polynomial
    ring on generators of t-orders d_i: Chevalley-Shephard-Todd for a
    reflection group, rank ones for the trivial group.  Then |W| = prod d_i,
    so degrees that disagree with the rank or the order are refused."""

    _fields = ("name", "weyl", "weyl_order", "fundamental_degrees")

    def __init__(
        self,
        name: str,
        weyl: WeylGroupSpec,
        weyl_order: Optional[int] = None,
        fundamental_degrees: Optional[Sequence[int]] = None,
    ):
        degrees = fundamental_degrees
        if degrees is not None:
            degrees = _ints(degrees, "fundamental degree")
            if len(degrees) != weyl.rank:
                raise ValueError(
                    f"{len(degrees)} fundamental degrees for a group of rank {weyl.rank}"
                )
            if any(d < 1 for d in degrees):
                raise ValueError(f"fundamental degrees must be >= 1, got {degrees}")
            if weyl_order is not None and prod(degrees) != weyl_order:
                raise ValueError(
                    f"fundamental degrees {degrees} multiply to {prod(degrees)}, "
                    f"not the Weyl order {weyl_order}"
                )
        self.__dict__.update(
            name=name, weyl=weyl, weyl_order=weyl_order, fundamental_degrees=degrees
        )

    @property
    def rank(self) -> int:
        return self.weyl.rank

    def require_enumerable(self) -> None:
        """Raise EnumerationCapExceeded if the known Weyl order exceeds the enumeration cap."""
        if self.weyl_order is not None and self.weyl_order > MAX_WEYL_ELEMENTS:
            raise EnumerationCapExceeded(
                f"the Weyl group of {self.name} has {self.weyl_order} elements, "
                f"over the cap of {MAX_WEYL_ELEMENTS} elements"
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


# the largest preset rank: GL(n) builds n - 1 dense n x n generators; its
# n! Weyl elements are never enumerated by plain `bg`, which counts from the
# fundamental degrees
MAX_PRESET_RANK = 100


def _preset(name: str, weyl: WeylGroupSpec, degrees: tuple) -> GroupPreset:
    # every preset is a reflection group or trivial: |W| = prod d_i
    return GroupPreset(name, weyl, prod(degrees), degrees)


def preset(name: str) -> GroupPreset:
    """Group presets: GL(n), SL(2), torus(n), plus B/C signed permutations of rank <= 3."""
    canon = name.replace("(", "").replace(")", "").replace("_", "").upper()
    if canon == "SL2":
        return _preset("SL(2)", WeylGroupSpec(rank=1, generators=(((-1,),),)), (2,))
    # a family name, then decimal digits (any script's: int reads them all)
    family = next((f for f in ("GL", "TORUS", "B", "C") if canon.startswith(f)), "")
    digits = canon[len(family):]
    if not family or not digits.isdecimal():
        raise ValueError(f"unknown group preset {name!r}")
    # leading zeros of any script are dropped, so the digit limit counts significant digits only
    digits = digits[next((i for i, c in enumerate(digits[:-1]) if int(c)), len(digits) - 1):]
    try:
        n = int(digits)
    except ValueError:  # past Python's digit limit for int(), so far past the cap
        raise ValueError(
            f"group rank of {len(digits)} digits is over the preset cap of {MAX_PRESET_RANK}"
        ) from None
    # the rank is checked before any generator is built; rank 0 gets the refusal of RingContext
    if n < 1:
        raise ValueError("need at least one degree-1 variable")
    if n > MAX_PRESET_RANK:
        raise ValueError(f"group rank {n} is over the preset cap of {MAX_PRESET_RANK}")
    if family == "GL":
        return _preset(f"GL({n})", symmetric_group(n), tuple(range(1, n + 1)))
    if family == "TORUS":
        return _preset(f"torus({n})", WeylGroupSpec(rank=n, generators=()), (1,) * n)
    return _preset(f"{family}{n}", signed_permutation_group(n), tuple(range(2, 2 * n + 1, 2)))


def character_class(law: FormalGroupLaw, char: Sequence[int], ctx: RingContext) -> TruncatedSeries:
    """First Chern class of the character line bundle, [c1](t1) +_F ... +_F [cn](tn)."""
    char = _ints(char, "character")
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
    """Ring endomorphism sending tj to the class of the j-th column of w.

    Nothing in the package calls it; it stays for the tests and because the
    benchmark's tracer wraps it by name."""
    return weyl_map(w, law, s.ctx)(s)


def _signed_orbits(codes: tuple, n: int, k: int) -> list:
    """The orbits of the t-exponent vectors of total k under the signed
    permutations ``codes`` (`_signed_code`) whose signed sums are
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
            for code in codes:
                image = [0] * n
                sign = orbit[t]
                for e, c in zip(t, code):
                    if c > 0:
                        image[c - 1] = e
                    else:
                        image[~c] = e
                        if e & 1:
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
    ``(nums, den)``, the `sparse_coordinates` of the image of ``basis[j]``.
    `fixed_space_rows` reads every matrix through it, and the benchmark's
    tracer wraps it by name."""
    units = [ctx.from_terms({mono: 1}) for mono in basis]
    # terms outside the window fall into the filtration ideal: dropped
    return sparse_coordinates(map(weyl_map(w, law, ctx), units), basis)


def fixed_space_rows(matrices, law: FormalGroupLaw, basis, ctx: RingContext) -> list:
    """The rows of (rho_w - id) for every w in ``matrices``, stacked, as sparse
    integer rows: their joint kernel is the subspace of the span of ``basis``
    fixed by all of them.  Each w is read by one `action_matrix` call."""
    stacked = []
    for w in matrices:
        columns = action_matrix(w, law, basis, ctx)
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
        ctx.from_terms({basis[j]: c for j, c in vec.items()})
        for vec in linalg.kernel(rows, len(basis))
    ]


def _linear_invariants(wspec: WeylGroupSpec, orders) -> dict:
    """``{k: basis}`` over the t-orders k in ``orders``: a basis of the
    invariants of the linear action (tj -> sum_i w_ij ti) on the monomials
    in t of degree k, each as ``{t-exponent vector: coefficient}``.

    Signed permutations give their nonzero signed orbit sums.  Any other
    generators give the `fixed_basis` of the additive law, whose action is
    the linear one, over Q; that law is built once, at the largest order.
    """
    orders = set(orders)
    codes = tuple(map(_signed_code, wspec.generators))
    if None not in codes:
        return {k: _signed_orbits(codes, wspec.rank, k) for k in orders}
    law = build_fgl("additive", max([2, *orders]), 0)
    ctx = law.context(wspec.rank)
    return {
        k: [
            {m.t: c for m, c in v.iter_terms()}
            for v in fixed_basis(wspec.generators, law, bidegree_basis(ctx, k, k), ctx)
        ]
        for k in orders
    }


def invariant_basis(wspec: WeylGroupSpec, law: FormalGroupLaw, degree: int, k_max: int) -> list:
    """Basis of the Weyl-fixed subspace in the degree window, as series:
    the reduced echelon form over Q in the order of `series.window_basis`,
    each row scaled to 1 at its pivot, the rows in pivot order.  That form
    is unique, and zero columns do not change it, so it equals the
    `fixed_basis` of the window through the law, the oracle.

    The basis is read off Lambda of the linear invariants, times the
    generator monomials (module docstring), whatever the generators.
    """
    return invariant_bases(wspec, law, [degree], k_max)[degree]


def invariant_bases(
    wspec: WeylGroupSpec, law: FormalGroupLaw, degrees: Sequence[int], k_max: int
) -> dict:
    """``{degree: invariant_basis(wspec, law, degree, k_max)}`` over the
    context ``law.context(wspec.rank)``, with Lambda of each linear
    invariant computed once for all degrees."""
    ctx = law.context(wspec.rank)
    window_orders(ctx, 0, k_max)  # k_max is refused even when no degree is asked
    windows = {d: window_orders(ctx, d, k_max) for d in degrees}
    log = log_map(law, ctx)
    images = {  # t-order -> Lambda of its linear invariants
        k: [log(ctx.from_terms({Monomial(t, ()): c for t, c in v.items()})) for v in basis]
        for k, basis in _linear_invariants(wspec, chain(*windows.values())).items()
    }
    zero_t = (0,) * ctx.n_vars
    out = {}
    for degree, window in windows.items():
        sums = []
        for k in window:
            for laz in lazard_monomials(ctx.coeff_kind, k - degree):
                # the generator part is never moved: Lambda commutes with it
                scalar = ctx.from_terms({Monomial(zero_t, laz): 1})
                sums.extend(image * scalar for image in images[k])
        out[degree] = reduced_basis(sums, k_max)
    return out


def bg_dimensions(
    group: GroupPreset, ctx: RingContext, degrees: Sequence[int], k_max: int
) -> dict:
    """Per-degree invariant dimensions in the (degree, <= k_max) window of
    ``ctx``: a count, with no law and no series.  Each linear invariant of
    t-order k gives one invariant per generator monomial of weight
    k - degree.  The linear invariants are counted from the group's
    fundamental degrees, with no orbit walk; a group without them gets
    `_linear_invariants`."""
    if ctx.n_vars != group.rank:
        raise ValueError("context rank does not match the group rank")
    window_orders(ctx, 0, k_max)  # k_max is refused even when no degree is asked
    windows = {d: window_orders(ctx, d, k_max) for d in degrees}
    orders = set(chain(*windows.values()))
    if group.fundamental_degrees is None:
        counts = {k: len(basis) for k, basis in _linear_invariants(group.weyl, orders).items()}
    else:
        counts = graded_counts(group.fundamental_degrees, max(orders, default=0))
    return {
        d: sum(counts[k] * lazard_count(ctx.coeff_kind, k - d) for k in window)
        for d, window in windows.items()
    }
