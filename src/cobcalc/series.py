"""Exact sparse arithmetic for doubly-truncated graded series over Q.

Two variable families live in one ring:

* degree-1 variables ``t1..tn`` (torus characters, Chern roots, xi),
* coefficient generators of negative degree, selected by ``coeff_kind``:

  ==================== ======================= ==================
  kind                 generators              degree
  ==================== ======================= ==================
  rational             none                    --
  multiplicative-beta  b                       deg b  = -1
  universal-rational   m1, m2, ...             deg mi = -i
  ==================== ======================= ==================

A monomial ``m^alpha * t^beta`` carries the t-order ``|beta|``, the
generator weight ``sum(i * alpha_i)`` and the diagonal degree
``|beta| - weight``.  Every series is truncated to
``t-order <= max_t_order`` and ``weight <= max_weight``; terms produced
beyond either cap are dropped silently, so all ring identities are
asserted only inside the retained window.  Dropping is an ideal
quotient (t-order and weight never decrease under multiplication or
augmentation-ideal substitution), which is what makes the truncated
identities exact.  `bg` and the towers read one degree window at a time,
the monomials of one diagonal degree and t-order <= k_max: `window_orders`
lists its t-orders and is its one input check, `window_basis` lists it,
and `graded_counts` counts monomials in generators of given t-orders.

Coefficients are exact rationals throughout; there is no floating
point anywhere in this package.

Internal representation
-----------------------
`Monomial` and `fractions.Fraction` are the types at every boundary
(construction, ``items()``, ``coefficient()`` and text), except
`sparse_coordinates`, which hands linear algebra integer rows.  Inside,
a series stores integer numerators over one common denominator, and
each monomial as one packed int:

* ``_terms`` maps packed monomial keys to nonzero int numerators and
  ``_den`` is the common denominator.  The canonical form is
  ``_den >= 1``, ``gcd(_den, every numerator) == 1`` and no zero
  numerator; every operation returns it, and equality and hashing
  compare it.
* A packed key holds, from the most significant field down: t-order,
  weight, ``t1..tn``, then the generator exponents ``e1..eG`` (``G`` is
  0 for rational, 1 for ``b`` and ``max_weight`` for ``m1, m2, ...``).
  All fields share one width, derived from the caps of the context, that
  holds the sum of two in-cap values without a carry.  The key of a
  product of monomials is therefore the sum of their keys, sorting keys
  sorts by t-order first, and the t-order cap is one comparison against
  a key bound.

Products
--------
`mul_into` is the one product kernel.  It adds the truncated product
``a * b`` straight into a caller's dict of numerators over a running
common denominator, rescaling that dict to the lcm when the product's
denominator does not divide it, and leaves canonicalizing to the
caller: `series_mul` is one call on an empty dict followed by one
canonicalization, and `bundles.pb_mul` sums many products into one dict
each.  The right factor keeps, cached on first use, its terms bucketed
by weight (only the weights that occur, ascending), each bucket sorted
by key.  A left term of weight ``w`` visits the buckets up to weight
``max_weight - w`` and stops inside each at the first key over the
t-order cap, so no pair beyond either cap is formed.  That pair loop,
`_pairs_into`, is run once per product by `mul_into` and once per term
by `RingMap`.  A square ``a * a`` (the same object twice) runs the
squaring pass of that loop over the same buckets, `_square_into`: each
unordered pair of terms is formed once and the products off the diagonal
are doubled.

Only this module knows the packed form.  Callers that would otherwise
decode every term and validate it again get helpers that work on the
keys: `sparse_coordinates` (integer rows against a list of monomials),
`reduced_basis` (the canonical echelon basis of a span, over the
monomials that occur), `variable_slices` (a series split by the powers
of one variable, as the list of its parts from the power 0 up, zero
where a power does not occur), `variable_slice` (one part of that split,
for a caller that reads a few parts and not the whole split),
`derivative` (the partial derivative in one variable) and
`compositional_inverse` (which moves series between windows as copies of
their keys).

Ring maps
---------
A ring map is given by the images of the variables: `RingMap(source,
images, target)` checks the images once (index range, one target
context with the coefficient kind of the source, no term of t-order 0)
and keeps a table of their powers, each multiplied out on first use, so
that mapping many series through one map builds every power once; an
even power is the square of its half, an odd one the power below it
times the image.  A call maps each term as the product of its scalar
part and the powers of the images of its variables, and the term stays
a key with a numerator and a denominator: every power with one term
folds in as a key addition and a coefficient product, and the term is
dropped once its key passes a cap.  The last power with more terms goes
through the pair loop of `mul_into`, straight into the image.  A map
whose images are all zero or variables ``+-t_k`` of the target needs no
product: when the two layouts agree on the generator fields, each term
moves its key fields to one term of the target.  `substitute` is the
one-shot form, ``RingMap(s.ctx, assignment, target)(s)``; the Weyl
action, the projective-bundle evaluation and the axiom checks of `fgl`
all go through these.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import linalg
from .value import FrozenValue

COEFF_KINDS = ("rational", "multiplicative-beta", "universal-rational")


class ContextMismatch(ValueError):
    """Operands live over different ring contexts."""


class SubstitutionError(ValueError):
    """An assignment series has a constant term in the degree-1 variables."""


class RingContext(FrozenValue):
    """Shape data shared by all series of one ring.

    ``max_t_order`` caps the total degree in the degree-1 variables,
    ``max_weight`` caps the generator weight.  Both caps must be >= 0
    and are fixed for the lifetime of every series built over the
    context.
    """

    _fields = ("n_vars", "coeff_kind", "max_t_order", "max_weight")

    def __init__(self, n_vars: int, coeff_kind: str, max_t_order: int, max_weight: int):
        sizes = {"n_vars": n_vars, "max_t_order": max_t_order, "max_weight": max_weight}
        for name, value in sizes.items():
            if type(value) is not int:  # nor a bool
                raise ValueError(f"{name} must be int, got {type(value).__name__}")
        if n_vars < 1:
            raise ValueError("need at least one degree-1 variable")
        if coeff_kind not in COEFF_KINDS:
            raise ValueError(f"unknown coefficient kind {coeff_kind!r}")
        if max_t_order < 0 or max_weight < 0:
            raise ValueError("truncation caps must be non-negative")
        self.__dict__.update(
            n_vars=n_vars, coeff_kind=coeff_kind, max_t_order=max_t_order, max_weight=max_weight
        )

    @cached_property
    def _layout(self) -> "_Layout":
        """Packed-key geometry of this context (see the module docstring)."""
        n_gens = {"rational": 0, "multiplicative-beta": 1}.get(
            self.coeff_kind, self.max_weight
        )
        return _shared_layout(self.n_vars, n_gens, self.max_t_order, self.max_weight)

    def window(self, max_t_order: int) -> "RingContext":
        """This context with t-order cap ``max_t_order``, raised where needed
        to the least cap whose packed keys keep this context's field width.

        `compositional_inverse` moves a series between windows by copying
        its packed keys, which holds only while the field width is kept.

        >>> RingContext(1, "universal-rational", 14, 2).window(3).max_t_order
        8
        """
        width = _field_width(self.max_t_order, self.max_weight)
        cap = max_t_order
        if _field_width(cap, self.max_weight) < width:
            cap = 1 << (width - 2)  # the least t-order cap of that width
        return RingContext(self.n_vars, self.coeff_kind, cap, self.max_weight)

    # -- series constructors ------------------------------------------------

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries._raw(self, {}, 1)

    def one(self) -> "TruncatedSeries":
        return self.constant(1)

    def constant(self, value) -> "TruncatedSeries":
        c = _exact(value)
        if c == 0:
            return self.zero()
        # key 0 is the monomial 1
        return TruncatedSeries._raw(self, {0: c.numerator}, c.denominator)

    def var(self, j: int) -> "TruncatedSeries":
        """The degree-1 variable t_{j+1} as a series (0-based index)."""
        if type(j) is not int:  # nor a bool
            raise ValueError(f"variable index must be int, got {type(j).__name__}")
        if not 0 <= j < self.n_vars:
            raise ValueError(f"variable index {j} out of range")
        if self.max_t_order == 0:
            return self.zero()
        layout = self._layout
        key = (1 << layout.t_shift) + (1 << layout.var_shifts[j])
        return TruncatedSeries._raw(self, {key: 1}, 1)

    def lazard(self, i: int) -> "TruncatedSeries":
        """Coefficient generator of weight i (``b`` requires i == 1)."""
        _check_lazard_index(self.coeff_kind, i)
        return self.from_terms(
            {Monomial((0,) * self.n_vars, ((i, 1),)): Fraction(1)}
        )

    def from_terms(self, terms: Mapping["Monomial", Fraction]) -> "TruncatedSeries":
        """Build a series, validating generator indices (strictly increasing,
        as `Monomial` asks) and exact coefficients, and applying the caps."""
        layout = self._layout
        out: dict = {}
        for mono, coeff in terms.items():
            for i, e in mono.laz:
                _check_lazard_index(self.coeff_kind, i)
                if e <= 0:
                    raise ValueError("generator exponents must be positive")
            if not _canonical_generators(mono.laz):
                raise ValueError("generator indices must strictly increase")
            if len(mono.t) != self.n_vars:
                raise ValueError("monomial has wrong number of variables")
            if any(e < 0 for e in mono.t):
                raise ValueError("variable exponents must be non-negative")
            c = _exact(coeff)
            if c == 0:
                continue
            if mono.t_order() > self.max_t_order or mono.weight() > self.max_weight:
                continue
            key = layout.encode(mono)
            out[key] = out.get(key, 0) + c
        out = {k: c for k, c in out.items() if c != 0}
        den = lcm(*(c.denominator for c in out.values()))
        nums = {k: c.numerator * (den // c.denominator) for k, c in out.items()}
        return _reduced(self, nums, den)


def _exact(value) -> Fraction:
    """``value`` as a Fraction; ValueError unless it is a (non-bool) int or a Fraction."""
    if type(value) is Fraction:  # immutable: no copy, which costs more than the check
        return value
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        raise ValueError(f"coefficients must be int or Fraction, got {type(value).__name__}")
    return Fraction(value)


def _canonical_generators(laz: tuple) -> bool:
    """Whether a generator part names its indices strictly increasing, as a term's must."""
    return len(laz) < 2 or all(i < j for (i, _), (j, _) in zip(laz, laz[1:]))


def _check_lazard_index(kind: str, i: int) -> None:
    if kind == "rational":
        raise ValueError("rational coefficients admit no generators")
    if kind == "multiplicative-beta" and i != 1:
        raise ValueError("multiplicative coefficients only admit b (weight 1)")
    if i < 1:
        raise ValueError("generator index must be >= 1")


class Monomial(NamedTuple):
    """``m^alpha * t^beta`` with canonical sparse generator part.

    ``t`` is the full exponent vector over the degree-1 variables;
    ``laz`` is a tuple of ``(generator_index, exponent)`` pairs sorted by
    index with positive exponents only.
    """

    t: tuple
    laz: tuple

    def t_order(self) -> int:
        return sum(self.t)

    def weight(self) -> int:
        return sum(i * e for i, e in self.laz)

    def degree(self) -> int:
        return self.t_order() - self.weight()

    def sort_key(self):
        # graded-lex on t-exponents (t1-heavy terms first), then generator part
        return (self.t_order(), tuple(-e for e in self.t), self.weight(), self.laz)


def _field_width(max_t: int, max_w: int) -> int:
    """Bits per packed-key field: every field holds at most twice its cap
    while a product is formed."""
    return (2 * max(max_t, max_w, 1)).bit_length()


class _Layout:
    """Field shifts and cap bounds of the packed keys of one context."""

    __slots__ = (
        "n_vars", "n_gens", "max_t", "max_w", "width", "mask", "var_shifts", "w_shift",
        "t_shift", "gen_mask", "t_limit",
    )

    def __init__(self, n_vars: int, n_gens: int, max_t: int, max_w: int):
        self.width = width = _field_width(max_t, max_w)
        self.n_vars, self.n_gens, self.max_t, self.max_w = n_vars, n_gens, max_t, max_w
        self.mask = (1 << width) - 1
        self.var_shifts = tuple(width * (n_gens + n_vars - j) for j in range(1, n_vars + 1))
        self.w_shift = width * (n_gens + n_vars)
        self.t_shift = self.w_shift + width
        self.gen_mask = (1 << (width * n_gens)) - 1
        # a key at or above t_limit has t-order > max_t
        self.t_limit = (max_t + 1) << self.t_shift

    def encode(self, mono: Monomial) -> int:
        """Key of a monomial inside the caps with valid generator indices."""
        key = (mono.t_order() << self.t_shift) + (mono.weight() << self.w_shift)
        for e, shift in zip(mono.t, self.var_shifts):
            key += e << shift
        for i, e in mono.laz:
            key += e << self.width * (self.n_gens - i)
        return key

    def key_of(self, mono: Monomial) -> Optional[int]:
        """Key of ``mono``, or None when no series of the context can hold it."""
        if len(mono.t) != self.n_vars or any(e < 0 for e in mono.t):
            return None
        if any(not 1 <= i <= self.n_gens or e <= 0 for i, e in mono.laz):
            return None
        if not _canonical_generators(mono.laz):
            return None
        if mono.t_order() > self.max_t or mono.weight() > self.max_w:
            return None
        return self.encode(mono)

    def decode(self, key: int) -> Monomial:
        mask, width, n_gens = self.mask, self.width, self.n_gens
        t = tuple((key >> shift) & mask for shift in self.var_shifts)
        gens, laz = key & self.gen_mask, []
        while gens:  # its top nonzero field holds the least generator index left
            shift = (gens.bit_length() - 1) // width * width
            laz.append((n_gens - shift // width, gens >> shift))
            gens &= (1 << shift) - 1
        return Monomial(t, tuple(laz))


@lru_cache(maxsize=None)
def _shared_layout(n_vars: int, n_gens: int, max_t: int, max_w: int) -> _Layout:
    return _Layout(n_vars, n_gens, max_t, max_w)


class TruncatedSeries:
    """Immutable sparse series: a map from monomials to nonzero rationals.

    Two series are equal iff their contexts and canonical term maps are
    equal.  All operations are pure; instances are safe to share across
    workers.  A series is built over its context: `RingContext.from_terms`
    is the one constructor that validates, and ``var``, ``one``,
    ``constant`` and ``lazard`` build the generators; `from_text` reads
    the text form back.

    >>> ctx = RingContext(2, "rational", 4, 0)
    >>> t1, t2 = ctx.var(0), ctx.var(1)
    >>> ((t1 + t2) * (t1 - t2)).to_text()
    '1 * t1^2 + -1 * t2^2'
    """

    # _graded: the terms bucketed by weight, built on first use as a right factor
    __slots__ = ("ctx", "_terms", "_den", "_graded", "_hash")

    def __init__(self, *args, **kwargs):
        raise TypeError("build a series with RingContext.from_terms, its var, one, "
                        "constant or lazard, or TruncatedSeries.from_text")

    @classmethod
    def _raw(cls, ctx: RingContext, terms: dict, den: int) -> "TruncatedSeries":
        # internal: (terms, den) is already canonical and inside the caps
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj._terms = terms
        obj._den = den
        obj._graded = None
        obj._hash = None
        return obj

    # -- inspection ----------------------------------------------------------

    def iter_terms(self) -> Iterator[tuple]:
        """``(Monomial, Fraction)`` pairs in no particular order."""
        decode, den = self.ctx._layout.decode, self._den
        for key, num in self._terms.items():
            yield decode(key), Fraction(num, den)

    def items(self) -> list:
        """Term list in the canonical order."""
        return sorted(self.iter_terms(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, mono: Monomial) -> Fraction:
        key = self.ctx._layout.key_of(mono)
        return Fraction(self._terms.get(key, 0), self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def has_t_constant_term(self) -> bool:
        """True if some term has t-order 0 (possibly with a generator part)."""
        return self.min_t_order() == 0

    def min_t_order(self) -> Optional[int]:
        if not self._terms:
            return None
        return min(self._terms) >> self.ctx._layout.t_shift

    def t_slice(self, k: int) -> "TruncatedSeries":
        """The part of the series with t-order exactly k."""
        shift = self.ctx._layout.t_shift
        return _reduced(
            self.ctx, {m: c for m, c in self._terms.items() if m >> shift == k}, self._den
        )

    def support_vars(self) -> set:
        layout = self.ctx._layout
        seen = 0
        for key in self._terms:
            seen |= key
        return {
            j for j, shift in enumerate(layout.var_shifts) if (seen >> shift) & layout.mask
        }

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx, self._den, frozenset(self._terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"TruncatedSeries({self.to_text()})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return series_add(self, _coerce(self.ctx, other))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._raw(
            self.ctx, {m: -c for m, c in self._terms.items()}, self._den
        )

    def __sub__(self, other):
        return self + (-_coerce(self.ctx, other))

    def __rsub__(self, other):
        return _coerce(self.ctx, other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return series_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "TruncatedSeries":
        c = _exact(c)
        if c == 0:
            return self.ctx.zero()
        num = c.numerator
        return _reduced(
            self.ctx,
            {m: v * num for m, v in self._terms.items()},
            self._den * c.denominator,
        )

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. ``1/2 * m1^2*t1 + -1 * t2^3``."""
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.items():
            factors = []
            for i, e in mono.laz:
                name = "b" if self.ctx.coeff_kind == "multiplicative-beta" else f"m{i}"
                factors.append(name if e == 1 else f"{name}^{e}")
            for j, e in enumerate(mono.t):
                if e:
                    factors.append(f"t{j + 1}" if e == 1 else f"t{j + 1}^{e}")
            if factors:
                parts.append(f"{coeff} * " + "*".join(factors))
            else:
                parts.append(str(coeff))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, ctx: RingContext, text: str) -> "TruncatedSeries":
        text = text.strip()
        if text == "0":
            return ctx.zero()
        # the one generator name `to_text` writes for the kind: b, m<i>, or none
        generator = {"multiplicative-beta": "b", "universal-rational": "m"}.get(ctx.coeff_kind)
        terms = {}
        for chunk in text.split(" + "):
            if " * " in chunk:
                coeff_str, body = chunk.split(" * ", 1)
                factors = body.split("*")
            else:
                coeff_str, factors = chunk, []
            coeff = _parse_coeff(coeff_str)
            t = [0] * ctx.n_vars
            laz = {}
            for factor in factors:
                m = re.fullmatch(r"(b|m(\d+)|t(\d+))(?:\^(\d+))?", factor)
                if m is None:
                    raise ValueError(f"cannot parse factor {factor!r}")
                if m.group(3) is None and factor[0] != generator:
                    raise ValueError(f"factor {factor!r} names no {ctx.coeff_kind} generator")
                exp = int(m.group(4)) if m.group(4) else 1
                if m.group(1) == "b":
                    laz[1] = laz.get(1, 0) + exp
                elif m.group(2) is not None:
                    i = int(m.group(2))
                    laz[i] = laz.get(i, 0) + exp
                else:
                    j = int(m.group(3)) - 1
                    if not 0 <= j < ctx.n_vars:
                        raise ValueError(f"variable t{j + 1} out of range")
                    t[j] += exp
            mono = Monomial(tuple(t), tuple(sorted(laz.items())))
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return ctx.from_terms(terms)


def _parse_coeff(value) -> Fraction:
    """``Fraction(value)``, with a zero denominator reported as ValueError."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficient {value!r}") from None


def sparse_coordinates(
    series: Iterable[TruncatedSeries], basis: Sequence[Monomial], strict: bool = False
) -> list:
    """One ``(nums, den)`` per series, all over one context: its coefficient
    on ``basis[i]`` is ``nums.get(i, 0) / den``, with ``nums`` the nonzero
    integer numerators.  The basis holds distinct monomials, and is encoded
    once per call.

    Terms on monomials outside ``basis`` are ignored, unless ``strict``
    is set: then they raise ValueError.
    """
    series = list(series)
    if not series:
        return []
    # key -> its position in the basis; no series holds a None key
    positions = {series[0].ctx._layout.key_of(mono): i for i, mono in enumerate(basis)}
    out = []
    for s in series:
        _require_same_ctx(series[0], s)
        nums = {i: num for key, num in s._terms.items() if (i := positions.get(key)) is not None}
        if strict and len(nums) != len(s._terms):
            raise ValueError("series has terms outside the basis")
        out.append((nums, s._den))
    return out


def reduced_basis(series: Iterable[TruncatedSeries], max_t_order: int) -> list:
    """The unique reduced echelon basis of the span of ``series``, all over
    one context, with their terms of t-order above ``max_t_order`` dropped:
    the columns are the monomials that occur, in the order of
    `Monomial.sort_key` (of ``items()``), and each series is 1 at its pivot
    and 0 at every other, in pivot order (`linalg.echelon`)."""
    series = list(series)
    if not series:
        return []
    ctx = series[0].ctx
    # the t-order is the top field of a key
    limit = (max_t_order + 1) << ctx._layout.t_shift
    keys: set = set()
    for s in series:
        _require_same_ctx(series[0], s)
        keys.update(key for key in s._terms if key < limit)
    decode = ctx._layout.decode
    columns = sorted(keys, key=lambda key: decode(key).sort_key())
    position = {key: j for j, key in enumerate(columns)}
    red = linalg.echelon(
        {position[key]: num for key, num in s._terms.items() if key < limit} for s in series
    )
    return [
        _reduced(ctx, {columns[j]: x for j, x in red[c].items()}, red[c][c]) for c in sorted(red)
    ]


def variable_slices(s: TruncatedSeries, j: int) -> list:
    """``[c_0, ..., c_top]`` with s = sum_e c_e * t_{j+1}^e, every c_e over
    ``s.ctx`` and free of t_{j+1}, zero at an exponent that does not occur;
    ``top`` is the highest exponent of t_{j+1} in ``s``, and the zero series
    gives ``[]``.

    >>> ctx = RingContext(2, "rational", 3, 0)
    >>> [c.to_text() for c in variable_slices(TruncatedSeries.from_text(ctx, "1 * t1 + 1 * t2^2"), 1)]
    ['1 * t1', '0', '1']
    """
    layout = s.ctx._layout
    shift, t_shift, mask = layout.var_shifts[j], layout.t_shift, layout.mask
    parts: dict = {}
    for key, num in s._terms.items():
        e = (key >> shift) & mask
        parts.setdefault(e, {})[key - (e << shift) - (e << t_shift)] = num
    return [_reduced(s.ctx, parts.get(e, {}), s._den) for e in range(max(parts, default=-1) + 1)]


def variable_slice(s: TruncatedSeries, j: int, e: int) -> TruncatedSeries:
    """``c_e`` of `variable_slices`, over ``s.ctx``: the terms of ``s`` with
    t_{j+1}^e, divided by it; at e = 0, ``s`` at t_{j+1} = 0.

    >>> ctx = RingContext(2, "rational", 3, 0)
    >>> variable_slice(TruncatedSeries.from_text(ctx, "1 * t2 + 1 * t1*t2"), 1, 1).to_text()
    '1 + 1 * t1'
    """
    layout = s.ctx._layout
    shift, mask = layout.var_shifts[j], layout.mask
    drop = (e << shift) + (e << layout.t_shift)
    terms = {key - drop: num for key, num in s._terms.items() if (key >> shift) & mask == e}
    return _reduced(s.ctx, terms, s._den)


def derivative(s: TruncatedSeries, j: int) -> TruncatedSeries:
    """The partial derivative of ``s`` in t_{j+1}: c * t_{j+1}^e * r goes to
    e * c * t_{j+1}^(e - 1) * r, and the terms free of t_{j+1} vanish.  The
    result has no term of t-order ``max_t_order``.

    >>> ctx = RingContext(2, "multiplicative-beta", 3, 2)
    >>> derivative(TruncatedSeries.from_text(ctx, "1 * t1 + 1 * t2 + -1 * b*t1^2*t2"), 0).to_text()
    '1 + -2 * b*t1*t2'
    """
    layout = s.ctx._layout
    shift, mask = layout.var_shifts[j], layout.mask
    # one less t-order and one less t_{j+1}: neither field borrows
    step = (1 << layout.t_shift) + (1 << shift)
    terms = {}
    for key, num in s._terms.items():
        e = (key >> shift) & mask
        if e:
            terms[key - step] = num * e
    return _reduced(s.ctx, terms, s._den)


def compositional_inverse(f: TruncatedSeries) -> TruncatedSeries:
    """g with f(g(x)) = x inside the window, for f = x + higher order.

    Solved order by order, one pass per order.  The order-v slice of g
    depends only on the orders <= v of f and g, so pass v composes f(g) in
    a window of f's kind and weight cap with t-order cap v
    (`RingContext.window`, which raises the cap where a narrower one would
    change the packed field width) and subtracts the order-v slice from g.
    Every window keeps the field width of f's context, so g's keys are
    keys of each window: g moves up from window to window, and into f's
    context at the end, as a copy of its terms.

    When every term of f has degree (t-order minus weight) 1, as every log
    of `fgl` does, so does g: its order-v slice has weight v - 1, and
    the passes stop at order max_weight + 1.  No pass checks f(g) = x in
    the whole window; for a law, the unit axiom F(x, 0) = exp(log x) = x
    that `fgl.verify_fgl_axioms` checks is that check.

    >>> ctx = RingContext(1, "multiplicative-beta", 3, 2)
    >>> log = TruncatedSeries.from_text(ctx, "1 * t1 + 1/2 * b*t1^2 + 1/3 * b^2*t1^3")
    >>> compositional_inverse(log).to_text()
    '1 * t1 + -1/2 * b*t1^2 + 1/6 * b^2*t1^3'
    """
    ctx = f.ctx
    if ctx.n_vars != 1:
        raise ValueError("compositional inverse needs a one-variable series")
    x = ctx.var(0)
    if f.t_slice(1) != x or f.has_t_constant_term():
        raise ValueError("series must start with x")
    if f == x:
        return x
    last = ctx.max_t_order
    if all(m.t_order() - m.weight() == 1 for m, _ in f.iter_terms()):
        last = min(last, ctx.max_weight + 1)
    # pass 2 composes f(x) = f; f_v is f through order v, the part pass v reads
    f_2 = f.t_slice(2)
    f_v, g = x + f_2, x - f_2
    for v in range(3, last + 1):
        window = ctx.window(v)
        f_v = f_v + f.t_slice(v)
        g = TruncatedSeries._raw(window, g._terms, g._den)
        # g is right below order v, where f(g) = x
        g = g - substitute(f_v, {0: g}, target=window).t_slice(v)
    return TruncatedSeries._raw(ctx, g._terms, g._den)


def _reduced(ctx: RingContext, terms: dict, den: int) -> TruncatedSeries:
    """The canonical series of nonzero numerators ``terms`` over ``den`` >= 1."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {m: c // g for m, c in terms.items()}
    return TruncatedSeries._raw(ctx, terms, den)


def _rescaled(acc: dict, den: int, other_den: int) -> tuple:
    """``(common, factor)``: rescale the numerators ``acc`` over ``den`` in place
    to ``common``, the lcm of ``den`` and ``other_den``; ``factor`` lifts a
    numerator over ``other_den`` to ``common``."""
    if other_den == den:
        return den, 1
    common = lcm(den, other_den)
    if common != den:
        up = common // den
        for m in acc:
            acc[m] *= up
    return common, common // other_den


def add_into(acc: dict, den: int, s: TruncatedSeries) -> int:
    """Add ``s`` into the numerators ``acc`` over ``den``, in place.

    ``acc`` holds keys of ``s.ctx``.  Returns the new common denominator;
    sums that cancel are removed.
    """
    den, factor = _rescaled(acc, den, s._den)
    get = acc.get
    for m, c in s._terms.items():
        v = get(m, 0) + c * factor
        if v:
            acc[m] = v
        else:
            del acc[m]
    return den


def mul_into(acc: dict, den: int, a: TruncatedSeries, b: TruncatedSeries) -> int:
    """Add the truncated product ``a * b`` into the numerators ``acc`` over
    ``den``, in place; the one product kernel (module docstring).

    ``acc`` holds keys of the context of ``a`` and ``b``; when ``a is b``
    the product is a square and runs the squaring pass.  Returns the new
    common denominator.  Nothing is canonicalized: sums that cancel stay
    in ``acc`` as zeros, and the numerators may share a factor with the
    denominator; `collect` makes the series.
    """
    _require_same_ctx(a, b)
    if not a._terms or not b._terms:
        return den
    if len(a._terms) > len(b._terms):
        a, b = b, a
    den, factor = _rescaled(acc, den, a._den * b._den)
    if a is b:
        _square_into(acc, factor, a)
    else:
        _pairs_into(acc, a._terms.items(), factor, b)
    return den


def _pairs_into(acc: dict, left: Iterable[tuple], factor: int, b: TruncatedSeries) -> None:
    """The pair loop of `mul_into`: add ``factor * ca * cb`` at ``ka + kb``
    into ``acc`` for every left ``(ka, ca)`` and term ``(kb, cb)`` of ``b``
    whose product lies inside the caps.  Every left key lies inside the
    caps of ``b.ctx``."""
    buckets = b._graded
    if buckets is None:
        buckets = b._graded = _weight_buckets(b)
    layout = b.ctx._layout
    t_limit, w_shift, mask, max_w = layout.t_limit, layout.w_shift, layout.mask, layout.max_w
    get = acc.get
    for ka, ca in left:
        ca *= factor
        budget = max_w - ((ka >> w_shift) & mask)
        for w, terms in buckets:
            if w > budget:
                break
            for kb, cb in terms:
                p = ka + kb
                if p >= t_limit:
                    break
                acc[p] = get(p, 0) + ca * cb


def _square_into(acc: dict, factor: int, a: TruncatedSeries) -> None:
    """The pair loop of `mul_into` for ``a * a``: add ``factor * ca * cb`` at
    ``ka + kb`` into ``acc`` once for every unordered pair of terms of ``a``
    inside the caps, doubled off the diagonal.  A term pairs with itself,
    with the terms after it in its weight bucket and with the heavier
    buckets, in the buckets' order."""
    buckets = a._graded
    if buckets is None:
        buckets = a._graded = _weight_buckets(a)
    layout = a.ctx._layout
    t_limit, max_w = layout.t_limit, layout.max_w
    get = acc.get
    for i, (w, terms) in enumerate(buckets):
        budget = max_w - w
        if w > budget:
            break  # every later term is at least as heavy
        heavier = buckets[i + 1:]
        for n, (ka, ca) in enumerate(terms):
            cf = ca * factor
            twice = 2 * cf
            p = ka + ka
            # the later keys of this bucket are larger, so when the square is
            # over the t-order cap, so is every pair left in the bucket; a
            # heavier bucket can still hold a key of lower t-order
            if p < t_limit:
                acc[p] = get(p, 0) + cf * ca
                for kb, cb in islice(terms, n + 1, None):
                    p = ka + kb
                    if p >= t_limit:
                        break
                    acc[p] = get(p, 0) + twice * cb
            for wb, later in heavier:
                if wb > budget:
                    break
                for kb, cb in later:
                    p = ka + kb
                    if p >= t_limit:
                        break
                    acc[p] = get(p, 0) + twice * cb


def _weight_buckets(s: TruncatedSeries) -> list:
    """``[(w, terms)]``: the terms of ``s`` by weight, only the weights that
    occur, ascending, each bucket's ``(key, numerator)`` pairs sorted by key."""
    layout = s.ctx._layout
    w_shift, mask = layout.w_shift, layout.mask
    nums = s._terms
    buckets: dict = {}
    for key in sorted(nums):
        buckets.setdefault((key >> w_shift) & mask, []).append((key, nums[key]))
    return sorted(buckets.items())


def collect(ctx: RingContext, acc: dict, den: int) -> TruncatedSeries:
    """The series of the numerators ``acc`` over ``den`` >= 1 that `mul_into`
    and `add_into` left, in canonical form: zeros dropped, common factor
    divided out."""
    return _reduced(ctx, {m: c for m, c in acc.items() if c}, den)


def _coerce(ctx: RingContext, value) -> TruncatedSeries:
    if isinstance(value, TruncatedSeries):
        return value
    if isinstance(value, (int, Fraction)):
        return ctx.constant(value)
    raise TypeError(f"cannot coerce {value!r} into a series")


def _require_same_ctx(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ContextMismatch(f"contexts differ: {a.ctx} vs {b.ctx}")


# -- ring operations ------------------------------------------------------------


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Termwise sum; zero terms are dropped."""
    _require_same_ctx(a, b)
    if not a._terms:
        return b
    if not b._terms:
        return a
    out = dict(a._terms)
    den = add_into(out, a._den, b)
    return _reduced(a.ctx, out, den)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Distributive product with post-hoc truncation.

    Any product monomial whose t-order or weight exceeds the caps is
    discarded.  Commutative: the diagonal grading is even, so no sign
    twist applies.
    """
    acc: dict = {}
    den = mul_into(acc, 1, a, b)
    return collect(a.ctx, acc, den)


class RingMap:
    """The ring map from series over ``source`` into ``target`` given by the images of variables.

    ``images[j]`` is the image of ``t_{j+1}``; unassigned variables map to
    the variable of the same index in the target.  Every image must lie in
    the augmentation ideal (no term of t-order 0), so composition is well
    defined under truncation, and all images must share the target context,
    whose coefficient kind is that of ``source``.  These checks run once,
    when the map is built.  A call checks what depends on its series: that
    it lives over ``source`` and, when the map retargets into another
    context, that every variable occurring in it is assigned.

    The powers of the images are multiplied out on first use and kept, so
    mapping many series through one map builds each power once.  An even
    power p^e is the square (p^(e/2))^2, which forms each pair of terms
    once; an odd one is p^(e-1) * p.  A term
    is never made a series: it stays a packed key of the target with a
    numerator and a denominator.  A power with one term (of a variable,
    assigned or not, or of an image such as ``1/3 * m2*t1^2``) folds in
    as one key addition and one coefficient product, and the term is
    dropped as soon as its key passes the t-order or weight cap.  The
    powers with more terms are taken in the order of their image sizes,
    smallest first, fixed when the map is built.  The last one is the
    right operand of the pair loop of `mul_into`, run once for the term
    straight into the result, so its weight buckets stay cached with the
    power.  Only a term with two or more such powers first multiplies
    the others in with `series_mul`.  The sum is canonicalized once.  The
    order changes no value: the truncated ring is commutative and
    associative.

    A map whose images are all 0 or variables ``+-t_k`` of the target
    (unassigned variables included) relabels instead, when the two layouts
    agree on the generator fields (count and width).  Each term then goes
    to one term: its t-order, weight and generator bits are copied, and
    each t_j exponent is added at the field of the image of t_j.  A term
    with a variable sent to 0 is dropped, a term with an odd total exponent
    on the variables sent to negated ones changes sign, terms beyond the
    target's caps are dropped, and terms that land on one key are summed.
    No product is formed and no power is kept.

    >>> ctx = RingContext(2, "rational", 4, 0)
    >>> t1, t2 = ctx.var(0), ctx.var(1)
    >>> swap = RingMap(ctx, {0: t2, 1: t1})
    >>> swap(t1 * t1 + t2).to_text()
    '1 * t1 + 1 * t2^2'
    """

    __slots__ = (
        "source", "target", "_images", "_powers", "_retarget", "_same_gens", "_var_order",
        "_moves",
    )

    def __init__(
        self,
        source: RingContext,
        images: Mapping[int, TruncatedSeries],
        target: Optional[RingContext] = None,
    ):
        images = {int(j): v for j, v in images.items()}
        for j in images:
            if not 0 <= j < source.n_vars:
                raise ValueError(f"assigned variable index {j} out of range")
        values = list(images.values())
        if target is None:
            target = values[0].ctx if values else source
        if target.coeff_kind != source.coeff_kind:
            raise ContextMismatch("substitution cannot change the coefficient kind")
        for v in values:
            if v.ctx != target:
                raise ContextMismatch("assigned series live in different contexts")
            if v.has_t_constant_term():
                raise SubstitutionError(
                    "assigned series must have zero constant term in the degree-1 variables"
                )
        self.source, self.target, self._images = source, target, images
        self._powers = {}
        self._retarget = target != source
        src, dst = source._layout, target._layout
        # the generator part of a key moves over as a bit copy when both layouts
        # agree on the generator fields (count and width), which holds whenever
        # the caps agree; only retargeting across caps decodes and re-encodes
        self._same_gens = src.n_gens == dst.n_gens and src.mask == dst.mask
        # the factor order of every term, smallest image first (class docstring)
        size = {j: len(v._terms) for j, v in images.items()}
        order = sorted(range(source.n_vars), key=lambda j: size.get(j, 1))
        self._var_order = tuple((j, src.var_shifts[j]) for j in order)
        self._moves = self._relabel_moves() if self._same_gens else None

    def _relabel_moves(self) -> Optional[tuple]:
        """``(source shift, target shift or None, negated)`` per source
        variable when every image is 0 or +-t_k of the target (None marks a
        zero image), else None.  An unassigned variable maps to itself; when
        the map retargets, a call refuses a series in which it occurs."""
        src, dst = self.source._layout, self.target._layout
        one = 1 << dst.t_shift
        var_of = {one + (1 << shift): shift for shift in dst.var_shifts}
        moves = []
        for j, src_shift in enumerate(src.var_shifts):
            image = self._images.get(j)
            if image is None:
                dst_shift = dst.var_shifts[j] if j < dst.n_vars else None
                moves.append((src_shift, dst_shift, False))
                continue
            if not image._terms:
                moves.append((src_shift, None, False))
                continue
            if len(image._terms) != 1 or image._den != 1:
                return None
            (key, num), = image._terms.items()
            if key not in var_of or num not in (1, -1):
                return None
            moves.append((src_shift, var_of[key], num < 0))
        return tuple(moves)

    def _relabel(self, s: TruncatedSeries) -> TruncatedSeries:
        """The map applied to ``s`` when every image is 0 or +-t_k: each term
        moves its key fields (class docstring)."""
        src, dst = self.source._layout, self.target._layout
        mask, t_shift, w_shift, gen_mask = src.mask, src.t_shift, src.w_shift, src.gen_mask
        dst_t_shift, dst_w_shift, max_t, max_w = dst.t_shift, dst.w_shift, dst.max_t, dst.max_w
        moves = self._moves
        acc: dict = {}
        get = acc.get
        for key, num in s._terms.items():
            # t-order is the top field, and every surviving term keeps it
            t, w = key >> t_shift, (key >> w_shift) & mask
            if t > max_t or w > max_w:
                continue
            new = (t << dst_t_shift) | (w << dst_w_shift) | (key & gen_mask)
            for src_shift, dst_shift, negated in moves:
                e = (key >> src_shift) & mask
                if e:
                    if dst_shift is None:
                        break
                    new += e << dst_shift
                    if negated and e & 1:
                        num = -num
            else:  # no variable of the term maps to zero
                acc[new] = get(new, 0) + num
        return collect(self.target, acc, s._den)

    def _power(self, j: int, e: int) -> TruncatedSeries:
        key = (j, e)
        cached = self._powers.get(key)
        if cached is not None:
            return cached
        if e == 1:
            result = self._images.get(j)
            if result is None:
                result = self.target.var(j)
        elif e & 1:
            result = series_mul(self._power(j, e - 1), self._power(j, 1))
        else:
            half = self._power(j, e // 2)
            result = series_mul(half, half)
        self._powers[key] = result
        return result

    def __call__(self, s: TruncatedSeries) -> TruncatedSeries:
        source, target = self.source, self.target
        if s.ctx is not source and s.ctx != source:
            raise ContextMismatch("series does not live over the source context of the map")
        if self._retarget:
            missing = s.support_vars() - self._images.keys()
            if missing:
                raise SubstitutionError(
                    f"retargeting substitution must assign all variables; missing {sorted(missing)}"
                )
        if self._moves is not None:
            return self._relabel(s)
        src, dst = source._layout, target._layout
        mask, w_shift, max_w, s_den = src.mask, src.w_shift, dst.max_w, s._den
        same_gens, gen_mask = self._same_gens, src.gen_mask
        dst_mask, dst_w_shift, t_limit = dst.mask, dst.w_shift, dst.t_limit
        power, var_order = self._power, self._var_order
        zero_t = (0,) * target.n_vars
        acc: dict = {}
        acc_den = 1
        get = acc.get
        for src_key, num in s._terms.items():
            w = (src_key >> w_shift) & mask
            if w > max_w:
                continue
            if same_gens:
                key = (w << dst_w_shift) | (src_key & gen_mask)
            else:
                key = dst.encode(Monomial(zero_t, src.decode(src_key).laz))
            # one-term powers fold into (key, num, den); the last power with
            # more terms goes to the pair loop, any earlier one into `middle`
            den, last, middle = s_den, None, ()
            for j, shift in var_order:
                e = (src_key >> shift) & mask
                if not e:
                    continue
                p = power(j, e)
                terms = p._terms
                if len(terms) == 1:
                    (k, c), = terms.items()
                    key += k
                    if key >= t_limit or (key >> dst_w_shift) & dst_mask > max_w:
                        break
                    num *= c
                    den *= p._den
                elif not terms:
                    break
                else:
                    if last is not None:
                        middle += (last,)
                    last = p
            else:  # the term did not vanish
                g = gcd(num, den)
                if g != 1:
                    num //= g
                    den //= g
                if last is None:
                    acc_den, factor = _rescaled(acc, acc_den, den)
                    acc[key] = get(key, 0) + num * factor
                    continue
                left = ((key, num),)
                if middle:
                    term = TruncatedSeries._raw(target, {key: num}, den)
                    for p in middle:
                        term = series_mul(term, p)
                    left, den = term._terms.items(), term._den
                acc_den, factor = _rescaled(acc, acc_den, den * last._den)
                _pairs_into(acc, left, factor, last)
        return collect(target, acc, acc_den)


def substitute(
    s: TruncatedSeries,
    assignment: Mapping[int, TruncatedSeries],
    target: Optional[RingContext] = None,
) -> TruncatedSeries:
    """Simultaneous substitution t_j -> assignment[j], truncated: ``RingMap`` applied once.

    The assignment is checked as `RingMap` checks its images, with
    ``s.ctx`` as the source; when the target differs from ``s.ctx``
    (retargeting into another ring), every variable occurring in ``s``
    must be assigned.  Unassigned variables map to themselves.

    >>> ctx = RingContext(2, "rational", 4, 0)
    >>> t1, t2 = ctx.var(0), ctx.var(1)
    >>> substitute(t1 * t1, {0: t1 + t2}).to_text()
    '1 * t1^2 + 2 * t1*t2 + 1 * t2^2'
    """
    return RingMap(s.ctx, assignment, target)(s)


def window_orders(ctx: RingContext, degree: int, k_max: int) -> range:
    """The t-orders k <= k_max with 0 <= k - degree <= the weight cap.  Refuses
    a degree or k_max that is not an int (bools too) or a k_max over the cap.

    >>> window_orders(RingContext(1, "universal-rational", 6, 2), -1, 4)
    range(0, 2)
    >>> window_orders(RingContext(2, "rational", 6, 0), 3, 5)
    range(3, 4)
    """
    if type(degree) is not int:
        raise ValueError(f"degree must be int, got {type(degree).__name__}")
    if type(k_max) is not int:
        raise ValueError(f"t-order window must be int, got {type(k_max).__name__}")
    if k_max > ctx.max_t_order:
        raise ValueError(f"t-order window {k_max} exceeds the context cap {ctx.max_t_order}")
    return range(max(degree, 0), min(k_max, degree + ctx.max_weight) + 1)


def bidegree_basis(ctx: RingContext, degree: int, t_order: int) -> list:
    """All monomials with the given t-order and diagonal degree.

    The generator weight is forced to ``t_order - degree``; the result is
    empty when that is negative or exceeds the weight cap.  Deterministic
    graded-lex order.
    """
    if not 0 <= t_order <= ctx.max_t_order:
        raise ValueError(f"t-order {t_order} outside [0, {ctx.max_t_order}]")
    if t_order not in window_orders(ctx, degree, t_order):
        return []
    # already in `Monomial.sort_key` order: every monomial has this t-order
    # and weight, `compositions` yields the t-vectors t1-heavy first and
    # `lazard_monomials` lists the generator parts sorted
    lazs = lazard_monomials(ctx.coeff_kind, t_order - degree)
    return [Monomial(t, laz) for t in compositions(t_order, ctx.n_vars) for laz in lazs]


def window_basis(ctx: RingContext, degree: int, k_max: int) -> list:
    """Monomials of the given diagonal degree with t-order <= k_max, in
    `Monomial.sort_key` order: the t-order leads the key."""
    return [m for k in window_orders(ctx, degree, k_max) for m in bidegree_basis(ctx, degree, k)]


def graded_counts(degrees: Sequence[int], top: int) -> list:
    """``[q^k] prod_i 1/(1 - q^d_i)`` for k = 0..top: the monomials of
    t-order k in generators of t-orders ``degrees``.

    >>> graded_counts((1, 2, 3), 6)
    [1, 1, 2, 3, 4, 5, 7]
    """
    counts = [1] + [0] * top
    for d in degrees:
        for k in range(d, top + 1):
            counts[k] += counts[k - d]
    return counts


@lru_cache(maxsize=None)
def lazard_monomials(kind: str, weight: int) -> tuple:
    """Generator monomials of the given weight, as canonical ``laz`` tuples,
    sorted; empty below weight 0.  The one listing: a tuple, cached per
    kind and weight, that every caller reads."""
    if weight < 0 or (weight and kind == "rational"):
        return ()
    if weight == 0:
        return ((),)
    if kind == "multiplicative-beta":
        return (((1, weight),),)
    return tuple(sorted(tuple(sorted(Counter(part).items())) for part in partitions(weight)))


# _PARTITIONS[n] is the number of partitions of n, filled up to the largest n asked for
_PARTITIONS = [1]


def lazard_count(kind: str, weight: int) -> int:
    """``len(lazard_monomials(kind, weight))``, counted without listing them."""
    if weight < 0 or (weight and kind == "rational"):
        return 0
    if weight == 0 or kind == "multiplicative-beta":
        return 1
    # one monomial per partition of the weight, by Euler's pentagonal number
    # recurrence p(m) = sum over k >= 1 of (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2))
    table = _PARTITIONS
    for m in range(len(table), weight + 1):
        total, k = 0, 1
        while (first := m - k * (3 * k - 1) // 2) >= 0:
            part = table[first] + (table[first - k] if first >= k else 0)
            total += part if k & 1 else -part
            k += 1
        table.append(total)
    return table[weight]


def partitions(n: int, max_part: Optional[int] = None):
    """Integer partitions of n as descending tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def compositions(total: int, parts: int):
    """Exponent vectors of length ``parts`` summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest
