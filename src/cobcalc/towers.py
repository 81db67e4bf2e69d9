"""Finite-window inverse-limit diagnostics for towers of Q-vector spaces.

A tower holds, per diagonal degree, a window of finite-dimensional
spaces V_0 <- V_1 <- ... <- V_k with exact transition maps
M_i: V_{i+1} -> V_i.  The stabilization index is the smallest uniform
offset s such that, at every level i of the window, the chain of images
im(V_{i+s'} -> V_i) is constant for s' >= s; the engine reports
not-found instead of extrapolating when the window never witnesses the
constancy.  For windows of finite-dimensional spaces the images
stabilize once the window exceeds the longest strictly-decreasing chain
of subspaces, so the search terminates (find or refuse, never loop).
As every per-degree space is finite dimensional, the eventual-image
condition holds and the derived-limit correction term vanishes; only the
limit dimension is computed, from the plateau of the stable images.

A prefix slice (``maps=None``) is counted, not eliminated: map i is the
canonical projection of V_{i+1} onto its prefix V_i, so every map is
onto and every image im(V_{i+s} -> V_i) is all of V_i.  A tower of
surjections is Mittag-Leffler, so lim^1 vanishes; the index is 0 and the
stable images are the levels themselves.  The projective-space tower is
built this way, from dimensions alone.

A slice with explicit maps keeps each one as the elimination kernel
reads it: a list of dim V_{i+1} columns, sparse ``{row: int}`` dicts of
nonzero ints.  A nonzero scale of a map moves none of its images, so a
rational map enters with its denominators cleared.  Its images are
propagated from the top level down, never composed: im(V_{i+s} -> V_i)
is M_i applied to a basis of im(V_{i+s} -> V_{i+1}), and each image is
kept as its canonical ``linalg.echelon`` form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional

from . import linalg
from .series import RingContext, bidegree_basis, lazard_count


class WindowNotStabilized(RuntimeError):
    """The window is too short to certify stabilization; refusing to extrapolate."""


@dataclass
class TowerSlice:
    """One degree: dimensions dim V_0..dim V_k and maps[i]: V_{i+1} -> V_i, as
    ``dims[i+1]`` columns ``{row: nonzero int}``, any nonzero multiple of the map.
    ``maps=None`` makes a prefix slice: map i is the canonical projection of
    level i+1 onto its prefix, level i, so the dims must be nondecreasing."""

    dims: List[int]
    maps: Optional[List[list]] = None
    # image chains, computed on first use; a slice is not changed after construction
    _chains: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.dims) < 3:
            raise ValueError("window must contain at least three levels (length >= 2)")
        if self.maps is None:
            if self.dims[0] < 0 or any(a > b for a, b in zip(self.dims, self.dims[1:])):
                raise ValueError(
                    f"prefix slice dims {self.dims} are not nondecreasing and nonnegative")
            return
        if len(self.maps) != len(self.dims) - 1:
            raise ValueError("need exactly one transition map per step")
        for i, m in enumerate(self.maps):
            rows = range(self.dims[i])
            if not (isinstance(m, list) and len(m) == self.dims[i + 1] and all(
                    type(col) is dict
                    and all(type(r) is int and r in rows and type(x) is int and x for r, x in col.items())
                    for col in m)):
                raise ValueError(
                    f"map {i} is not {self.dims[i + 1]} integer columns over {self.dims[i]} rows")

    def map(self, i: int) -> list:
        """Map i as ``dims[i+1]`` integer columns; a prefix slice's are built here."""
        if self.maps is not None:
            return self.maps[i]
        return [{j: 1} if j < self.dims[i] else {} for j in range(self.dims[i + 1])]


@dataclass
class Tower:
    """Per-degree tower slices."""

    degrees: Dict[int, TowerSlice] = field(default_factory=dict)

    def slice(self, d: int) -> TowerSlice:
        try:
            return self.degrees[d]
        except KeyError:
            raise KeyError(f"tower has no degree {d}") from None


def _image_chains(sl: TowerSlice):
    """For each level i, canonical forms of im(V_{i+s} -> V_i), s = 0..k-i.

    Built from the top level down: im(V_{i+s} -> V_i) is M_i applied to a
    basis of im(V_{i+s} -> V_{i+1}).  Computed once per slice with explicit
    maps and shared by ``stabilization_index`` and ``inverse_limit_dims``.
    """
    if sl._chains is not None:
        return sl._chains
    chains = []
    for i in range(len(sl.dims) - 1, -1, -1):
        chain = [linalg.echelon({j: 1} for j in range(sl.dims[i]))]
        if chains:
            chain += [linalg.echelon(_apply(sl.maps[i], v) for v in im.values())
                      for im in chains[-1]]
        chains.append(chain)
    sl._chains = chains[::-1]
    return sl._chains


def _apply(columns: list, vec: dict) -> dict:
    """The matrix with these sparse integer columns times the sparse vector."""
    out: dict = {}
    for j, x in vec.items():
        for r, y in columns[j].items():
            out[r] = out.get(r, 0) + x * y
    return {r: x for r, x in out.items() if x}


def _certified_index(chains) -> Optional[int]:
    """Smallest offset from which every level's image chain is constant, or None
    when no level that forces it sees the constancy beyond a single point."""
    offsets = []
    for chain in chains:
        s = len(chain) - 1
        while s > 0 and chain[s - 1] == chain[s]:
            s -= 1
        offsets.append(s)
    k = len(chains) - 1
    candidate = max(offsets)
    witnessed = any(
        offsets[i] == candidate and k - i > candidate for i in range(k + 1)
    )
    return candidate if witnessed else None


def stabilization_index(tower: Tower, d: int) -> Optional[int]:
    """Uniform image-stabilization offset within the window, or None.

    None means the constancy was never witnessed beyond a single point
    at the levels that force the candidate offset: the images may still
    be shrinking at the window end.  A prefix slice's maps are onto, so its
    images never shrink: its index is 0.
    """
    sl = tower.slice(d)
    if sl.maps is None:
        return 0
    return _certified_index(_image_chains(sl))


def inverse_limit_dims(tower: Tower, d: int) -> int:
    """Dimension of the inverse limit read off the stabilized images.

    Requires a certified stabilization index and a witnessed plateau of
    the stable-image dimensions at the top of the window; otherwise
    raises WindowNotStabilized rather than extrapolating.
    """
    sl = tower.slice(d)
    if sl.maps is None:
        stable_dims = sl.dims  # every map is onto: each stable image is its whole level
    else:
        chains = _image_chains(sl)
        if _certified_index(chains) is None:
            raise WindowNotStabilized(f"degree {d}: images still shrinking at window end")
        # the stable image at level i is the last of its chain, im(V_k -> V_i)
        stable_dims = [len(chain[-1]) for chain in chains]
    # the top two levels below V_k must agree; V_k is its own image
    if stable_dims[-3] != stable_dims[-2]:
        raise WindowNotStabilized(
            f"degree {d}: stable image dimensions still growing at window end"
        )
    return stable_dims[-2]


def projective_space_tower(ctx: RingContext, d_max: int, i_max: int) -> Tower:
    """The tower of finite projective-space approximations of the rank-1
    classifying space: level i is the degree slice of K[xi]/(xi^(i+1)),
    transitions are the canonical surjections killing the top xi-power.
    Only the coefficient kind and the caps of ``ctx`` are read, and only
    dimensions are built: every slice is a prefix slice."""
    if d_max < 0 or i_max < 2:
        raise ValueError("need d_max >= 0 and at least three levels")
    tower = Tower()
    for d in range(0, d_max + 1):
        # level i is spanned by xi^p times the generator monomials of weight p - d, p <= i,
        # in order of p: each level is a prefix of the next, and dims are prefix sums
        tower.degrees[d] = TowerSlice(list(accumulate(
            lazard_count(ctx.coeff_kind, p - d)
            if 0 <= p - d <= ctx.max_weight and p <= ctx.max_t_order else 0
            for p in range(i_max + 1))))
    return tower


def coefficient_ring_dimension(ctx: RingContext, degree: int) -> int:
    """Dimension of the full degree slice of the rank-1 equivariant ring
    inside the caps (the tower's expected limit)."""
    return sum(
        len(bidegree_basis(ctx, degree, k)) for k in range(0, ctx.max_t_order + 1)
    )


def apply_levelwise_isomorphism(tower: Tower, transforms: Dict[int, list]) -> Tower:
    """Conjugate a tower by invertible matrices, one list per degree.

    ``transforms[d][i]``, dense rational rows, acts on level i of degree d;
    the new maps are P_i * M_i * P_{i+1}^(-1).  P_i is read as integer
    columns with its denominators cleared, P_{i+1}^(-1) as the columns that
    ``linalg.inverse`` gives for the transpose, and each new column is two
    sparse products: the map comes out a nonzero multiple of the conjugate,
    which moves no image.  Stabilization data must be unchanged, which is
    the functoriality check used by the test suites.  A missing degree, a
    wrong number of transforms, one that is not dim x dim or singular raise
    ValueError.
    """
    out = Tower()
    for d, sl in tower.degrees.items():
        ps = transforms.get(d)
        if ps is None or len(ps) != len(sl.dims):
            raise ValueError(f"degree {d}: need one transform per level")
        for i, p in enumerate(ps):
            if len(p) != sl.dims[i] or any(len(row) != sl.dims[i] for row in p):
                raise ValueError(f"degree {d}: transform {i} is not {sl.dims[i]}x{sl.dims[i]}")
        cols = [list(zip(*p)) for p in ps]
        inv = [linalg.inverse(c)[0] for c in cols]
        cols = [linalg.int_rows(c)[0] for c in cols]
        maps = [[_apply(cols[i], _apply(sl.map(i), q)) for q in inv[i + 1]]
                for i in range(len(sl.dims) - 1)]
        out.degrees[d] = TowerSlice(dims=list(sl.dims), maps=maps)
    return out
