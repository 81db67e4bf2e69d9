"""cobcalc: exact computation in oriented cohomology coefficient rings.

Truncated rational series in torus variables and negative-degree
coefficient generators; formal group laws (additive, multiplicative,
universal-rational); Weyl-invariant subrings of classifying spaces;
Chern/Thom/Gysin calculus on projective bundles; inverse-limit
diagnostics for towers of finite approximations.
"""

from .series import (
    ContextMismatch,
    Monomial,
    RingContext,
    RingMap,
    SubstitutionError,
    TruncatedSeries,
    bidegree_basis,
    series_add,
    series_mul,
    sparse_coordinates,
    substitute,
)
from .fgl import (
    FglConstructionError,
    FormalGroupLaw,
    additive_shadow,
    build_fgl,
    fgl_inverse,
    fgl_sum,
    n_series,
    ring_context,
    verify_fgl_axioms,
)
from .equivariant import (
    EnumerationCapExceeded,
    GroupPreset,
    WeylGroupSpec,
    bg_dimensions,
    character_class,
    invariant_basis,
    preset,
    weyl_apply,
    weyl_map,
)
from .bundles import (
    ProjBundleElement,
    ProjBundleRing,
    SplitBundle,
    flag_restriction,
    pb_mul,
    projective_completion_ring,
    thom_class,
    zero_section_pushforward,
    zero_section_restriction,
)
from .towers import (
    TowerSlice,
    WindowNotStabilized,
    inverse_limit_dims,
    projective_space_tower,
    stabilization_index,
)

__version__ = "0.1.0"

__all__ = [
    "ContextMismatch",
    "EnumerationCapExceeded",
    "FglConstructionError",
    "FormalGroupLaw",
    "GroupPreset",
    "Monomial",
    "ProjBundleElement",
    "ProjBundleRing",
    "RingContext",
    "RingMap",
    "SplitBundle",
    "SubstitutionError",
    "TowerSlice",
    "TruncatedSeries",
    "WeylGroupSpec",
    "WindowNotStabilized",
    "additive_shadow",
    "bg_dimensions",
    "bidegree_basis",
    "build_fgl",
    "character_class",
    "fgl_inverse",
    "fgl_sum",
    "flag_restriction",
    "invariant_basis",
    "inverse_limit_dims",
    "n_series",
    "pb_mul",
    "preset",
    "projective_completion_ring",
    "projective_space_tower",
    "ring_context",
    "series_add",
    "series_mul",
    "sparse_coordinates",
    "stabilization_index",
    "substitute",
    "thom_class",
    "verify_fgl_axioms",
    "weyl_apply",
    "weyl_map",
    "zero_section_pushforward",
    "zero_section_restriction",
]
