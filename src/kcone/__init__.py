"""Exact-integer computation of geometric bases for equivariant K-theory of
nilpotent cones, and associated cycles of virtual modules, for complex
reductive groups given by Cartan type."""

from .assocvar import (
    AssociatedCycle,
    BoundTooSmallError,
    InternalConsistencyError,
    VirtualModule,
    associated_cycle,
    express_in_geometric_basis,
    module_to_kclass,
)
from .ktheory import (
    KClass,
    SubsetCapExceededError,
    gamma_class,
    kclass_add,
    kclass_from_terms,
    kclass_scale,
    pushforward,
    pushforward_kernel,
    skyscraper_class,
)
from .nilpotent import (
    ClosurePoset,
    GradingData,
    NilpotentOrbit,
    OrbitTableUnavailableError,
    classify_orbits,
    closure_poset,
    grading_data,
)
from .orbitalg import (
    GeometricBasis,
    GeometricBasisVector,
    full_basis,
    norm_constant,
)
from .repcalc import (
    restrict_gamma_class,
    restrict_kclass,
    weight_multiplicity,
    weyl_dim,
)
from .rootdata import (
    RootDatum,
    UnknownTypeError,
    Weight,
    build_root_datum,
    dominant_conjugate,
    enumerate_dominant,
    enumerate_levi_dominant,
    is_dominant,
    weight_add,
    weight_form,
    weight_norm_sq,
    weight_sub,
)

__version__ = "0.1.0"

__all__ = [
    "AssociatedCycle",
    "BoundTooSmallError",
    "ClosurePoset",
    "GeometricBasis",
    "GeometricBasisVector",
    "GradingData",
    "InternalConsistencyError",
    "KClass",
    "NilpotentOrbit",
    "OrbitTableUnavailableError",
    "RootDatum",
    "SubsetCapExceededError",
    "UnknownTypeError",
    "VirtualModule",
    "Weight",
    "associated_cycle",
    "build_root_datum",
    "classify_orbits",
    "closure_poset",
    "dominant_conjugate",
    "enumerate_dominant",
    "enumerate_levi_dominant",
    "express_in_geometric_basis",
    "full_basis",
    "gamma_class",
    "grading_data",
    "is_dominant",
    "kclass_add",
    "kclass_from_terms",
    "kclass_scale",
    "module_to_kclass",
    "norm_constant",
    "pushforward",
    "pushforward_kernel",
    "restrict_gamma_class",
    "restrict_kclass",
    "skyscraper_class",
    "weight_add",
    "weight_form",
    "weight_multiplicity",
    "weight_norm_sq",
    "weight_sub",
    "weyl_dim",
]
