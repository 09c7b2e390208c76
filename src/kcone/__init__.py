"""Exact-integer computation of geometric bases for equivariant K-theory of
nilpotent cones, and associated cycles of virtual modules, for complex
reductive groups given by Cartan type.

Each exported name is loaded from its home submodule on first use (PEP 562),
so `import kcone` followed by root data and orbits loads only rootdata,
linalg and nilpotent."""

__version__ = "0.1.0"

_EXPORTS = {
    "assocvar": (
        "AssociatedCycle", "BoundTooSmallError", "InternalConsistencyError", "VirtualModule",
        "associated_cycle", "express_in_geometric_basis", "module_to_kclass",
    ),
    "ktheory": (
        "KClass", "SubsetCapExceededError", "gamma_class", "kclass_add", "kclass_from_terms",
        "kclass_scale", "pushforward", "pushforward_kernel", "skyscraper_class",
    ),
    "nilpotent": (
        "ClosurePoset", "GradingData", "NilpotentOrbit", "OrbitTableUnavailableError",
        "classify_orbits", "closure_poset", "grading_data",
    ),
    "orbitalg": ("GeometricBasis", "GeometricBasisVector", "full_basis", "norm_constant"),
    "repcalc": ("restrict_gamma_class", "restrict_kclass", "weight_multiplicity", "weyl_dim"),
    "rootdata": (
        "RootDatum", "UnknownTypeError", "Weight", "build_root_datum", "dominant_conjugate",
        "enumerate_dominant", "enumerate_levi_dominant", "is_dominant", "weight_add",
        "weight_form", "weight_norm_sq", "weight_sub",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ takes the interpreter's own import path, which -X importtime reports
    value = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
