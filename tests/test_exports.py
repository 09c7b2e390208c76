"""The package's lazy export table and what a cold start loads."""

import importlib
import subprocess
import sys

import pytest

import kcone

EXPORTS = [
    "AssociatedCycle", "BoundTooSmallError", "ClosurePoset", "GeometricBasis",
    "GeometricBasisVector", "GradingData", "InternalConsistencyError", "KClass",
    "NilpotentOrbit", "OrbitTableUnavailableError", "RootDatum", "SubsetCapExceededError",
    "UnknownTypeError", "VirtualModule", "Weight", "associated_cycle", "build_root_datum",
    "classify_orbits", "closure_poset", "dominant_conjugate", "enumerate_dominant",
    "enumerate_levi_dominant", "express_in_geometric_basis", "full_basis", "gamma_class",
    "grading_data", "is_dominant", "kclass_add", "kclass_from_terms", "kclass_scale",
    "module_to_kclass", "norm_constant", "pushforward", "pushforward_kernel",
    "restrict_gamma_class", "restrict_kclass", "skyscraper_class", "weight_add",
    "weight_form", "weight_multiplicity", "weight_norm_sq", "weight_sub", "weyl_dim",
]

HOMES = {
    "assocvar": ["AssociatedCycle", "BoundTooSmallError", "InternalConsistencyError",
                 "VirtualModule", "associated_cycle", "express_in_geometric_basis",
                 "module_to_kclass"],
    "ktheory": ["KClass", "SubsetCapExceededError", "gamma_class", "kclass_add",
                "kclass_from_terms", "kclass_scale", "pushforward", "pushforward_kernel",
                "skyscraper_class"],
    "nilpotent": ["ClosurePoset", "GradingData", "NilpotentOrbit",
                  "OrbitTableUnavailableError", "classify_orbits", "closure_poset",
                  "grading_data"],
    "orbitalg": ["GeometricBasis", "GeometricBasisVector", "full_basis", "norm_constant"],
    "repcalc": ["restrict_gamma_class", "restrict_kclass", "weight_multiplicity", "weyl_dim"],
    "rootdata": ["RootDatum", "UnknownTypeError", "Weight", "build_root_datum",
                 "dominant_conjugate", "enumerate_dominant", "enumerate_levi_dominant",
                 "is_dominant", "weight_add", "weight_form", "weight_norm_sq", "weight_sub"],
}

NOT_AT_SETUP = ("kcone.ktheory", "kcone.orbitalg", "kcone.assocvar", "kcone.repcalc", "kcone.cli")

COLD_SETUP = (
    "import sys, kcone\n"
    "rd = kcone.build_root_datum('A2')\n"
    "kcone.closure_poset(rd, kcone.classify_orbits(rd))\n"
    "print(' '.join(sorted(m for m in sys.modules if m.startswith('kcone'))))\n"
)


def test_all_is_the_pinned_sorted_list():
    assert EXPORTS == sorted(EXPORTS)
    assert kcone.__all__ == EXPORTS
    assert sorted(n for names in HOMES.values() for n in names) == EXPORTS


@pytest.mark.parametrize("module", sorted(HOMES))
def test_each_name_is_its_home_modules_object(module):
    home = importlib.import_module(f"kcone.{module}")
    for name in HOMES[module]:
        assert getattr(kcone, name) is getattr(home, name), name


def test_dir_lists_every_export():
    assert set(kcone.__all__) <= set(dir(kcone))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from kcone import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == kcone.__all__
    assert all(namespace[name] is getattr(kcone, name) for name in namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kcone.no_such_name


def test_submodules_still_import_by_name():
    from kcone import cli, orbitalg

    assert cli is sys.modules["kcone.cli"]
    assert orbitalg is sys.modules["kcone.orbitalg"]
    assert orbitalg.full_basis is kcone.full_basis


def test_version_is_unchanged():
    assert kcone.__version__ == "0.1.0"


def test_cold_setup_loads_only_the_setup_modules():
    # root data, orbits and their closure order need rootdata, linalg and
    # nilpotent; the K-theory, basis, module and CLI code stays unloaded (the
    # subprocess inherits the PYTHONPATH that conftest sets)
    proc = subprocess.run(
        [sys.executable, "-c", COLD_SETUP],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded = proc.stdout.split()
    assert "kcone.nilpotent" in loaded
    assert not set(NOT_AT_SETUP) & set(loaded)


def test_importtime_reports_the_lazily_loaded_modules():
    # the package's __getattr__ loads through __import__, whose imports
    # -X importtime times; importlib.import_module's would not be listed
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", COLD_SETUP],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    reported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert {"kcone.rootdata", "kcone.nilpotent"} <= reported


COLD_PATH = (
    "import sys\n"
    "before = {m for m in ('dataclasses', 'inspect') if m in sys.modules}\n"
    "import kcone\n"
    "for label in ('A2', 'B2', 'G2', 'A1xA1xA1'):\n"
    "    rd = kcone.build_root_datum(label)\n"
    "    kcone.closure_poset(rd, kcone.classify_orbits(rd))\n"
    "print(' '.join(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules and m not in before)))\n"
)


def test_cold_setup_loads_no_dataclass_machinery():
    # the root-data and orbit records are NamedTuples, so the setup calls
    # never import dataclasses, nor the inspect module it pulls in
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PATH],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout.split() == []
