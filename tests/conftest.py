import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import kcone
from kcone import build_root_datum, full_basis

# subprocess tests run `python -m kcone.cli`; let them import the same kcone
_KCONE_ROOT = str(Path(kcone.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_KCONE_ROOT, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def a1():
    return build_root_datum("A1")


@pytest.fixture(scope="session")
def a2():
    return build_root_datum("A2")


@pytest.fixture(scope="session")
def b2():
    return build_root_datum("B2")


@pytest.fixture(scope="session")
def basis_cache():
    """Share expensive full_basis computations across test modules."""
    cache = {}

    def get(label, bound_sq):
        key = (label, bound_sq)
        if key not in cache:
            cache[key] = full_basis(build_root_datum(label), bound_sq)
        return cache[key]

    return get
