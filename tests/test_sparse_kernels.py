"""Differential test: the sparse kernels against the dense-axis reference.

helpers.dense_strata runs the full_basis pipeline with every class
flattened onto the whole enumerated support window, through the dense
Hermite split and the dense boundary test; kcone's strata (class,
combination, rank, certified flag) must equal it exactly.
"""

import pytest

from kcone import build_root_datum, classify_orbits, grading_data
from kcone.orbitalg import _windows

from helpers import (
    dense_hnf_certified_split,
    dense_strata,
    library_strata,
    reference_spanning_set,
    split_classes,
    strata_digest,
)

LIVE = [("A1", 64), ("A2", 50), ("B2", 16), ("G2", 8), ("A1xA1", 16)]

# dense_strata takes 14 s, 2 min and 10 min on these (one core of a 2-CPU
# x86 host), so its strata_digest is recorded; regenerate with, from tests/:
#   python -c "from helpers import *; from kcone import build_root_datum as b;
#              print(strata_digest(dense_strata(b('A3'), 2)))"
RECORDED = {
    ("A1xA1xA1", 2): "23d57052c737de08a247f7d2a979021bb92b9eb6be6fcf2faf3156b5a087c19f",
    ("A3", 2): "659995b38a3bef4bb417acd9e30f48ce3ab32da6567778ad22f3810d7c7ef230",
    ("C3", 1): "3293035ef57f193443d8d66fb1c15ded4ae1d83279ffca294af62ac897e01cea",
}


@pytest.mark.parametrize("label,bound", LIVE)
def test_strata_match_dense_reference(label, bound, basis_cache):
    rd = build_root_datum(label)
    assert library_strata(basis_cache(label, bound)) == dense_strata(rd, bound)


@pytest.mark.parametrize("label,bound", sorted(RECORDED))
def test_strata_match_recorded_dense_digest(label, bound, basis_cache):
    assert strata_digest(library_strata(basis_cache(label, bound))) == RECORDED[(label, bound)]


@pytest.mark.parametrize("label,bound", [("A2", 50), ("G2", 8), ("A1xA1", 16)])
def test_hnf_split_matches_dense_reference(label, bound):
    # every orbit's raw spanning set, duplicates included
    rd = build_root_datum(label)
    win = _windows(rd, bound)
    for orbit in classify_orbits(rd):
        span = reference_spanning_set(rd, grading_data(rd, orbit), bound)
        vectors = [kc for _, kc in span]
        certified, provisional = split_classes(rd, vectors, win.support_sq, win.bound_sq)
        dense = dense_hnf_certified_split(rd, vectors, win.support_sq, win.bound_sq)
        assert [(kc.coeffs, comb) for kc, comb in certified] == dense[0]
        assert [(kc.coeffs, comb) for kc, comb in provisional] == dense[1]
