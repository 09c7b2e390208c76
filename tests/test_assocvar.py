import dataclasses
from fractions import Fraction

import pytest

from kcone import (
    BoundTooSmallError,
    InternalConsistencyError,
    KClass,
    VirtualModule,
    associated_cycle,
    build_root_datum,
    enumerate_dominant,
    express_in_geometric_basis,
    gamma_class,
    kclass_add,
    module_to_kclass,
    skyscraper_class,
    weyl_dim,
)


def trivial_module_a1():
    return VirtualModule(terms=((1, (0,), (0,)), (-1, (1,), (1,))))


def test_module_to_kclass_examples(a1, a2):
    assert module_to_kclass(a1, VirtualModule(terms=((1, (0,), (0,)),))).as_dict() == {(0,): 1}
    assert module_to_kclass(a1, trivial_module_a1()).as_dict() == {(0,): 1, (2,): -1}
    assert module_to_kclass(a2, VirtualModule(terms=((2, (1, 0), (0, 1)),))).as_dict() == {(1, 1): 2}


def test_module_to_kclass_matches_skyscraper(a1):
    assert module_to_kclass(a1, trivial_module_a1()).coeffs == skyscraper_class(a1, (0,)).coeffs


def test_module_to_kclass_raw_kclass_refolds(a2):
    raw = KClass((((-1, 2), 1),))  # deliberately non-dominant key
    vm = VirtualModule(kclass=raw)
    assert module_to_kclass(a2, vm).as_dict() == {(1, 1): 1}


def test_express_examples_a1(basis_cache, a1):
    basis = basis_cache("A1", 16)

    coords = express_in_geometric_basis(a1, skyscraper_class(a1, (0,)), basis)
    assert {(v.orbit_id, v.index): n for v, n in coords.items()} == {(0, 0): 1}

    coords = express_in_geometric_basis(a1, gamma_class(a1, (0,)), basis)
    assert {(v.orbit_id, v.index): n for v, n in coords.items()} == {(1, 0): 1}

    target = kclass_add(gamma_class(a1, (0,)), gamma_class(a1, (2,)))
    coords = express_in_geometric_basis(a1, target, basis)
    named = {(v.orbit_id, v.index): n for v, n in coords.items()}
    assert named == {(1, 0): 2, (0, 0): -1}


def test_round_trip_certified_vectors(basis_cache):
    for label, bound in [("A1", 16), ("A2", 18), ("B2", 16)]:
        rd = build_root_datum(label)
        basis = basis_cache(label, bound)
        for v in basis.certified_vectors():
            assert express_in_geometric_basis(rd, v.kclass, basis) == {v: 1}


def test_express_linearity(basis_cache, a2):
    basis = basis_cache("A2", 18)
    a = gamma_class(a2, (1, 1))
    b = skyscraper_class(a2, (1, 0))
    ca = express_in_geometric_basis(a2, a, basis)
    cb = express_in_geometric_basis(a2, b, basis)
    csum = express_in_geometric_basis(a2, kclass_add(a, b), basis)
    merged = dict(ca)
    for v, n in cb.items():
        merged[v] = merged.get(v, 0) + n
    merged = {v: n for v, n in merged.items() if n}
    assert merged == csum


def test_associated_cycle_a1(basis_cache, a1):
    basis = basis_cache("A1", 16)
    poset = basis.poset

    coords = express_in_geometric_basis(a1, module_to_kclass(a1, trivial_module_a1()), basis)
    cyc = associated_cycle(coords, poset)
    assert cyc.variety == (0,) and cyc.components == ((0, 1),)

    coords = express_in_geometric_basis(a1, gamma_class(a1, (0,)), basis)
    cyc = associated_cycle(coords, poset)
    assert cyc.variety == (1,) and cyc.components == ((1, 1),)

    target = kclass_add(gamma_class(a1, (0,)), gamma_class(a1, (2,)))
    cyc = associated_cycle(express_in_geometric_basis(a1, target, basis), poset)
    assert cyc.components == ((1, 2),)


@pytest.mark.parametrize("label,bound", [("A1", 16), ("A2", 18)])
def test_gamma_classes_are_full_principal_series(basis_cache, label, bound):
    rd = build_root_datum(label)
    basis = basis_cache(label, bound)
    regular = basis.orbits[-1].id
    for gamma in enumerate_dominant(rd, 8):
        cyc = associated_cycle(
            express_in_geometric_basis(rd, gamma_class(rd, gamma), basis), basis.poset
        )
        assert cyc.components == ((regular, 1),), gamma


@pytest.mark.parametrize("label,bound", [("A1", 32), ("A2", 50)])
def test_skyscrapers_have_dimension_multiplicity(basis_cache, label, bound):
    rd = build_root_datum(label)
    basis = basis_cache(label, bound)
    for phi in enumerate_dominant(rd, 8):
        cyc = associated_cycle(
            express_in_geometric_basis(rd, skyscraper_class(rd, phi), basis),
            basis.poset,
        )
        assert cyc.components == ((0, weyl_dim(rd, None, phi)),), phi


def test_additivity_of_multiplicities(basis_cache, a1):
    basis = basis_cache("A1", 16)
    one = gamma_class(a1, (0,))
    other = gamma_class(a1, (2,))
    m1 = associated_cycle(express_in_geometric_basis(a1, one, basis), basis.poset)
    m2 = associated_cycle(express_in_geometric_basis(a1, other, basis), basis.poset)
    both = associated_cycle(
        express_in_geometric_basis(a1, kclass_add(one, other), basis), basis.poset
    )
    assert both.components[0][1] == m1.components[0][1] + m2.components[0][1]


def test_support_outside_bound_raises(basis_cache, a1):
    basis = basis_cache("A1", 16)
    with pytest.raises(BoundTooSmallError, match="norm"):
        express_in_geometric_basis(a1, gamma_class(a1, (8,)), basis)


def test_support_just_outside_a_rational_bound_raises(basis_cache, a1):
    # <(5,), (5,)> = 25/2 exceeds 49/4 by 1/4, half a unit of the integer norm
    basis = basis_cache("A1", Fraction(49, 4))
    assert express_in_geometric_basis(a1, gamma_class(a1, (4,)), basis)
    with pytest.raises(BoundTooSmallError, match=r"\(5,\) has norm\^2 25/2 > bound\^2 49/4;"):
        express_in_geometric_basis(a1, gamma_class(a1, (5,)), basis)


def test_residual_raises_bound_error(basis_cache, a1):
    # degrade the basis by dropping the regular stratum: gamma classes are
    # no longer in the certified span
    basis = basis_cache("A1", 16)
    crippled = dataclasses.replace(basis, strata={0: basis.strata[0], 1: ()})
    with pytest.raises(BoundTooSmallError, match="not in the certified span"):
        express_in_geometric_basis(a1, gamma_class(a1, (0,)), crippled)


def test_dependent_certified_vectors_detected(basis_cache, a1):
    basis = basis_cache("A1", 16)
    doubled = {
        0: basis.strata[0],
        1: basis.strata[1] + (dataclasses.replace(basis.strata[1][0], index=9),),
    }
    broken = dataclasses.replace(basis, strata=doubled)
    with pytest.raises(InternalConsistencyError, match="dependent"):
        express_in_geometric_basis(a1, gamma_class(a1, (0,)), broken)


def test_non_integer_expansion_detected(basis_cache, a1):
    basis = basis_cache("A1", 16)
    scaled = dataclasses.replace(
        basis.strata[1][0],
        kclass=KClass((((0,), 2),), 1),
    )
    broken = dataclasses.replace(
        basis, strata={0: basis.strata[0], 1: (scaled, basis.strata[1][1])}
    )
    with pytest.raises(InternalConsistencyError, match="not an integer"):
        express_in_geometric_basis(a1, gamma_class(a1, (0,)), broken)


def test_virtual_zero_coordinates_excluded(basis_cache, a1):
    basis = basis_cache("A1", 16)
    coords = express_in_geometric_basis(a1, KClass(()), basis)
    assert coords == {}
    cyc = associated_cycle(coords, basis.poset)
    assert cyc.variety == () and cyc.components == ()
