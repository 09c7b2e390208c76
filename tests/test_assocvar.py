import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcone import (
    BoundTooSmallError,
    InternalConsistencyError,
    KClass,
    VirtualModule,
    associated_cycle,
    build_root_datum,
    enumerate_dominant,
    express_in_geometric_basis,
    full_basis,
    gamma_class,
    kclass_add,
    kclass_from_terms,
    kclass_scale,
    module_to_kclass,
    skyscraper_class,
    weight_sub,
    weyl_dim,
)
from kcone import assocvar
from kcone.linalg import IntEchelon

from helpers import as_row, fresh_solve, solve_fractions, weyl_orbit


def trivial_module_a1():
    return VirtualModule(terms=((1, (0,), (0,)), (-1, (1,), (1,))))


def test_module_to_kclass_examples(a1, a2):
    assert module_to_kclass(a1, VirtualModule(terms=((1, (0,), (0,)),))).as_dict() == {(0,): 1}
    assert module_to_kclass(a1, trivial_module_a1()).as_dict() == {(0,): 1, (2,): -1}
    assert module_to_kclass(a2, VirtualModule(terms=((2, (1, 0), (0, 1)),))).as_dict() == {(1, 1): 2}


def test_mismatched_weight_lengths_are_rejected(a2):
    # weight_add truncates to the shorter weight, so (1, 0, 5) + (0, 1) would
    # be read as the class of (1, 1)
    vm = VirtualModule(terms=((1, (1, 0), (0, 1)), (1, (1, 0, 5), (0, 1))))
    with pytest.raises(ValueError, match=r"term \(1, \(1, 0, 5\), \(0, 1\)\) .* lengths 3 and 2"):
        module_to_kclass(a2, vm)
    with pytest.raises(ValueError, match="lengths 1 and 2"):
        module_to_kclass(a2, VirtualModule(terms=((1, [1], [0, 1]),)))


def test_module_to_kclass_matches_skyscraper(a1):
    assert module_to_kclass(a1, trivial_module_a1()).coeffs == skyscraper_class(a1, (0,)).coeffs


def test_kclass_from_terms_refolds_raw_class(a2):
    # a raw class is folded directly: non-dominant, repeated and zero entries
    raw = (((-1, 2), 1), ((1, 1), 2), ((0, 0), 0), ((2, 0), 1), ((2, 0), -1))
    assert kclass_from_terms(a2, raw, rank=3) == KClass((((1, 1), 3),), 3)


def test_repeated_support_weight_is_rejected(basis_cache, a1):
    # dict(coeffs) would keep only the last pair and read this class as [0]
    basis = basis_cache("A1", 16)
    repeated = KClass((((0,), 1), ((0,), 1)))
    with pytest.raises(ValueError, match="repeats a weight") as info:
        express_in_geometric_basis(a1, repeated, basis)
    assert not isinstance(info.value, BoundTooSmallError)
    folded = kclass_from_terms(a1, repeated.coeffs)
    assert folded.coeffs == (((0,), 2),)
    assert associated_cycle(express_in_geometric_basis(a1, folded, basis), basis.poset).components == ((1, 2),)


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


def test_zero_entry_outside_the_bound_is_no_support(basis_cache, a1):
    # [0] + 0[40] is the class [0], although (40,) has norm^2 800 > 16;
    # the weight checks still read the zero entry
    basis = basis_cache("A1", 16)
    coords = express_in_geometric_basis(a1, KClass((((0,), 1),)), basis)
    assert {(v.orbit_id, v.index): n for v, n in coords.items()} == {(1, 0): 1}
    with_zero = KClass((((0,), 1), ((40,), 0)))
    assert express_in_geometric_basis(a1, with_zero, basis) == coords
    with pytest.raises(ValueError, match="dominant chamber") as info:
        express_in_geometric_basis(a1, KClass((((0,), 1), ((40, 0), 0))), basis)
    assert not isinstance(info.value, BoundTooSmallError)


def crippled(basis):
    """The basis without its regular stratum: gamma classes leave the span."""
    return dataclasses.replace(basis, strata={0: basis.strata[0], 1: ()})


def doubled(basis):
    """The basis with a copy of a regular vector: the certified rows are dependent."""
    extra = dataclasses.replace(basis.strata[1][0], index=9)
    return dataclasses.replace(basis, strata={0: basis.strata[0], 1: basis.strata[1] + (extra,)})


def halved_stratum(basis):
    """The regular stratum with its first class doubled: coordinates become halves."""
    scaled = dataclasses.replace(basis.strata[1][0], kclass=KClass((((0,), 2),), 1))
    return (scaled, basis.strata[1][1])


def non_integer(basis):
    return dataclasses.replace(basis, strata={0: basis.strata[0], 1: halved_stratum(basis)})


TAMPERED = [
    (crippled, BoundTooSmallError, "not in the certified span"),
    (doubled, InternalConsistencyError, "dependent"),
    (non_integer, InternalConsistencyError, "not an integer"),
]


def test_out_of_bound_weight_next_to_carried_weights_raises_norm_error(
    monkeypatch, basis_cache, a1, a2
):
    # the in-bound weights are carried by certified vectors and skip int_norm;
    # the weight they do not carry is still tested against the bound
    basis = basis_cache("A2", 50)
    carried = basis.certified_vectors()[-1].kclass
    normed = []
    real_int_norm = assocvar.int_norm
    monkeypatch.setattr(assocvar, "int_norm", lambda rd, w: normed.append(w) or real_int_norm(rd, w))
    assert express_in_geometric_basis(a2, carried, basis) == {basis.certified_vectors()[-1]: 1}
    assert normed == []
    kc = kclass_from_terms(a2, [*carried.coeffs, ((9, 9), 1)])
    with pytest.raises(BoundTooSmallError, match=r"\(9, 9\) has norm\^2 162 > bound\^2 50;"):
        express_in_geometric_basis(a2, kc, basis)
    assert normed == [(9, 9)]
    # the bound error comes before the dependence error, as before
    with pytest.raises(BoundTooSmallError, match=r"\(8,\) has norm\^2 32 > bound\^2 16;"):
        express_in_geometric_basis(a1, gamma_class(a1, (8,)), doubled(basis_cache("A1", 16)))


def test_residual_raises_bound_error(basis_cache, a1):
    # degrade the basis by dropping the regular stratum: gamma classes are
    # no longer in the certified span
    with pytest.raises(BoundTooSmallError, match="not in the certified span"):
        express_in_geometric_basis(a1, gamma_class(a1, (0,)), crippled(basis_cache("A1", 16)))


def test_in_span_class_with_units_out_of_span(basis_cache, a1):
    # without the regular stratum, 4 certified vectors cover 6 weights; the
    # skyscraper at 0 is the zero orbit's first vector, so it lies in the
    # span, though the unit classes of its support, such as the gamma class
    # of 0, do not
    basis = crippled(basis_cache("A1", 16))
    coords = express_in_geometric_basis(a1, skyscraper_class(a1, (0,)), basis)
    assert {(v.orbit_id, v.index): n for v, n in coords.items()} == {(0, 0): 1}
    with pytest.raises(BoundTooSmallError, match="not in the certified span"):
        express_in_geometric_basis(a1, gamma_class(a1, (0,)), basis)


def test_dependent_certified_vectors_detected(basis_cache, a1):
    with pytest.raises(InternalConsistencyError, match="dependent"):
        express_in_geometric_basis(a1, gamma_class(a1, (0,)), doubled(basis_cache("A1", 16)))


def test_non_integer_expansion_detected(basis_cache, a1):
    with pytest.raises(InternalConsistencyError, match="not an integer"):
        express_in_geometric_basis(a1, gamma_class(a1, (0,)), non_integer(basis_cache("A1", 16)))


def test_reused_elimination_never_goes_stale(basis_cache, a1):
    basis = basis_cache("A1", 16)
    gamma = gamma_class(a1, (0,))

    def named(b):
        return {(v.orbit_id, v.index): n for v, n in express_in_geometric_basis(a1, gamma, b).items()}

    assert named(basis) == {(1, 0): 1}
    for tamper, error, match in TAMPERED:
        with pytest.raises(error, match=match):
            express_in_geometric_basis(a1, gamma, tamper(basis))
    # the same vector objects as the good basis, and nothing can change them
    edited = dataclasses.replace(basis, strata=dict(basis.strata))
    assert named(edited) == {(1, 0): 1}
    with pytest.raises(dataclasses.FrozenInstanceError):
        edited.strata = {0: basis.strata[0], 1: halved_stratum(basis)}
    with pytest.raises(TypeError):
        edited.strata[1] = halved_stratum(basis)
    assert named(edited) == {(1, 0): 1}
    halved = dataclasses.replace(edited, strata={**edited.strata, 1: halved_stratum(basis)})
    with pytest.raises(InternalConsistencyError, match="not an integer"):
        express_in_geometric_basis(a1, gamma, halved)
    assert named(edited) == {(1, 0): 1}
    assert named(basis) == {(1, 0): 1}


DIFFERENTIAL_BASES = (("A2", 50), ("B2", 16), ("G2", 8))


def in_bound_sums(label, bound_sq):
    """Every weight of norm^2 <= bound_sq: the Weyl orbits of the dominant ones."""
    rd = build_root_datum(label)
    return sorted({w for d in enumerate_dominant(rd, bound_sq) for w in weyl_orbit(rd, d)})


SUMS = {label: in_bound_sums(label, bound) for label, bound in DIFFERENTIAL_BASES}
COEFFICIENTS = (-2, -1, 1, 2)


def standard_terms(coefs, sums, shifts):
    """(coefficient, lambda_l, lambda_r) with lambda_l + lambda_r = each sum."""
    return tuple((c, lam_l, weight_sub(gamma, lam_l)) for c, gamma, lam_l in zip(coefs, sums, shifts))


def seeded_terms(rng, in_bound):
    """1-4 standard terms, coefficients +-1 or +-2, their sums drawn from in_bound."""
    n = rng.randint(1, 4)
    sums = [rng.choice(in_bound) for _ in range(n)]
    shifts = [tuple(rng.randint(-5, 5) for _ in gamma) for gamma in sums]
    return standard_terms([rng.choice(COEFFICIENTS) for _ in range(n)], sums, shifts)


@st.composite
def interleaved_queries(draw):
    """A few queries whose bases cycle through DIFFERENTIAL_BASES."""
    start = draw(st.integers(0, 2))
    queries = []
    for i in range(draw(st.integers(1, 6))):
        label, bound = DIFFERENTIAL_BASES[(start + i) % 3]
        n = draw(st.integers(1, 4))
        coefs = draw(st.lists(st.sampled_from(COEFFICIENTS), min_size=n, max_size=n))
        sums = draw(st.lists(st.sampled_from(SUMS[label]), min_size=n, max_size=n))
        shift = st.tuples(*[st.integers(-5, 5)] * len(sums[0]))
        shifts = draw(st.lists(shift, min_size=n, max_size=n))
        queries.append((label, bound, standard_terms(coefs, sums, shifts)))
    return queries


def fresh_coords(certified, kc):
    """Coordinates from a fresh Factorization of the certified rows."""
    numerators, denominator = fresh_solve([as_row(v.kclass) for v in certified], as_row(kc))
    assert all(x % denominator == 0 for x in numerators)
    return {v: x // denominator for v, x in zip(certified, numerators) if x}


@given(interleaved_queries())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_reused_elimination_matches_a_fresh_solve(basis_cache, queries):
    for label, bound, terms in queries:
        rd = build_root_datum(label)
        basis = basis_cache(label, bound)
        certified = basis.certified_vectors()
        kc = module_to_kclass(rd, VirtualModule(terms=terms))
        coords = express_in_geometric_basis(rd, kc, basis)
        # each basis keeps its own certified vectors across switches
        assert all(a is b for a, b in zip(basis.certified_factorization[0], certified, strict=True))
        assert coords == fresh_coords(certified, kc)
        total = KClass(())
        for v, n in coords.items():
            total = kclass_add(total, kclass_scale(v.kclass, n))
        assert total.coeffs == kc.coeffs


def negated(stratum, i):
    """The stratum with vector i's class negated: its coordinate changes sign."""
    v = stratum[i]
    return stratum[:i] + (dataclasses.replace(v, kclass=kclass_scale(v.kclass, -1)),) + stratum[i + 1 :]


def by_index(coords):
    return {(v.orbit_id, v.index): n for v, n in coords.items()}


def test_reuse_follows_the_strata(basis_cache, a2):
    basis = basis_cache("A2", 50)
    rng = random.Random(41)
    classes = [module_to_kclass(a2, VirtualModule(terms=seeded_terms(rng, SUMS["A2"]))) for _ in range(3)]

    def check(b):
        answers = [express_in_geometric_basis(a2, kc, b) for kc in classes]
        assert answers == [fresh_coords(b.certified_vectors(), kc) for kc in classes]
        assert all(x is y for x, y in zip(b.certified_factorization[0], b.certified_vectors(), strict=True))
        return answers

    expected = check(basis)
    # a certified vector with a nonzero coordinate: negating it flips that sign
    v = next(iter(expected[0]))
    k, i = v.orbit_id, basis.strata[v.orbit_id].index(v)
    flipped = check(dataclasses.replace(basis, strata={**basis.strata, k: negated(basis.strata[k], i)}))
    assert by_index(flipped[0]) == {**by_index(expected[0]), (k, v.index): -expected[0][v]}
    edited = dataclasses.replace(basis, strata=dict(basis.strata))
    assert check(edited) == expected
    with pytest.raises(TypeError):
        edited.strata[k] = negated(basis.strata[k], i)
    assert check(edited) == expected
    assert check(basis) == expected
    assert check(dataclasses.replace(basis, orbits=tuple(reversed(basis.orbits)))) == expected
    listed = dataclasses.replace(basis, strata={**basis.strata, k: list(basis.strata[k])})
    assert type(listed.strata[k]) is tuple
    assert check(listed) == expected
    with pytest.raises(TypeError):
        listed.strata[k][i] = negated(basis.strata[k], i)[i]
    assert check(listed) == expected


def test_equal_vectors_from_two_builds_hash_alike(basis_cache, a2):
    first = basis_cache("A2", 50)
    second = full_basis(a2, 50)
    for a, b in zip(first.all_vectors(), second.all_vectors(), strict=True):
        assert a is not b and a == b and hash(a) == hash(b)
    rng = random.Random(42)
    for _ in range(3):
        kc = module_to_kclass(a2, VirtualModule(terms=seeded_terms(rng, SUMS["A2"])))
        coords = express_in_geometric_basis(a2, kc, second)
        assert coords == fresh_coords(second.certified_vectors(), kc)
        assert coords == express_in_geometric_basis(a2, kc, first)


def test_stored_hash_follows_the_fields(basis_cache):
    for v in basis_cache("A2", 50).all_vectors():
        moved = dataclasses.replace(v, index=v.index + 7)
        for w in (v, moved, copy.copy(v), copy.copy(moved), pickle.loads(pickle.dumps(moved))):
            assert hash(w) == hash((w.orbit_id, w.index))
        assert pickle.loads(pickle.dumps(v)) == v != moved


@pytest.mark.parametrize("label,bound", DIFFERENTIAL_BASES)
def test_expansion_matches_fraction_reference(basis_cache, label, bound):
    rd = build_root_datum(label)
    basis = basis_cache(label, bound)
    certified = basis.certified_vectors()
    rng = random.Random(f"{label}@{bound}")
    for _ in range(2):
        kc = module_to_kclass(rd, VirtualModule(terms=seeded_terms(rng, SUMS[label])))
        keys = sorted({w for v in certified for w, _ in v.kclass.coeffs} | {w for w, _ in kc.coeffs})
        columns = [[v.kclass.as_dict().get(w, 0) for w in keys] for v in certified]
        expected = solve_fractions(columns, [kc.as_dict().get(w, 0) for w in keys])
        coords = express_in_geometric_basis(rd, kc, basis)
        assert [coords.get(v, 0) for v in certified] == expected


def test_certified_columns_are_eliminated_once_per_basis(monkeypatch):
    rd = build_root_datum("A2")
    basis = full_basis(rd, 50)  # new vector objects: no earlier query reused
    added = []
    add = IntEchelon.add
    monkeypatch.setattr(IntEchelon, "add", lambda self, row: added.append(1) or add(self, row))
    rng = random.Random(40)
    for _ in range(40):
        kc = module_to_kclass(rd, VirtualModule(terms=seeded_terms(rng, SUMS["A2"])))
        express_in_geometric_basis(rd, kc, basis)
    assert len(added) == len(basis.certified_vectors()) == 54


def test_interleaved_bases_factor_once(monkeypatch, a2):
    bases = (full_basis(a2, 50), full_basis(a2, 18))  # fresh: neither is factored yet
    in_bound = (SUMS["A2"], in_bound_sums("A2", 18))
    added = []
    add = IntEchelon.add
    monkeypatch.setattr(IntEchelon, "add", lambda self, row: added.append(1) or add(self, row))
    rng = random.Random(43)
    answers = []
    for q in range(20):
        basis = bases[q % 2]
        kc = module_to_kclass(a2, VirtualModule(terms=seeded_terms(rng, in_bound[q % 2])))
        answers.append((basis, kc, express_in_geometric_basis(a2, kc, basis)))
    assert len(added) == sum(len(b.certified_vectors()) for b in bases)
    monkeypatch.undo()
    for basis, kc, coords in answers:
        assert coords == fresh_coords(basis.certified_vectors(), kc)


@pytest.mark.parametrize(
    "weight",
    [(-1, 2), (1, 1, 0), (1,), (1, 1, 1)],
    ids=["non-dominant", "trailing-zero", "short", "past-the-rank"],
)
def test_malformed_support_is_not_a_bound_error(basis_cache, a2, weight):
    # no bound can help: a ValueError, which the CLI maps to exit 2
    with pytest.raises(ValueError, match="outside the dominant chamber") as info:
        express_in_geometric_basis(a2, KClass(((weight, 1),)), basis_cache("A2", 18))
    assert not isinstance(info.value, BoundTooSmallError)


def test_virtual_zero_coordinates_excluded(basis_cache, a1):
    basis = basis_cache("A1", 16)
    coords = express_in_geometric_basis(a1, KClass(()), basis)
    assert coords == {}
    cyc = associated_cycle(coords, basis.poset)
    assert cyc.variety == () and cyc.components == ()
