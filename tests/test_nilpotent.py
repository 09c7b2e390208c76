import pytest

from kcone import (
    OrbitTableUnavailableError,
    build_root_datum,
    classify_orbits,
    closure_poset,
    grading_data,
)

from helpers import parse_partition_label, partition_orbit_dimension

KNOWN_COUNTS = {"A1": 2, "A2": 3, "A3": 5, "B2": 4, "C2": 4, "G2": 5, "D4": 12}


@pytest.mark.parametrize("label,count", sorted(KNOWN_COUNTS.items()))
def test_orbit_counts(label, count):
    assert len(classify_orbits(build_root_datum(label))) == count


def test_a1_orbits(a1):
    orbits = classify_orbits(a1)
    assert [(o.dynkin_marks, o.dimension) for o in orbits] == [((0,), 0), ((2,), 2)]


def test_a2_orbits(a2):
    orbits = classify_orbits(a2)
    assert [(o.label, o.dynkin_marks, o.dimension) for o in orbits] == [
        ("[1,1,1]", (0, 0), 0),
        ("[2,1]", (1, 1), 4),
        ("[3]", (2, 2), 6),
    ]


def test_b2_orbits(b2):
    orbits = classify_orbits(b2)
    assert [o.dimension for o in orbits] == [0, 4, 6, 8]
    assert [o.label for o in orbits] == ["[1,1,1,1,1]", "[2,2,1]", "[3,1,1]", "[5]"]


def test_g2_orbits():
    orbits = classify_orbits(build_root_datum("G2"))
    assert [o.dimension for o in orbits] == [0, 6, 8, 10, 12]
    assert [o.label for o in orbits] == ["0", "A1", "A1~", "G2(a1)", "G2"]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4"])
def test_dimension_two_formulas_agree(label):
    # grading-derived dimension vs the classical centralizer formula
    rd = build_root_datum(label)
    family, n = label[0], int(label[1:])
    for orbit in classify_orbits(rd):
        part, _ = parse_partition_label(orbit.label)
        assert orbit.dimension == partition_orbit_dimension(family, n, part), orbit


@pytest.mark.parametrize("label", sorted(KNOWN_COUNTS))
def test_marks_distinct_and_in_range(label):
    orbits = classify_orbits(build_root_datum(label))
    marks = [o.dynkin_marks for o in orbits]
    assert len(set(marks)) == len(marks)
    assert all(m in (0, 1, 2) for v in marks for m in v)
    assert orbits[0].dynkin_marks == (0,) * len(marks[0])
    assert orbits[0].dimension == 0


def test_zero_and_regular_dimensions(b2):
    orbits = classify_orbits(b2)
    assert orbits[0].dimension == 0
    assert orbits[-1].dimension == b2.dim_g - b2.rank


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2"])
def test_closure_is_a_chain_for_small_types(label):
    rd = build_root_datum(label)
    orbits = classify_orbits(rd)
    poset = closure_poset(rd, orbits)
    for o in orbits[1:]:
        assert poset.covers[o.id] == (o.id - 1,)
    assert poset.covers[0] == ()


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "A1xA1"])
def test_poset_invariants(label):
    rd = build_root_datum(label)
    orbits = classify_orbits(rd)
    poset = closure_poset(rd, orbits)
    dims = {o.id: o.dimension for o in orbits}
    for b, cov in poset.covers.items():
        for a in cov:
            assert dims[a] < dims[b]
    # unique minimum and maximum
    assert poset.maximal([o.id for o in orbits]) == [orbits[-1].id]
    minima = [o.id for o in orbits if not poset.below[o.id]]
    assert minima == [0]


def grades(rd, orbit):
    """Each positive root's grade under the orbit's Dynkin marks."""
    return {
        root: sum(c * m for c, m in zip(coeffs, orbit.dynkin_marks))
        for root, coeffs in zip(rd.positive_roots, rd.positive_root_coeffs)
    }


def ge2_roots(rd, orbit):
    """The positive roots of grade at least 2, in positive_roots order."""
    grade = grades(rd, orbit)
    return tuple(root for root in rd.positive_roots if grade[root] >= 2)


def test_grading_data_a1_regular(a1):
    orbits = classify_orbits(a1)
    gd = grading_data(a1, orbits[1])
    assert gd.degree1_roots == ()
    assert gd.levi_positive_roots == ()
    assert gd.levi_simple == ()
    assert ge2_roots(a1, orbits[1]) == ((2,),)


def test_grading_data_a2_subregular(a2):
    orbits = classify_orbits(a2)
    gd = grading_data(a2, orbits[1])
    assert set(gd.degree1_roots) == {(2, -1), (-1, 2)}
    assert gd.levi_positive_roots == ()
    assert ge2_roots(a2, orbits[1]) == ((1, 1),)
    assert grades(a2, orbits[1])[(1, 1)] == 2


def test_grading_data_zero_orbit(a2, b2):
    for rd in (a2, b2):
        zero = classify_orbits(rd)[0]
        gd = grading_data(rd, zero)
        assert set(gd.levi_positive_roots) == set(rd.positive_roots)
        assert gd.degree1_roots == () and ge2_roots(rd, zero) == ()
        assert gd.levi_simple == tuple(range(rd.rank))


@pytest.mark.parametrize("label", ["B2", "G2", "D4"])
def test_grades_match_marks(label):
    # grading_data sorts every positive root by its grade: 0 into the Levi,
    # 1 into degree1_roots, and the rest, of grade 2 or more, into neither
    rd = build_root_datum(label)
    for orbit in classify_orbits(rd):
        gd = grading_data(rd, orbit)
        grade = grades(rd, orbit)
        assert gd.levi_positive_roots == tuple(r for r in rd.positive_roots if grade[r] == 0)
        assert gd.degree1_roots == tuple(r for r in rd.positive_roots if grade[r] == 1)
        assert all(g >= 0 for g in grade.values())


def test_grading_rejects_foreign_orbit(a1, a2):
    orbit = classify_orbits(a1)[1]
    with pytest.raises(ValueError):
        grading_data(a2, orbit)


def test_closure_rejects_wrong_orbit_list(a2):
    orbits = classify_orbits(a2)
    with pytest.raises(ValueError):
        closure_poset(a2, orbits[:-1])


@pytest.mark.parametrize("label", ["F4", "E6", "E7", "E8"])
def test_missing_exceptional_tables(label):
    rd = build_root_datum(label)
    with pytest.raises(OrbitTableUnavailableError, match="table unavailable"):
        classify_orbits(rd)


def test_product_orbits_and_poset():
    rd = build_root_datum("A1xA1")
    orbits = classify_orbits(rd)
    assert [(o.dynkin_marks, o.dimension) for o in orbits] == [
        ((0, 0), 0),
        ((0, 2), 2),
        ((2, 0), 2),
        ((2, 2), 4),
    ]
    poset = closure_poset(rd, orbits)
    assert poset.covers == {0: (), 1: (0,), 2: (0,), 3: (1, 2)}
    assert 1 not in poset.below[2] and 2 not in poset.below[1]


def test_d4_very_even_pairs():
    rd = build_root_datum("D4")
    orbits = classify_orbits(rd)
    by_label = {o.label: o for o in orbits}
    for base in ("[2,2,2,2]", "[4,4]"):
        one, two = by_label[base + "_I"], by_label[base + "_II"]
        assert one.dimension == two.dimension
        assert one.dynkin_marks[:-2] == two.dynkin_marks[:-2]
        assert one.dynkin_marks[-2:] == two.dynkin_marks[-2:][::-1]
        assert one.dynkin_marks[-2] <= one.dynkin_marks[-1]
    poset = closure_poset(rd, orbits)
    ids = {label: o.id for label, o in by_label.items()}

    def below(a, b):
        return ids[a] in poset.below[ids[b]]

    assert not below("[2,2,2,2]_I", "[2,2,2,2]_II")
    # label-matching convention between distinct very even partitions
    assert below("[2,2,2,2]_I", "[4,4]_I")
    assert not below("[2,2,2,2]_I", "[4,4]_II")
    # non-very-even neighbours relate to both members of a pair
    assert below("[3,2,2,1]", "[4,4]_I")
    assert below("[3,2,2,1]", "[4,4]_II")


def maximal_reference(poset, ids):
    """ClosurePoset.maximal by its definition, one below-set test per pair."""
    ids = sorted(set(ids))
    return [i for i in ids if not any(i in poset.below[j] for j in ids if j != i)]


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "C3", "D4", "A1xA1xA1"])
def test_maximal_matches_reference_on_every_subset(label):
    rd = build_root_datum(label)
    poset = closure_poset(rd, classify_orbits(rd))
    n = len(poset.below)
    for mask in range(1 << n):
        ids = [i for i in range(n) if mask >> i & 1]
        expected = maximal_reference(poset, ids)
        assert poset.maximal(ids) == expected
        assert poset.maximal(reversed(ids)) == expected  # unsorted, and a one-pass iterable
        assert poset.maximal(ids + ids[::2]) == expected  # repeats
    assert poset.maximal([]) == [] and poset.maximal(iter(())) == []


def test_above_masks_are_lazy(a2):
    poset = closure_poset(a2, classify_orbits(a2))
    assert "above_masks" not in vars(poset)
    assert poset.maximal({2: 1, 0: 3}) == [2]
    assert poset.above_masks == {0: 0b110, 1: 0b100, 2: 0}
