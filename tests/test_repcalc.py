import random

import pytest

from kcone import (
    build_root_datum,
    enumerate_dominant,
    gamma_class,
    restrict_gamma_class,
    restrict_kclass,
    skyscraper_class,
    weight_multiplicity,
    weyl_dim,
)

from helpers import (
    character_by_division,
    freudenthal_fractions,
    norm_sq_fractions,
    rational_rank,
    weyl_dim_fractions,
    weyl_orbit,
)


def test_weyl_dim_a1(a1):
    for n in range(7):
        assert weyl_dim(a1, None, (n,)) == n + 1


def test_weyl_dim_a2(a2):
    assert weyl_dim(a2, None, (1, 1)) == 8
    assert weyl_dim(a2, None, (1, 0)) == 3
    assert weyl_dim(a2, None, (2, 0)) == 6
    assert weyl_dim(a2, None, (0, 0)) == 1


def test_weyl_dim_torus_and_levi(a2):
    for phi in [(3, -2), (0, 0), (-1, 5)]:
        assert weyl_dim(a2, [], phi) == 1
    # Levi on node 0 only: dimension depends on the first coordinate alone
    assert weyl_dim(a2, [0], (2, -5)) == 3
    assert weyl_dim(a2, [0], (0, 7)) == 1


def test_weyl_dim_b2(b2):
    assert weyl_dim(b2, None, (1, 0)) == 5
    assert weyl_dim(b2, None, (0, 1)) == 4
    assert weyl_dim(b2, None, (1, 1)) == 16


def test_weyl_dim_errors(a2):
    with pytest.raises(ValueError):
        weyl_dim(a2, None, (-1, 0))
    with pytest.raises(ValueError):
        weyl_dim(a2, [1], (5, -1))
    with pytest.raises(ValueError):
        weyl_dim(a2, [7], (0, 0))


@pytest.mark.parametrize(
    "label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6", "A1xA1"]
)
def test_weyl_dim_matches_fraction_reference(label):
    rd = build_root_datum(label)
    rng = random.Random(label)
    for mask in range(2**rd.rank):
        levi = [i for i in range(rd.rank) if mask >> i & 1]
        for _ in range(5):
            hw = tuple(
                rng.randint(0, 6) if i in levi else rng.randint(-6, 6) for i in range(rd.rank)
            )
            assert weyl_dim(rd, levi, hw) == weyl_dim_fractions(rd, levi, hw), (levi, hw)


def test_weight_multiplicity_a1(a1):
    assert weight_multiplicity(a1, (4,), (2,)) == 1
    assert weight_multiplicity(a1, (3,), (0,)) == 0
    assert weight_multiplicity(a1, (4,), (-4,)) == 1
    assert weight_multiplicity(a1, (2,), (6,)) == 0


def test_weight_multiplicity_a2_adjoint(a2):
    # adjoint representation: zero weight has multiplicity 2 = rank
    assert weight_multiplicity(a2, (1, 1), (0, 0)) == 2
    for root in a2.positive_roots:
        assert weight_multiplicity(a2, (1, 1), root) == 1


def test_weight_multiplicity_requires_dominant_hw(a2):
    with pytest.raises(ValueError):
        weight_multiplicity(a2, (-1, 2), (0, 0))


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_freudenthal_matches_character_division(label):
    rd = build_root_datum(label)
    for hw in enumerate_dominant(rd, 8):
        table = character_by_division(rd, hw)
        assert all(m > 0 for m in table.values())
        assert sum(table.values()) == weyl_dim(rd, None, hw)
        seen_dominant = [w for w in table if all(x >= 0 for x in w)]
        for w in seen_dominant:
            assert weight_multiplicity(rd, hw, w) == table[w], (hw, w)
        # weights not in the table have multiplicity zero
        assert weight_multiplicity(rd, hw, tuple(x + 2 for x in hw)) == 0


def test_freudenthal_matches_character_division_b2(b2):
    for hw in [(0, 1), (1, 0), (1, 1), (2, 0)]:
        table = character_by_division(b2, hw)
        assert sum(table.values()) == weyl_dim(b2, None, hw)
        for w, m in table.items():
            assert weight_multiplicity(b2, hw, w) == m


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "C3"])
def test_freudenthal_matches_fraction_reference(label):
    # every dominant hw with norm^2 <= 8: the integer recursion against the
    # Fraction one, on every dominant weight up to the norm of hw
    rd = build_root_datum(label)
    for hw in enumerate_dominant(rd, 8):
        table = freudenthal_fractions(rd, hw)
        for mu in enumerate_dominant(rd, norm_sq_fractions(rd, hw) + 2):
            assert weight_multiplicity(rd, hw, mu) == table.get(mu, 0), (hw, mu)
        # nondominant weights are read through their dominant conjugates
        for mu, m in table.items():
            for i in range(rd.rank):
                s_mu = tuple(x - mu[i] * rd.cartan[k][i] for k, x in enumerate(mu))
                assert weight_multiplicity(rd, hw, s_mu) == m


def test_restrict_gamma_class_a1(a1):
    assert restrict_gamma_class(a1, (0,), 16) == {(0,): 1, (2,): 1, (4,): 1}
    assert restrict_gamma_class(a1, (1,), 9) == {(1,): 1, (3,): 1}
    # dominant gamma heavier than the level: nothing survives
    assert restrict_gamma_class(a1, (6,), 9) == {}


def test_restrict_gamma_class_level_validation(a1):
    with pytest.raises(ValueError):
        restrict_gamma_class(a1, (0,), -1)


@pytest.mark.parametrize("label,level", [("A1", 20), ("A2", 12), ("B2", 12)])
def test_restriction_weyl_invariance(label, level):
    rd = build_root_datum(label)
    for gamma in [(1,) * rd.rank, (2, 0)[: rd.rank], (0, 1)[: rd.rank]]:
        base = restrict_gamma_class(rd, gamma, level)
        for conj in weyl_orbit(rd, gamma):
            assert restrict_gamma_class(rd, conj, level) == base


def test_truncated_gamma_vectors_independent(a2):
    # small-gamma restriction vectors stay independent at level 30
    gammas = [g for g in enumerate_dominant(a2, 8)]
    axis = enumerate_dominant(a2, 30)
    index = {w: i for i, w in enumerate(axis)}
    rows = []
    for g in gammas:
        row = [0] * len(axis)
        for hw, m in restrict_gamma_class(a2, g, 30).items():
            row[index[hw]] = m
        rows.append(row)
    assert rational_rank(rows) == len(gammas)


def test_restrict_kclass_skyscraper_collapses(a1, a2):
    # the alternating skyscraper sum restricts to a single irreducible
    assert restrict_kclass(a1, skyscraper_class(a1, (2,)), 30) == {(2,): 1}
    assert restrict_kclass(a2, skyscraper_class(a2, (1, 0)), 40) == {(1, 0): 1}
    # and a plain gamma class restricts to the full induced multiplicities
    assert restrict_kclass(a1, gamma_class(a1, (0,)), 16) == {(0,): 1, (2,): 1, (4,): 1}
