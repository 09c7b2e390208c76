import math
import random
from fractions import Fraction

import pytest

from kcone import (
    VirtualModule,
    build_root_datum,
    dominant_conjugate,
    enumerate_dominant,
    module_to_kclass,
    weight_norm_sq,
)
from kcone.ktheory import flatten_kclass
from kcone.linalg import IntEchelon, solve
from kcone.rootdata import _cartan_inverse

from helpers import cartan_inverse_fractions, solve_fractions


def as_fractions(solved):
    if solved is None:
        return None
    numerators, denominator = solved
    assert denominator > 0
    return [Fraction(x, denominator) for x in numerators]


def assert_matches_reference(columns, target):
    try:
        expected = solve_fractions(columns, target)
    except ValueError:
        with pytest.raises(ValueError, match="dependent"):
            solve(columns, target)
        return "dependent"
    assert as_fractions(solve(columns, target)) == expected
    if expected is None:
        return "out of span"
    return "integer" if all(x.denominator == 1 for x in expected) else "non-integer"


def test_int_echelon_add_examples():
    one = [1, 0, 0]
    vec = [1, 0, 1]
    flipped = [1, 0, -1]
    # a single row is independent; its duplicate is not
    ech = IntEchelon()
    assert ech.add(one)
    assert not ech.add(one)
    assert len(ech) == 1
    # independent modulo a sign-flipped partner
    ech = IntEchelon()
    assert ech.add(flipped)
    assert ech.add(vec)
    # but dependent modulo itself, also after scaling
    ech = IntEchelon()
    assert ech.add(vec)
    assert not ech.add(vec)
    assert not ech.add([-3 * x for x in vec])
    # empty input: nothing stored, zero rows never enter
    ech = IntEchelon()
    assert len(ech) == 0
    assert not ech.add([0, 0, 0])
    assert len(ech) == 0


def test_solve_examples():
    # integer coordinates: 2 * (1, 1) - (0, 1) = (2, 1)
    assert solve([[1, 1], [0, 1]], [2, 1]) == ([2, -1], 1)
    # non-integer coordinates: (1, 0) = 1/2 * (2, 0)
    assert solve([[2, 0]], [1, 0]) == ([1], 2)
    # out of span
    assert solve([[1, 0, 0], [0, 1, 0]], [0, 0, 1]) is None
    # dependent columns raise, whatever the target
    with pytest.raises(ValueError, match="dependent"):
        solve([[1, 2], [2, 4]], [1, 2])
    # no columns: only the zero target is in the span
    assert solve([], [0, 0]) == ([], 1)
    assert solve([], [0, 1]) is None


def test_solve_matches_fraction_reference():
    rng = random.Random(20240501)
    seen = set()
    for _ in range(300):
        m = rng.randint(1, 6)
        k = rng.randint(0, m)
        columns = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
        if k >= 2 and rng.random() < 0.2:
            columns[-1] = [2 * a - 3 * b for a, b in zip(columns[0], columns[1])]
        if k and rng.random() < 0.6:
            weights = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in columns]
            raw = [sum(w * col[i] for w, col in zip(weights, columns)) for i in range(m)]
            scale = math.lcm(*(x.denominator for x in raw))
            target = [int(x * scale) for x in raw]
        else:
            target = [rng.randint(-5, 5) for _ in range(m)]
        seen.add(assert_matches_reference(columns, target))
    assert seen == {"integer", "non-integer", "out of span", "dependent"}


def test_solve_seeded_a2_modules(basis_cache):
    rd = build_root_datum("A2")
    basis = basis_cache("A2", 50)
    axis = enumerate_dominant(rd, basis.support_window_sq)
    index = {w: i for i, w in enumerate(axis)}
    columns = [flatten_kclass(rd, v.kclass, index) for v in basis.certified_vectors()]
    rng = random.Random(7)
    for _ in range(6):
        terms = []
        for _ in range(rng.randint(1, 4)):
            while True:
                lam_l = (rng.randint(-5, 5), rng.randint(-5, 5))
                lam_r = (rng.randint(-5, 5), rng.randint(-5, 5))
                gamma = dominant_conjugate(rd, (lam_l[0] + lam_r[0], lam_l[1] + lam_r[1]))
                if weight_norm_sq(rd, gamma) <= 50:
                    break
            terms.append((rng.choice((-2, -1, 1, 2)), lam_l, lam_r))
        kc = module_to_kclass(rd, VirtualModule(terms=tuple(terms)))
        assert assert_matches_reference(columns, flatten_kclass(rd, kc, index)) == "integer"


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C3", "D4", "G2", "F4", "E6", "A1xA1"])
def test_gram_and_cartan_inverse_match_reference(label):
    rd = build_root_datum(label)
    inverse = cartan_inverse_fractions(rd.cartan)
    assert _cartan_inverse(rd) == tuple(tuple(row) for row in inverse)
    assert rd.gram == tuple(
        tuple(d * x for x in row) for d, row in zip(rd.symmetrizer, inverse)
    )
