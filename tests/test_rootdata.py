import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcone import (
    UnknownTypeError,
    build_root_datum,
    dominant_conjugate,
    enumerate_dominant,
    enumerate_levi_dominant,
    weight_form,
    weight_norm_sq,
)
from kcone import rootdata
from kcone.repcalc import _depth, _root_coefficients
from kcone.rootdata import (
    MAX_BALL_POINTS,
    MAX_WINDOW_POINTS,
    int_norm,
    int_norm_bound,
    int_pair,
    sqrt_upper,
)

from helpers import (
    brute_dominant,
    enumerate_levi_dominant_fractions,
    form_fractions,
    gram_fractions,
    norm_sq_fractions,
    root_coefficients_fractions,
    tuple_dominant_conjugate,
    weight_height,
    weyl_group,
    weyl_orbit,
)

# dim g per label, for the positive-root count identity #roots = (dim-rank)/2
DIMENSIONS = {
    "A1": 3, "A2": 8, "A3": 15, "A4": 24,
    "B2": 10, "B3": 21, "B4": 36,
    "C2": 10, "C3": 21, "C4": 36,
    "D3": 15, "D4": 28,
    "G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248,
}


def test_a1_positive_roots():
    rd = build_root_datum("A1")
    assert rd.rank == 1
    assert rd.positive_roots == ((2,),)


def test_a2_positive_roots():
    rd = build_root_datum("A2")
    assert set(rd.positive_roots) == {(2, -1), (-1, 2), (1, 1)}


@pytest.mark.parametrize("label,dim", sorted(DIMENSIONS.items()))
def test_positive_root_counts(label, dim):
    rd = build_root_datum(label)
    assert len(rd.positive_roots) == (dim - rd.rank) // 2
    assert rd.dim_g == dim


@pytest.mark.parametrize("label", ["A2", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_roots_are_nonnegative_simple_combinations(label):
    rd = build_root_datum(label)
    for root, coeffs in zip(rd.positive_roots, rd.positive_root_coeffs):
        assert all(c >= 0 for c in coeffs) and any(c > 0 for c in coeffs)
        rebuilt = tuple(
            sum(coeffs[j] * rd.cartan[i][j] for j in range(rd.rank))
            for i in range(rd.rank)
        )
        assert rebuilt == root


@pytest.mark.parametrize("label", sorted(DIMENSIONS))
def test_cartan_invariants(label):
    rd = build_root_datum(label)
    for i in range(rd.rank):
        assert rd.cartan[i][i] == 2
        for j in range(rd.rank):
            if i != j:
                assert rd.cartan[i][j] <= 0
            assert (
                rd.symmetrizer[i] * rd.cartan[i][j]
                == rd.symmetrizer[j] * rd.cartan[j][i]
            )


def test_simple_roots_are_cartan_columns():
    rd = build_root_datum("B2")
    for j in range(rd.rank):
        assert rd.positive_roots[j] == tuple(rd.cartan[i][j] for i in range(rd.rank))


@pytest.mark.parametrize("label", ["G2", "B2", "D4"])
def test_cartan_columns_are_the_nonzero_column_entries(label):
    rd = build_root_datum(label)
    assert rd.cartan_columns == tuple(
        tuple((k, rd.cartan[k][i]) for k in range(rd.rank) if rd.cartan[k][i])
        for i in range(rd.rank)
    )
    if label == "G2":
        assert rd.cartan_columns == (((0, 2), (1, -3)), ((0, -1), (1, 2)))


def test_root_datum_is_an_immutable_picklable_tuple():
    rd = build_root_datum("B2")
    with pytest.raises(AttributeError):
        rd.rank = 3
    with pytest.raises(AttributeError):
        rd.cartan_columns = ()
    copy = pickle.loads(pickle.dumps(rd))
    assert copy == rd and hash(copy) == hash(rd)
    assert rd == tuple(rd)  # a NamedTuple equals the plain tuple of its fields


@pytest.mark.parametrize(
    "label,msg_part",
    [
        ("Z9", "cannot parse"),
        ("A0", "trivial"),
        ("B1", "rank >= 2"),
        ("C1", "rank >= 2"),
        ("D2", "rank >= 3"),
        ("E9", "ranks 6, 7, 8"),
        ("F5", "rank 4"),
        ("G3", "rank 2"),
        ("A99", "configured maximum"),
        ("", "cannot parse"),
        ("A2x", "'A2x': the product label has an empty factor"),
        ("xA2", "'xA2': the product label has an empty factor"),
        ("A2xx", "'A2xx': the product label has an empty factor"),
    ],
)
def test_unknown_labels(label, msg_part):
    with pytest.raises(UnknownTypeError, match=msg_part):
        build_root_datum(label)


def test_product_root_datum():
    rd = build_root_datum("A1xA1")
    assert rd.rank == 2
    assert set(rd.positive_roots) == {(2, 0), (0, 2)}
    assert rd.cartan == ((2, 0), (0, 2))


def test_dominant_conjugate_examples(a1, a2):
    assert dominant_conjugate(a1, (-3,)) == (3,)
    assert dominant_conjugate(a2, (-1, 2)) == (1, 1)
    # identity on the dominant chamber
    for lam in [(0, 0), (2, 1), (5, 0)]:
        assert dominant_conjugate(a2, lam) == lam


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_dominant_conjugate_brute_force(label):
    rd = build_root_datum(label)
    rng = range(-5, 6)
    for w in itertools.product(*[rng] * rd.rank):
        dom = dominant_conjugate(rd, w)
        assert all(x >= 0 for x in dom)
        assert dom in weyl_orbit(rd, w)
        assert dom == brute_dominant(rd, w)


CONJUGATE_LABELS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["G2", "F4", "E6", "E7", "E8", "A1xA1xA1", "B2xG2"]
)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_dominant_conjugate_matches_the_tuple_loop(data):
    # the in-place reflection over the nonzero Cartan entries against the
    # loop that rebuilds the tuple, on every supported type up to rank 8
    rd = build_root_datum(data.draw(st.sampled_from(CONJUGATE_LABELS)))
    w = data.draw(st.tuples(*[st.integers(-12, 12)] * rd.rank))
    assert dominant_conjugate(rd, w) == tuple_dominant_conjugate(rd, w)
    assert dominant_conjugate(rd, list(w)) == tuple_dominant_conjugate(rd, w)


@given(st.tuples(st.integers(-30, 30), st.integers(-30, 30)))
@settings(max_examples=60, deadline=None)
def test_dominant_conjugate_properties_b2(w):
    rd = build_root_datum("B2")
    dom = dominant_conjugate(rd, w)
    assert all(x >= 0 for x in dom)
    assert weight_norm_sq(rd, dom) == weight_norm_sq(rd, w)
    assert dominant_conjugate(rd, dom) == dom


def test_weight_norm_examples(a1, a2):
    assert weight_norm_sq(a1, (0,)) == 0
    assert weight_norm_sq(a1, (2,)) == 2
    assert weight_norm_sq(a2, (1, 1)) == 2


def test_weight_norm_b2_root_lengths(b2):
    # alpha1 is long (squared length 4), alpha2 short (2)
    assert weight_norm_sq(b2, b2.positive_roots[0]) == 4
    assert weight_norm_sq(b2, b2.positive_roots[1]) == 2


def test_weight_norm_g2_root_lengths():
    rd = build_root_datum("G2")
    lengths = sorted(weight_norm_sq(rd, a) for a in rd.positive_roots)
    assert lengths == [2, 2, 2, 6, 6, 6]


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_norm_weyl_invariance(label):
    rd = build_root_datum(label)
    for w in [(1,) * rd.rank, (2, 0)[: rd.rank], (1, 3)[: rd.rank]]:
        ns = weight_norm_sq(rd, w)
        for v in weyl_orbit(rd, w):
            assert weight_norm_sq(rd, v) == ns


def test_weyl_group_orders():
    for label, order in [("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12)]:
        assert len(weyl_group(build_root_datum(label))) == order


def test_enumerate_dominant_a1(a1):
    assert enumerate_dominant(a1, 16) == [(n,) for n in range(6)]
    assert enumerate_dominant(a1, 0) == [(0,)]
    assert enumerate_dominant(a1, Fraction(1, 2)) == [(0,), (1,)]


def test_enumerate_sorted_and_complete(b2):
    level = 20
    got = enumerate_dominant(b2, level)
    brute = [
        w
        for w in itertools.product(range(0, 12), repeat=2)
        if weight_norm_sq(b2, w) <= level
    ]
    assert set(got) == set(brute)
    keys = [(weight_norm_sq(b2, w), w) for w in got]
    assert keys == sorted(keys)


def test_enumerate_levi_dominant(b2):
    # nonnegative only on node 0; node 1 ranges over both signs
    got = enumerate_levi_dominant(b2, [0], 2)
    brute = {
        w
        for w in itertools.product(range(0, 3), range(-3, 4))
        if weight_norm_sq(b2, w) <= 2
    }
    assert set(got) == brute
    assert (1, -1) in brute and (-1, 1) not in set(got)


def test_sqrt_upper_bounds():
    for q in [Fraction(2), Fraction(18), Fraction(1, 2), Fraction(0)]:
        ub = sqrt_upper(q)
        assert ub * ub >= q
        assert (ub - Fraction(1, 10**5)) ** 2 < q or q == 0


# bounds past which the Fraction reference gets slow, per type
ENUMERATION_TYPES = {"A1": 60, "A2": 60, "B2": 60, "G2": 60, "A3": 12, "C3": 12, "A1xA1xA1": 12}


@pytest.mark.parametrize("label", sorted(ENUMERATION_TYPES))
@given(bound=st.fractions(min_value=0, max_value=12, max_denominator=12), scale=st.integers(1, 5))
@example(bound=Fraction(0), scale=1)
@example(bound=Fraction(33, 2), scale=1)
@example(bound=Fraction(1, 3), scale=1)
@settings(max_examples=12, deadline=None)
def test_enumeration_matches_fraction_reference(label, bound, scale):
    # every Levi subset; integer norms against the Fraction box walk
    rd = build_root_datum(label)
    bound = min(bound * scale, Fraction(ENUMERATION_TYPES[label]))
    for k in range(rd.rank + 1):
        for levi in itertools.combinations(range(rd.rank), k):
            got = enumerate_levi_dominant(rd, levi, bound)
            assert got == enumerate_levi_dominant_fractions(rd, levi, bound)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C3", "G2", "F4", "A1xA1xA1"])
def test_int_norm_scales_the_form(label):
    rd = build_root_datum(label)
    gram = gram_fractions(rd)
    assert all(x * rd.norm_scale == y for r, s in zip(gram, rd.int_gram) for x, y in zip(r, s))
    for w in itertools.islice(itertools.product(range(-2, 3), repeat=rd.rank), 200):
        ns = norm_sq_fractions(rd, w)
        assert int_norm(rd, w) == ns * rd.norm_scale
        for x in (ns, ns - Fraction(1, 7), ns + Fraction(1, 7)):
            assert (int_norm(rd, w) <= int_norm_bound(rd, x)) == (ns <= x)


PAIRING_TYPES = ["A1", "A2", "A3", "B2", "C3", "D4", "G2", "F4", "E6", "A1xA1xA1"]


@pytest.mark.parametrize("label", PAIRING_TYPES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_integer_pairing_matches_fraction_reference(label, data):
    # pairing, norms, simple-root coefficients and heights against the
    # reference form built from the Cartan matrix by Fraction Gauss-Jordan
    rd = build_root_datum(label)
    ints = st.lists(st.integers(-9, 9), min_size=rd.rank, max_size=rd.rank).map(tuple)
    a, b, c = data.draw(ints), data.draw(ints), data.draw(ints)
    scale = rd.norm_scale
    assert int_pair(rd, a, b) == form_fractions(rd, a, b) * scale
    assert weight_form(rd, a, b) == form_fractions(rd, a, b)
    assert int_norm(rd, a) == norm_sq_fractions(rd, a) * scale
    assert weight_norm_sq(rd, a) == norm_sq_fractions(rd, a)
    ref = root_coefficients_fractions(rd, a)
    expected = tuple(int(x) for x in ref) if all(x.denominator == 1 for x in ref) else None
    assert _root_coefficients(rd, a) == expected
    # c as simple-root coefficients: every root-lattice weight comes back
    w = tuple(sum(rd.cartan[i][k] * c[k] for k in range(rd.rank)) for i in range(rd.rank))
    assert _root_coefficients(rd, w) == c
    assert sum(c) == weight_height(rd, w)
    assert _depth(rd, w, (0,) * rd.rank) == (sum(c) if min(c) >= 0 else None)


def test_enumeration_refuses_a_box_over_the_limit(a1, b2):
    # refused before any point is visited, so this returns at once
    for rd in (a1, b2):
        for levi in ((), range(rd.rank)):
            with pytest.raises(OverflowError, match=f"over the limit of {MAX_WINDOW_POINTS}"):
                enumerate_levi_dominant(rd, levi, 10**30)
    assert enumerate_levi_dominant(a1, (), -1) == []


def test_enumeration_refuses_a_ball_over_the_limit(a1, a2, monkeypatch):
    # boxes under MAX_WINDOW_POINTS whose balls are over MAX_BALL_POINTS,
    # refused from the per-head counts before the list is built
    for rd, bound in ((a1, 10**15), (a2, 10**7)):
        with pytest.raises(OverflowError, match=f"over the limit of {MAX_BALL_POINTS}"):
            enumerate_levi_dominant(rd, (), bound)
    # A1's ball at bound n^2 / 2 holds the 2n + 1 integers in [-n, n]
    monkeypatch.setattr(rootdata, "MAX_BALL_POINTS", 11)
    assert enumerate_levi_dominant(a1, (), Fraction(25, 2))[-2:] == [(-5,), (5,)]
    with pytest.raises(OverflowError, match="its ball holds 13 weights, over the limit of 11"):
        enumerate_levi_dominant(a1, (), 18)
