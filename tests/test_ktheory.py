import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcone import (
    KClass,
    SubsetCapExceededError,
    VirtualModule,
    build_root_datum,
    classify_orbits,
    dominant_conjugate,
    enumerate_dominant,
    gamma_class,
    grading_data,
    kclass_add,
    kclass_from_terms,
    kclass_scale,
    module_to_kclass,
    pushforward,
    pushforward_kernel,
    skyscraper_class,
    weyl_dim,
)
from kcone import ktheory
from kcone.ktheory import WeightIndex, _subset_cap_bits, hnf_certified_split
from kcone.orbitalg import _ball_and_index, _windows

from helpers import (
    as_row,
    brute_dominant,
    brute_pushforward,
    decode,
    dense_hnf_certified_split,
    id_row_split,
    pushforward_reference,
    reference_spanning_set,
    split_classes,
    tuple_dominant_conjugate,
    weyl_dim_fractions,
    weyl_group,
)


def test_gamma_class_examples(a1, a2):
    assert gamma_class(a1, (2,)).as_dict() == {(2,): 1}
    assert gamma_class(a2, (-1, 2)).as_dict() == {(1, 1): 1}
    assert gamma_class(a2, (0, 0)).as_dict() == {(0, 0): 1}
    assert gamma_class(a1, (2,)).rank is None


def test_std_to_class_examples(a1, a2):
    # a standard module's class depends only on the sum of its parameters
    def std(rd, lam_l, lam_r):
        return module_to_kclass(rd, VirtualModule(terms=((1, lam_l, lam_r),))).as_dict()

    assert std(a1, (1,), (1,)) == {(2,): 1}
    assert std(a1, (0,), (0,)) == {(0,): 1}
    assert std(a2, (1, 0), (-2, 2)) == {(1, 1): 1}


def test_pushforward_a1_regular(a1):
    orbits = classify_orbits(a1)
    gd = grading_data(a1, orbits[1])
    for n in range(4):
        kc = pushforward(a1, pushforward_kernel(a1, gd), (n,))
        assert kc.as_dict() == {(n,): 1} and kc.rank == 1
    # Levi is the torus: negative weights allowed, folded on output
    assert pushforward(a1, pushforward_kernel(a1, gd), (-3,)).as_dict() == {(3,): 1}


def test_pushforward_a2_subregular(a2):
    orbits = classify_orbits(a2)
    gd = grading_data(a2, orbits[1])
    kc = pushforward(a2, pushforward_kernel(a2, gd), (0, 0))
    assert kc.as_dict() == {(0, 0): 1, (1, 1): -1}
    assert kc.rank == 1


def test_pushforward_a1_zero_orbit(a1):
    gd = grading_data(a1, classify_orbits(a1)[0])
    kc = pushforward(a1, pushforward_kernel(a1, gd), (0,))
    assert kc.as_dict() == {(0,): 1, (2,): -1}
    assert kc.rank == 1


def test_skyscraper_examples(a1, a2):
    assert skyscraper_class(a1, (0,)).as_dict() == {(0,): 1, (2,): -1}
    for n in range(5):
        kc = skyscraper_class(a1, (n,))
        assert kc.as_dict() == {(n,): 1, (n + 2,): -1}
        assert kc.rank == n + 1
    assert skyscraper_class(a2, (0, 0)).as_dict() == {
        (0, 0): 1,
        (1, 1): -2,
        (3, 0): 1,
        (0, 3): 1,
        (2, 2): -1,
    }


def test_skyscraper_equals_zero_orbit_pushforward(a2, b2):
    for rd in (a2, b2):
        gd = grading_data(rd, classify_orbits(rd)[0])
        for phi in [(0,) * rd.rank, (1, 0), (1, 1)]:
            kernel = pushforward_kernel(rd, gd)
            assert pushforward(rd, kernel, phi) == skyscraper_class(rd, phi)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1xA1"])
def test_pushforward_matches_brute_force_enumeration(label):
    # the kernel's class against the per-phi reference and its rank against
    # the Fraction Weyl formula, on seeded Levi-dominant phi that often lie
    # on a wall of the Levi chamber; on rank 2 also against the explicit
    # enumeration of all subset pairs
    rd = build_root_datum(label)
    rng = random.Random(label)
    for orbit in classify_orbits(rd):
        gd = grading_data(rd, orbit)
        kernel = pushforward_kernel(rd, gd)
        phis = [(0,) * rd.rank, (1, 0), (0, 2)] if rd.rank == 2 else [(0,) * rd.rank]
        for _ in range(6):
            phis.append(
                tuple(
                    rng.choice((0, rng.randint(1, 4))) if i in gd.levi_simple
                    else rng.randint(-4, 4)
                    for i in range(rd.rank)
                )
            )
        for phi in phis:
            if any(phi[i] < 0 for i in gd.levi_simple):
                continue
            kc = pushforward(rd, kernel, phi)
            assert kc == pushforward_reference(rd, gd, phi), phi
            assert kc.rank == weyl_dim_fractions(rd, gd.levi_simple, phi), phi
            if rd.rank == 2:
                assert kc.as_dict() == brute_pushforward(rd, gd, phi), phi


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_skyscraper_matches_weyl_numerator(label):
    # sum over the Weyl group of sign(w) [phi + rho - w(rho)], folded
    rd = build_root_datum(label)
    rho = (1,) * rd.rank
    group = weyl_group(rd)
    for phi in [(0,) * rd.rank, (2, 1)[: rd.rank], (0, 1)[: rd.rank]]:
        acc: dict[tuple, int] = {}
        for m, length in group:
            w_rho = tuple(sum(m[i][j] * rho[j] for j in range(rd.rank)) for i in range(rd.rank))
            term = tuple(phi[i] + rho[i] - w_rho[i] for i in range(rd.rank))
            folded = brute_dominant(rd, term)
            acc[folded] = acc.get(folded, 0) + (-1 if length % 2 else 1)
        acc = {w: c for w, c in acc.items() if c}
        assert skyscraper_class(rd, phi).as_dict() == acc


def test_pushforward_validation(a2):
    orbits = classify_orbits(a2)
    gd = grading_data(a2, orbits[0])  # Levi = full group
    with pytest.raises(ValueError, match="not dominant"):
        pushforward(a2, pushforward_kernel(a2, gd), (-1, 0))
    with pytest.raises(ValueError, match="rank"):
        pushforward(a2, pushforward_kernel(a2, gd), (1, 0, 0))
    with pytest.raises(ValueError):
        skyscraper_class(a2, (0, -1))


def test_weights_of_the_wrong_length_raise(a2):
    # each of these once answered: a dimension 2, a class truncated to rank
    # 2, a class on a rank-1 weight, and an IndexError
    for call in (
        lambda: weyl_dim(a2, (0,), (1, 0, 5)),
        lambda: skyscraper_class(a2, (1, 0, 2)),
        lambda: gamma_class(a2, (1,)),
        lambda: skyscraper_class(a2, (1,)),
    ):
        with pytest.raises(ValueError, match="wrong rank for A2"):
            call()


def test_subset_cap(monkeypatch, b2):
    monkeypatch.setenv("KCONE_MAX_SUBSET_BITS", "2")
    gd = grading_data(b2, classify_orbits(b2)[0])
    with pytest.raises(SubsetCapExceededError, match="2\\^4"):
        pushforward(b2, pushforward_kernel(b2, gd), (0, 0))
    monkeypatch.setenv("KCONE_MAX_SUBSET_BITS", "not-a-number")
    with pytest.raises(ValueError):
        pushforward(b2, pushforward_kernel(b2, gd), (0, 0))


def test_folding_weyl_invariance_brute(a2):
    # building a class from Weyl-translated weights gives the same class
    group = weyl_group(a2)
    terms = [((1, 2), 3), ((0, 1), -1), ((2, 2), 2)]
    base = kclass_from_terms(a2, terms)
    for m, _ in group:
        moved = [
            (tuple(sum(m[i][j] * w[j] for j in range(2)) for i in range(2)), c)
            for w, c in terms
        ]
        assert kclass_from_terms(a2, moved) == base


@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)), st.integers(-3, 3)
        ),
        max_size=6,
    )
)
@settings(max_examples=40, deadline=None)
def test_folding_random_multisets_b2(terms):
    rd = build_root_datum("B2")
    built = kclass_from_terms(rd, terms)
    # same class from pre-folded representatives
    folded = [(dominant_conjugate(rd, w), c) for w, c in terms]
    assert kclass_from_terms(rd, folded) == built
    assert all(all(x >= 0 for x in w) for w, _ in built.coeffs)
    assert all(c != 0 for _, c in built.coeffs)


def test_kclass_arithmetic(a1):
    a = KClass((((0,), 1),), 1)
    b = KClass((((0,), -1), ((2,), 2)), 3)
    s = kclass_add(a, b)
    assert s.as_dict() == {(2,): 2}
    assert s.rank == 4
    assert kclass_scale(b, -2).as_dict() == {(0,): 2, (2,): -4}
    assert kclass_scale(b, -2).rank == -6
    assert kclass_add(a, KClass((), None)).rank is None
    assert not kclass_scale(a, 0).coeffs
    # linalg rows are keyed by negated weights: the pivot is the largest weight
    assert as_row(b) == {(0,): -1, (-2,): 2}
    assert min(as_row(b)) == (-2,)


def test_subset_cap_must_be_nonnegative(monkeypatch):
    monkeypatch.setenv("KCONE_MAX_SUBSET_BITS", "-1")
    with pytest.raises(ValueError, match="nonnegative"):
        _subset_cap_bits()
    monkeypatch.setenv("KCONE_MAX_SUBSET_BITS", "0")
    assert _subset_cap_bits() == 0


def test_hnf_split_rejects_out_of_window(a1):
    # (8,) has norm^2 32 > 16; (2,) and (4,) fit.  The index holds int_norm
    # (norm_scale 2 times norm^2), and a weight it already holds is still
    # checked against each window
    index = WeightIndex(a1, (0,), (8,))
    two, four, eight = (index.dominant_id(w) for w in [(2,), (4,), (8,)])
    assert index.norms == [4, 16, 64]
    rows = [((two, 1), (four, -1))]
    assert hnf_certified_split(a1, rows, 16, 16, index).certified[0].row == {two: 1, four: -1}
    assert hnf_certified_split(a1, [((eight, 1),)], 64, 64, index).certified
    with pytest.raises(ValueError, match="outside the support window"):
        hnf_certified_split(a1, rows + [((eight, 1),)], 16, 16, index)


@pytest.mark.parametrize("label,bound", [("A2", 50), ("B2", 16), ("G2", 8), ("A1xA1xA1", 2)])
def test_weight_codes_on_the_ball_and_offsets(label, bound):
    # the index full_basis builds: over every ball weight and every offset
    # of every orbit kernel, codes decode, shift, and sort like the tuples
    rd = build_root_datum(label)
    kernels = [pushforward_kernel(rd, grading_data(rd, o)) for o in classify_orbits(rd)]
    ball, index = _ball_and_index(rd, _windows(rd, bound).span_sq, kernels)
    assert ball.codes == [index.code(w) for w in ball.weights]
    offsets = {s for kernel in kernels for s, _ in kernel.offsets}
    moved = set()
    for s in offsets:
        shift = index.shift(s)
        for phi, code in zip(ball.weights, ball.codes):
            w = tuple(p + x for p, x in zip(phi, s))
            assert index.code(w) == code + shift
            moved.add(w)
    box = 1
    for width in index.widths:
        box *= width
    assert all(0 <= index.code(w) < box and decode(index, index.code(w)) == w for w in moved)
    assert sorted(moved, key=index.code) == sorted(moved)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_weight_codes_in_any_box(data):
    rank = data.draw(st.integers(1, 4))
    rd = build_root_datum("x".join(["A1"] * rank))
    lo = data.draw(st.lists(st.integers(-9, 9), min_size=rank, max_size=rank))
    hi = [x + data.draw(st.integers(0, 6)) for x in lo]
    index = WeightIndex(rd, lo, hi)
    point = st.tuples(*(st.integers(a, b) for a, b in zip(lo, hi)))
    weights = data.draw(st.lists(point, min_size=1, max_size=12))
    codes = [index.code(w) for w in weights]
    assert [decode(index, c) for c in codes] == weights
    assert [decode(index, c) for c in sorted(codes)] == sorted(weights)
    for v, cv in zip(weights, codes):
        for w, cw in zip(weights, codes):
            assert cv + index.shift(tuple(b - a for a, b in zip(v, w))) == cw


def test_weight_index_folds_each_code_once(a2, monkeypatch):
    calls = []
    real = ktheory.dominant_conjugate

    def counting(rd, w):
        calls.append(w)
        return real(rd, w)

    monkeypatch.setattr(ktheory, "dominant_conjugate", counting)
    index = WeightIndex(a2, (-3, -3), (3, 3))
    points = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    index.fold(index.code(w) for w in points)
    index.fold(index.code(w) for w in points[::2])
    assert sorted(calls) == sorted(points)  # the second fold found every code
    for w in points:
        i = index.conjugate[index.code(w)]
        assert index.weights[i] == brute_dominant(a2, w)
        assert index.dominant_id(index.weights[i]) == i


@pytest.mark.parametrize("label,bound", [("A2", 50), ("B2", 16), ("G2", 8), ("A1xA1xA1", 2)])
def test_weight_index_fold_matches_the_tuple_loop(label, bound):
    # every code of the box full_basis builds, folded at once, against the
    # loop that rebuilds the tuple at each reflection
    rd = build_root_datum(label)
    win = _windows(rd, bound)
    kernels = [pushforward_kernel(rd, grading_data(rd, o)) for o in classify_orbits(rd)]
    _, index = _ball_and_index(rd, win.span_sq, kernels)
    size = 1
    for width in index.widths:
        size *= width
    index.fold(range(size))
    assert len(index.conjugate) == size
    for c in range(size):
        w = decode(index, c)
        assert index.weights[index.conjugate[c]] == tuple_dominant_conjugate(rd, w), w


def test_hnf_certified_split_a1_skyscrapers(a1):
    vectors = [skyscraper_class(a1, (n,)) for n in range(8)]
    certified, provisional = split_classes(a1, vectors, Fraction(50), Fraction(16))
    assert [kc.as_dict() for kc, _ in certified] == [{(n,): 1, (n + 2,): -1} for n in range(4)]
    assert [comb for _, comb in certified] == [((n, 1),) for n in range(4)]
    assert [kc.as_dict() for kc, _ in provisional] == [
        {(n,): 1, (n + 2,): -1} for n in range(4, 8)
    ]
    # combinations reproduce the classes exactly
    for kc, comb in certified + provisional:
        acc = KClass(())
        for t, c in comb:
            acc = kclass_add(acc, kclass_scale(vectors[t], c))
        assert acc.coeffs == kc.coeffs


@pytest.mark.parametrize("label,bound", [("A2", 50), ("B2", 16), ("G2", 8), ("A1xA1", 16)])
def test_tracked_combinations_reproduce_their_rows(label, bound):
    # every orbit's deduplicated spanning set, as orbital_basis splits it;
    # every certified and provisional output, summed from its inputs
    rd = build_root_datum(label)
    win = _windows(rd, bound)
    for orbit in classify_orbits(rd):
        span = reference_spanning_set(rd, grading_data(rd, orbit), bound)
        vectors = list(dict.fromkeys(kc for _, kc in span))
        certified, provisional = split_classes(rd, vectors, win.support_sq, win.bound_sq)
        assert certified or provisional
        for kc, comb in certified + provisional:
            acc = {}
            for t, n in comb:
                assert n
                for w, c in vectors[t].coeffs:
                    acc[w] = acc.get(w, 0) + n * c
            assert {w: c for w, c in acc.items() if c} == kc.as_dict()


@st.composite
def small_entry_classes(draw):
    """A2 classes on the dominant weights of norm^2 <= 14, with entries in +-1, +-2, +-3.

    Entries 2 and 3 in one column leave a remainder, so buckets take
    several passes and a pivot is reduced after other rows subtracted it.
    """
    rd = build_root_datum("A2")
    window = enumerate_dominant(rd, 14)
    coef = st.sampled_from([1, -1, 2, -2, 3, -3])
    vectors = draw(
        st.lists(
            st.dictionaries(st.sampled_from(window), coef, min_size=1, max_size=5),
            min_size=1,
            max_size=10,
        )
    )
    return rd, [KClass(tuple(sorted(v.items()))) for v in vectors]


def test_a_recorded_pivot_is_reduced_in_a_later_pass(a1):
    # inputs r0 = [0] + 2[4] and r1 = [2] + 3[4].  Column (4,): the pivot r0
    # takes r1 to r1 - r0 = -[0] + [2] + [4]; in the second pass that row is
    # the pivot, and takes r0, which it was reduced by, to 3 r0 - 2 r1 = 3[0] - 2[2]
    vectors = [KClass((((0,), 1), ((4,), 2))), KClass((((2,), 1), ((4,), 3)))]
    certified, provisional = split_classes(a1, vectors, Fraction(8), Fraction(8))
    dense = dense_hnf_certified_split(a1, vectors, Fraction(8), Fraction(8))
    assert [(kc.coeffs, comb) for kc, comb in certified] == dense[0]
    assert [(kc.coeffs, comb) for kc, comb in certified] == [
        ((((0,), 3), ((2,), -2)), ((0, 3), (1, -2))),
        ((((0,), 1), ((2,), -1), ((4,), -1)), ((0, 1), (1, -1))),
    ]
    assert not provisional and not dense[1]


@given(small_entry_classes())
@settings(max_examples=150, deadline=None)
def test_replayed_combinations_match_the_dense_split(drawn):
    rd, vectors = drawn
    certified, provisional = split_classes(rd, vectors, Fraction(14), Fraction(6))
    dense = dense_hnf_certified_split(rd, vectors, Fraction(14), Fraction(6))
    assert [(kc.coeffs, comb) for kc, comb in certified] == dense[0]
    assert [(kc.coeffs, comb) for kc, comb in provisional] == dense[1]


@given(small_entry_classes(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_replay_reproduces_every_row_in_any_read_order(drawn, rng):
    # sum_t c_t input_t is the output row; and the combinations read in a
    # shuffled order, provisional first, equal those of a fresh split
    # read certified first
    rd, vectors = drawn
    split, rows, _ = id_row_split(rd, vectors, 14, 6)
    outputs = list(split.certified + split.provisional)
    shuffled = list(split.provisional) + list(split.certified)
    rng.shuffle(shuffled)
    for tv in shuffled:
        acc = {}
        for t, n in tv.combination:
            assert n
            for i, c in rows[t]:
                acc[i] = acc.get(i, 0) + n * c
        assert {i: c for i, c in acc.items() if c} == tv.row
    fresh, _, _ = id_row_split(rd, vectors, 14, 6)
    assert [tv.combination for tv in fresh.certified + fresh.provisional] == [
        tv.combination for tv in outputs
    ]


def test_an_unread_combination_is_never_replayed(monkeypatch):
    # combinations are carried, not replayed: a row that no subtraction
    # touches keeps its input index t, or ~t once negated, and gets no
    # dict, and its combination reads ((t, +-1),); a row a subtraction
    # touches holds a dict no other row shares.  A2's subregular orbit
    # gives untouched outputs of both signs and touched ones
    rd = build_root_datum("A2")
    win = _windows(rd, 50)
    orbit = classify_orbits(rd)[1]
    span = reference_spanning_set(rd, grading_data(rd, orbit), 50)
    vectors = list(dict.fromkeys(kc for _, kc in span))
    touched = set()
    real = ktheory._TrackedRow.subtract

    def counting(row, q, other):
        touched.add(row.order)
        return real(row, q, other)

    monkeypatch.setattr(ktheory._TrackedRow, "subtract", counting)
    split, rows, _ = id_row_split(rd, vectors, win.support_sq, win.bound_sq)
    outputs = split.certified + split.provisional
    untouched = [tv for tv in outputs if type(tv._comb) is int]
    assert {tv.combination[0][0] for tv in untouched} == {
        t for t, row in enumerate(rows) if row and t not in touched
    }
    for tv in untouched:
        [(t, n)] = tv.combination
        assert tv._comb == (t if n == 1 else ~t)
        assert tv.row == {i: n * c for i, c in rows[t]}
    assert {n for tv in untouched for _, n in tv.combination} == {1, -1}
    dicts = [tv._comb for tv in outputs if type(tv._comb) is dict]
    assert dicts and len(untouched) + len(dicts) == len(outputs)
    assert len({id(d) for d in dicts}) == len(dicts)
