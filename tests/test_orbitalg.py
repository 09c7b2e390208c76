from fractions import Fraction

import pytest

from kcone import (
    SubsetCapExceededError,
    build_root_datum,
    classify_orbits,
    enumerate_dominant,
    express_in_geometric_basis,
    full_basis,
    gamma_class,
    grading_data,
    kclass_add,
    kclass_scale,
    norm_constant,
    pushforward,
    pushforward_kernel,
    weight_norm_sq,
    weight_sub,
    weyl_dim,
)
from kcone import ktheory, orbitalg
from kcone.ktheory import KClass
from kcone.linalg import IntEchelon
from kcone.orbitalg import orbital_basis, spanning_set
from kcone.repcalc import _root_coefficients
from kcone.rootdata import int_norm

from helpers import (
    as_row,
    flatten_kclass,
    norm_sq_fractions,
    pushforward_reference,
    rank_steps,
    rational_rank,
    reference_spanning_set,
)
from test_sparse_kernels import LIVE, RECORDED


def test_norm_constant_values(a1, a2, b2):
    # A1: sqrt(2); A2: 3*sqrt(2); B2: 2 + 2*sqrt(2) + 2 = 4 + 2*sqrt(2)
    c1 = norm_constant(a1)
    assert Fraction(2) <= c1 * c1 <= Fraction(2) + Fraction(1, 10**4)
    c2 = norm_constant(a2)
    assert Fraction(18) <= c2 * c2 <= Fraction(18) + Fraction(1, 10**3)
    cb = norm_constant(b2)
    low = 24 + 16 * Fraction(141421356, 10**8)
    high = 24 + 16 * Fraction(141421357, 10**8) + Fraction(1, 10**3)
    assert low <= cb * cb <= high


def as_kclasses(span, index):
    """spanning_set's (phi, pairs, rank) triples as (phi, KClass) pairs."""
    return [
        (phi, KClass(tuple(sorted((index.weights[i], c) for i, c in pairs)), rank))
        for phi, pairs, rank in span
    ]


def own_spanning_set(rd, gd, bound_sq):
    """spanning_set on a ball, kernel and index of its own, as (phi, KClass)."""
    kernel = pushforward_kernel(rd, gd)
    ball, index = orbitalg._ball_and_index(rd, orbitalg._windows(rd, bound_sq).span_sq, [kernel])
    return as_kclasses(spanning_set(kernel, ball, index), index)


def test_spanning_set_a1_regular(a1):
    orbits = classify_orbits(a1)
    gd = grading_data(a1, orbits[1])
    span = own_spanning_set(a1, gd, 4)
    phis = [phi for phi, _ in span]
    # ordered by (norm^2, lex); torus Levi admits negative weights, and
    # (n,) gives the class of (-n,), met first, so it is dropped
    assert phis[:3] == [(0,), (-1,), (-2,)]
    assert all(phi[0] <= 0 for phi in phis)
    for phi, kc in span:
        assert kc.as_dict() == {(abs(phi[0]),): 1}
        assert kc.rank == 1
    assert pushforward(a1, pushforward_kernel(a1, gd), (1,)) == span[1][1]


def test_spanning_set_a1_zero_orbit(a1):
    gd = grading_data(a1, classify_orbits(a1)[0])
    span = own_spanning_set(a1, gd, 4)
    assert span[0][0] == (0,)
    assert span[0][1].as_dict() == {(0,): 1, (2,): -1}
    assert all(phi[0] >= 0 for phi, _ in span)


def test_full_basis_a1_strata(basis_cache):
    basis = basis_cache("A1", 16)
    zero = basis.strata[0]
    certified = [v for v in zero if v.certified]
    assert [v.kclass.as_dict() for v in certified] == [
        {(n,): 1, (n + 2,): -1} for n in range(4)
    ]
    assert [v.rank for v in certified] == [1, 2, 3, 4]
    regular = basis.strata[1]
    assert [v.kclass.as_dict() for v in regular] == [{(0,): 1}, {(1,): 1}]
    assert all(v.certified and v.rank == 1 for v in regular)


def test_full_basis_a2_regular_stratum(basis_cache):
    basis = basis_cache("A2", 18)
    regular = basis.strata[2]
    assert len(regular) == 3
    assert all(v.certified for v in regular)
    assert {tuple(v.kclass.coeffs) for v in regular} == {
        (((0, 0), 1),),
        (((0, 1), 1),),
        (((1, 0), 1),),
    }


# (label, bound, certified count, regular-orbit certified count); every
# basis that test_sparse_kernels checks against the dense reference is here
COUNT_CASES = [
    ("A1", 16, 6, 2),
    ("A1", 64, 12, 2),
    ("A2", 18, 22, 3),
    ("A2", 50, 54, 3),
    ("B2", 16, 10, 2),
    ("B2", 64, 32, 2),
    ("G2", 8, 4, 1),
    ("G2", 32, 9, 1),
    ("A1xA1", 16, 31, 4),
    ("A1xA1xA1", 2, 11, 8),
    ("A2", 200, 197, 3),
    ("A3", 2, 5, 4),
    ("C3", 1, 2, 2),
]

# (label, bound, larger bound): the certified lead -> orbit map at the
# bound is the restriction of the map at the larger bound
NESTED_BOUNDS = [("A2", 18, 50), ("A2", 50, 200), ("B2", 16, 64), ("G2", 8, 32),
                 ("A1", 16, 64), ("A3", 2, 8)]


def lead(rd, kc):
    """The support weight of kc that is largest in (norm^2, lex) order."""
    return max((w for w, _ in kc.coeffs), key=lambda w: (int_norm(rd, w), w))


def certified_leads(rd, basis):
    return {lead(rd, v.kclass): v.orbit_id for v in basis.certified_vectors()}


def test_certified_counts_match_window_dimension(basis_cache):
    # the invariants of the full_basis docstring: the certified vectors are
    # as many as the dominant weights inside the bound, every such weight's
    # class expands in them with integer coordinates, and the regular orbit
    # holds one certified vector per coset of X/Q that meets the bound; and
    # the lead rule that explains them
    assert {(label, bound) for label, bound, _, _ in COUNT_CASES} >= set(LIVE) | set(RECORDED)
    for label, bound, total, regular in COUNT_CASES:
        basis = basis_cache(label, bound)
        rd = build_root_datum(label)
        dominant = enumerate_dominant(rd, bound)
        assert len(basis.certified_vectors()) == len(dominant) == total, label
        for lam in dominant:
            coords = express_in_geometric_basis(rd, gamma_class(rd, lam), basis)
            acc = KClass(())
            for v, n in coords.items():
                acc = kclass_add(acc, kclass_scale(v.kclass, n))
            assert acc.coeffs == gamma_class(rd, lam).coeffs
        cosets = []
        for lam in dominant:
            if all(_root_coefficients(rd, weight_sub(lam, mu)) is None for mu in cosets):
                cosets.append(lam)
        top = max(basis.orbits, key=lambda o: o.dimension)
        certified = [v for v in basis.strata[top.id] if v.certified]
        assert len(certified) == len(cosets) == regular, label

        vectors = basis.all_vectors()
        leads = [lead(rd, v.kclass) for v in vectors]
        assert all(abs(v.kclass.as_dict()[w]) == 1 for v, w in zip(vectors, leads)), label
        assert len(set(leads)) == len(leads), label
        by_lead = certified_leads(rd, basis)
        assert sorted(by_lead) == sorted(dominant), label
        zero = min(basis.orbits, key=lambda o: o.dimension)
        assert sorted(w for w, o in by_lead.items() if o == zero.id) == sorted(
            lam for lam in dominant if min(lam) >= 2
        ), label
        assert sorted(w for w, o in by_lead.items() if o == top.id) == sorted(cosets), label
    for label, bound, larger in NESTED_BOUNDS:
        rd = build_root_datum(label)
        small = certified_leads(rd, basis_cache(label, bound))
        large = certified_leads(rd, basis_cache(label, larger))
        inside = {w: o for w, o in large.items() if weight_norm_sq(rd, w) <= bound}
        assert small == inside, (label, bound, larger)


def test_certified_lattice_is_unimodular(basis_cache):
    # the certified factorization is square, one class key per certified
    # vector, and every unit class has integer coordinates: the lattice the
    # certified vectors span is all of Z[X+] within the window
    for label, bound, total, _ in COUNT_CASES:
        basis = basis_cache(label, bound)
        certified, factorization = basis.certified_factorization
        keys = {w for v in certified for w, _ in v.kclass.coeffs}
        assert len(keys) == len(certified) == total, label
        for w in keys:
            assert factorization.carries(w)
            assert factorization.solve({w: 1})[1] == 1, (label, w)


def test_certified_supports_within_bound(basis_cache):
    for label, bound in [("A2", 18), ("B2", 16)]:
        rd = build_root_datum(label)
        for v in basis_cache(label, bound).certified_vectors():
            assert max(norm_sq_fractions(rd, w) for w, _ in v.kclass.coeffs) <= Fraction(bound)


def test_certified_vectors_independent(basis_cache):
    for label, bound in [("A1", 16), ("A2", 18), ("B2", 16)]:
        rd = build_root_datum(label)
        basis = basis_cache(label, bound)
        axis = enumerate_dominant(rd, basis.support_window_sq)
        index = {w: i for i, w in enumerate(axis)}
        rows = [flatten_kclass(v.kclass, index) for v in basis.certified_vectors()]
        assert rational_rank(rows) == len(rows)


def test_rank_bookkeeping(basis_cache):
    for label, bound in [("A2", 18), ("B2", 16)]:
        rd = build_root_datum(label)
        basis = basis_cache(label, bound)
        for orbit in basis.orbits:
            gd = grading_data(rd, orbit)
            for v in basis.strata[orbit.id]:
                recomputed = sum(
                    n * weyl_dim(rd, gd.levi_simple, phi) for phi, n in v.combination
                )
                assert recomputed == v.rank


def test_combination_reproduces_kclass(basis_cache):
    for label, bound in [("A2", 18), ("B2", 16)]:
        rd = build_root_datum(label)
        basis = basis_cache(label, bound)
        for orbit in basis.orbits:
            kernel = pushforward_kernel(rd, grading_data(rd, orbit))
            for v in basis.strata[orbit.id]:
                acc = KClass(())
                for phi, n in v.combination:
                    acc = kclass_add(acc, kclass_scale(pushforward(rd, kernel, phi), n))
                assert acc.coeffs == v.kclass.coeffs


def test_stability_under_bound_growth(basis_cache):
    small = basis_cache("A2", 18)
    big = basis_cache("A2", 32)
    for oid in (0, 1, 2):
        small_cert = [v.kclass for v in small.strata[oid] if v.certified]
        big_cert = [v.kclass for v in big.strata[oid] if v.certified]
        assert big_cert[: len(small_cert)] == small_cert
    # regular stratum count is stable: the component group has three classes
    assert sum(1 for v in big.strata[2] if v.certified) == 3


def test_boundary_kernel_a1(basis_cache):
    # skyscrapers reduce to zero modulo the zero-orbit stratum
    rd = build_root_datum("A1")
    basis = basis_cache("A1", 16)
    ech = IntEchelon()
    for v in basis.strata[0]:
        ech.add(as_row(v.kclass))
    from kcone import skyscraper_class

    for n in range(8):
        assert not ech.add(as_row(skyscraper_class(rd, (n,))))


def counting_enumeration(monkeypatch):
    calls = []
    real = orbitalg.enumerate_levi_dominant

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(orbitalg, "enumerate_levi_dominant", counting)
    return calls


def test_full_basis_enumerates_one_ball_per_call(monkeypatch, a2):
    calls = counting_enumeration(monkeypatch)
    first = full_basis(a2, 18)
    assert len(calls) == 1
    assert calls[0][1] == () and calls[0][2] == first.span_window_sq
    # nothing is cached across calls: a second basis enumerates again
    assert full_basis(a2, 18).strata == first.strata
    assert len(calls) == 2


def test_full_basis_checks_every_cap_before_the_ball(monkeypatch, a2):
    events = []
    real_cap = ktheory._check_subset_cap

    def recording_cap(nroots, context):
        events.append(context)
        return real_cap(nroots, context)

    def recording_enumeration(*args):
        events.append("ball")
        return []

    monkeypatch.setattr(ktheory, "_check_subset_cap", recording_cap)
    monkeypatch.setattr(orbitalg, "enumerate_levi_dominant", recording_enumeration)
    full_basis(a2, 18)
    orbits = classify_orbits(a2)
    caps = [f"pushforward on orbit {o.id} of A2" for o in orbits]
    assert events[: len(orbits) + 1] == caps + ["ball"]


def test_full_basis_checks_each_cap_once(monkeypatch, a2):
    # every cap check reads the cap, whichever module makes it
    events = []
    real_bits = ktheory._subset_cap_bits
    real_enumeration = orbitalg.enumerate_levi_dominant

    def recording_bits():
        events.append("cap")
        return real_bits()

    def recording_enumeration(*args):
        events.append("ball")
        return real_enumeration(*args)

    monkeypatch.setattr(ktheory, "_subset_cap_bits", recording_bits)
    monkeypatch.setattr(orbitalg, "enumerate_levi_dominant", recording_enumeration)
    full_basis(a2, 18)
    assert events == ["cap"] * len(classify_orbits(a2)) + ["ball"]


def test_full_basis_cap_fails_before_enumerating(monkeypatch, a2):
    def no_enumeration(*args):
        raise AssertionError("enumerated the span window before the cap check")

    monkeypatch.setenv("KCONE_MAX_SUBSET_BITS", "0")
    monkeypatch.setattr(orbitalg, "enumerate_levi_dominant", no_enumeration)
    with pytest.raises(SubsetCapExceededError, match="on orbit 0 of A2: .*2\\^3"):
        full_basis(a2, 10**12)


@pytest.mark.parametrize(
    "label,bound", [("A2", 8), ("B2", 4), ("G2", 2), ("A1xA1xA1", 1), ("C3", 0)]
)
def test_spanning_set_on_shared_ball_matches_reference(label, bound):
    # one ball and one index shared by every orbit, as full_basis uses them,
    # against the per-Levi enumeration and the per-phi pushforward with the
    # exact duplicates dropped after their first phi, and the per-phi
    # pushforward against the memo-free reference (on C3 every fifth phi,
    # to keep the reference quick)
    rd = build_root_datum(label)
    orbits = classify_orbits(rd)
    kernels = [pushforward_kernel(rd, grading_data(rd, orbit)) for orbit in orbits]
    ball, index = orbitalg._ball_and_index(rd, orbitalg._windows(rd, bound).span_sq, kernels)
    stride = 5 if label == "C3" else 1
    for orbit, kernel in zip(orbits, kernels):
        gd = grading_data(rd, orbit)
        span = as_kclasses(spanning_set(kernel, ball, index), index)
        first = {}
        for phi, kc in reference_spanning_set(rd, gd, bound):
            first.setdefault(kc, phi)
        assert span == [(phi, kc) for kc, phi in first.items()]
        for phi, kc in span[::stride]:
            assert kc == pushforward_reference(rd, gd, phi)


def test_orbital_basis_grows_echelon_by_returned_vectors(a2):
    win = orbitalg._windows(a2, 18)
    orbits = classify_orbits(a2)
    kernels = [pushforward_kernel(a2, grading_data(a2, orbit)) for orbit in orbits]
    ball, index = orbitalg._ball_and_index(a2, win.span_sq, kernels)
    ech = IntEchelon(fewest_holders=True)
    for orbit, kernel in zip(orbits, kernels):
        state = (win, kernel, ball, index)
        before = len(ech)
        vectors = orbital_basis(a2, orbit, ech, *state)
        assert len(ech) == before + len(vectors)
        # every returned class now lies in the span, its rows keyed by ids
        assert not any(
            ech.add({index.dominant_id(w): c for w, c in v.kclass.coeffs}) for v in vectors
        )
        # a second pass over the same orbit finds nothing new
        assert orbital_basis(a2, orbit, ech, *state) == []
        assert len(ech) == before + len(vectors)


def test_full_basis_adds_each_hermite_output_once(monkeypatch, b2):
    added, offered = [], []
    real_add, real_split = IntEchelon.add, orbitalg.hnf_certified_split

    def counting_add(self, row):
        added.append(row)
        return real_add(self, row)

    def counting_split(*args):
        split = real_split(*args)
        offered.append(len(split.certified) + len(split.provisional))
        return split

    monkeypatch.setattr(IntEchelon, "add", counting_add)
    monkeypatch.setattr(orbitalg, "hnf_certified_split", counting_split)
    basis = full_basis(b2, 16)
    assert len(added) == sum(offered)
    assert sum(offered) > len(basis.all_vectors())  # some outputs were rejected


def recorded_full_basis(monkeypatch, rd, bound, fewest_holders=True):
    """full_basis(rd, bound) with its boundary echelon built under the given
    pivot rule, and every row offered to it, as (row, kept) in order.  The
    rows are keyed by the dominant ids of the basis's WeightIndex."""
    offered, rules = [], []
    real_add = IntEchelon.add

    def recording_add(self, row):
        kept = real_add(self, row)
        offered.append((dict(row), kept))
        return kept

    def echelon(**rule):
        rules.append(rule)
        return IntEchelon(fewest_holders=fewest_holders)

    monkeypatch.setattr(IntEchelon, "add", recording_add)
    monkeypatch.setattr(orbitalg, "IntEchelon", echelon)
    basis = full_basis(rd, bound)
    monkeypatch.undo()
    assert rules == [{"fewest_holders": True}]  # the rule full_basis asks for
    assert not all(kept for _, kept in offered)  # some rows were rejected
    return basis, offered


REJECTING_BASES = [("A2", 18), ("B2", 16), ("G2", 8), ("A1xA1xA1", 2)]


@pytest.mark.parametrize("label,bound", REJECTING_BASES)
def test_rejected_rows_lie_in_the_span_of_the_kept_rows(monkeypatch, label, bound):
    _, offered = recorded_full_basis(monkeypatch, build_root_datum(label), bound)
    # the row keys are opaque labels: one axis position per key
    axis = sorted({k for row, _ in offered for k in row})
    dense = [[row.get(k, 0) for k in axis] for row, _ in offered]
    # a kept row raises the rank of the rows offered before it, a rejected one does not
    assert list(rank_steps(dense)) == [kept for _, kept in offered]


@pytest.mark.parametrize("label,bound", REJECTING_BASES)
def test_pivot_rules_keep_the_same_rows(monkeypatch, label, bound):
    # the fewest-holders rule of full_basis and the smallest-key rule: the
    # same rows offered, the same ones kept
    rd = build_root_datum(label)
    sparse, sparse_offered = recorded_full_basis(monkeypatch, rd, bound)
    smallest, smallest_offered = recorded_full_basis(monkeypatch, rd, bound, fewest_holders=False)
    assert sparse_offered == smallest_offered
    assert sparse.strata == smallest.strata


def test_zero_bound_basis(a1, a2):
    for rd in (a1, a2):
        basis = full_basis(rd, 0)
        zero_leads = [
            v.kclass.coeffs[0][0] for v in basis.strata[0] if v.kclass.coeffs
        ]
        assert (0,) * rd.rank in zero_leads


def test_full_basis_deterministic(a2):
    one = full_basis(a2, 8)
    two = full_basis(a2, 8)
    assert one.strata == two.strata


def test_product_type_pipeline():
    # end-to-end over a product type: skyscraper factorizes, cycles land on
    # the right orbits, and the regular stratum sees all four central characters
    from kcone import (
        associated_cycle,
        express_in_geometric_basis,
        gamma_class,
        skyscraper_class,
    )

    rd = build_root_datum("A1xA1")
    basis = full_basis(rd, 8)
    sky = skyscraper_class(rd, (0, 0))
    assert sky.as_dict() == {(0, 0): 1, (0, 2): -1, (2, 0): -1, (2, 2): 1}
    cyc = associated_cycle(express_in_geometric_basis(rd, sky, basis), basis.poset)
    assert cyc.components == ((0, 1),)
    cyc = associated_cycle(
        express_in_geometric_basis(rd, gamma_class(rd, (1, 0)), basis), basis.poset
    )
    assert cyc.components == ((3, 1),)
    regular = [v for v in basis.strata[3] if v.certified]
    assert len(regular) == 4  # component group of order 4
    # a class living on one of the two incomparable middle orbits
    gd = grading_data(rd, classify_orbits(rd)[1])
    pf = pushforward(rd, pushforward_kernel(rd, gd), (0, 0))
    assert pf.as_dict() == {(0, 0): 1, (2, 0): -1}
    cyc = associated_cycle(
        express_in_geometric_basis(rd, KClass(pf.coeffs), basis), basis.poset
    )
    assert cyc.components == ((1, 1),)


def test_vector_metadata(basis_cache):
    basis = basis_cache("A2", 18)
    for orbit in basis.orbits:
        for j, v in enumerate(basis.strata[orbit.id]):
            assert v.index == j
            assert v.orbit_id == orbit.id
