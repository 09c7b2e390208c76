"""Per-orbit geometric bases of equivariant K-theory, by closure induction.

For a target norm bound N the computation works in two nested windows:
Levi highest weights phi are enumerated up to ||phi|| <= N + C, and every
class they push forward is supported on dominant weights of norm at most
N + 2C, where C is an upper bound for the length of any sum of distinct
positive roots (we use the sum of the lengths of all positive roots).  The
second window is a check, not an axis: all linear algebra runs on sparse
rows over the weights the classes actually carry.  Square roots are
replaced by rational upper bounds, which only enlarges the windows and
never affects soundness; certification of a basis vector is the exact
test that its whole support has norm^2 <= N^2.

One call graph: full_basis builds all per-basis state (the windows, each
orbit's pushforward kernel, the span-window ball and one
ktheory.WeightIndex, which codes every weight as an int and gives each
dominant conjugate an id, its norm and its weight) and passes it down
full_basis -> orbital_basis -> spanning_set -> pushforward_classes, and
orbital_basis -> hnf_certified_split.  Weights travel as codes and ids
from the pushforward through the boundary echelon; tuples are rebuilt
only for the vectors the echelon keeps.
Every orbit filters the one ball on its Levi nodes, and every window test
compares rootdata.int_norm(w) with rootdata.int_norm_bound of the window,
the same test as with Fraction norms.  No state outlives a full_basis call.

Per orbit, the pushforward spanning set (in (norm^2, lex) order of the
Levi weight) generates an integer lattice of classes.  Hermite reduction
splits a basis of that lattice into certified vectors, whose entire
support fits inside the bound, and provisional ones, whose support leaks
past it: single pushforwards rarely stay inside the window (their support
drifts by root sums), but integer combinations cancelling the drift do,
and the reduction finds exactly the sublattice of such combinations.
Orbits are processed in (dimension, id) order, which extends the closure
order, and one echelon holds every vector kept so far: a vector already in
the span of the earlier strata is discarded.  The certified survivors are
what downstream cycle computations consume, while provisional ones are
genuine classes on the closure whose independence the truncated
computation cannot certify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .ktheory import (
    KClass,
    PushforwardKernel,
    WeightIndex,
    hnf_certified_split,
    pushforward_classes,
    pushforward_kernel,
)
from .linalg import Factorization, IntEchelon
from .nilpotent import (
    ClosurePoset,
    NilpotentOrbit,
    classify_orbits,
    closure_poset,
    grading_data,
)
from .rootdata import (
    RootDatum,
    Weight,
    enumerate_levi_dominant,
    int_norm_bound,
    sqrt_upper,
    weight_norm_sq,
)


@dataclass(frozen=True)
class GeometricBasisVector:
    """One basis element of the K-theory of an orbit closure mod boundary."""

    orbit_id: int
    index: int
    kclass: KClass
    rank: int
    combination: tuple[tuple[Weight, int], ...]  # (Levi highest weight, coefficient)
    certified: bool
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Store hash((orbit_id, index)), which __hash__ returns.

        The generated __eq__ compares every field but _hash, so equal
        vectors have equal orbit_id and index, hence equal hashes, also
        across builds.  dataclasses.replace runs this again, and copy and
        pickle carry the stored int with the fields it was computed from.
        The generated hash would rehash the KClass and the combination on
        every lookup, and a computed one would build a tuple.
        """
        object.__setattr__(self, "_hash", hash((self.orbit_id, self.index)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class GeometricBasis:
    """All per-orbit strata for one bound, plus the window bookkeeping.

    Immutable: orbits is stored as a tuple and strata as a read-only
    mapping of tuples, so assigning basis.strata[k] or basis.strata[k][i]
    raises TypeError and dataclasses.replace builds a new basis, whose
    certified_factorization is built afresh.
    """

    type_label: str
    bound_sq: Fraction
    norm_constant: Fraction
    span_window_sq: Fraction
    support_window_sq: Fraction
    orbits: tuple[NilpotentOrbit, ...]
    poset: ClosurePoset
    strata: Mapping[int, tuple[GeometricBasisVector, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "orbits", tuple(self.orbits))
        strata = MappingProxyType({k: tuple(s) for k, s in self.strata.items()})
        object.__setattr__(self, "strata", strata)

    @cached_property
    def certified_factorization(self) -> tuple[tuple[GeometricBasisVector, ...], Factorization]:
        """The certified vectors, in certified_vectors() order, and their Factorization.

        Built on the first read and kept: the basis cannot change, and
        Factorization.solve never writes its columns, so every read gives what
        a fresh build would.  Raises ValueError if the certified vectors are
        dependent; an exception is not cached, so every read raises again.
        cached_property builds under a lock on Python 3.10 and 3.11; on 3.12
        and later two threads may both build it, which only costs time.
        """
        certified = tuple(self.certified_vectors())
        return certified, Factorization([v.kclass.as_dict() for v in certified])

    def certified_vectors(self) -> list[GeometricBasisVector]:
        return [v for v in self.all_vectors() if v.certified]

    def all_vectors(self) -> list[GeometricBasisVector]:
        out = []
        for orbit in self.orbits:  # already ordered by (dimension, id)
            out.extend(self.strata[orbit.id])
        return out


def norm_constant(rd: RootDatum) -> Fraction:
    """Rational upper bound for the sum of the lengths of all positive roots.

    Bounds the length of any signed sum of distinct positive roots, hence
    the drift between a Levi weight and the supports of its pushforward.
    """
    return sum(
        (sqrt_upper(weight_norm_sq(rd, a)) for a in rd.positive_roots), Fraction(0)
    )


@dataclass(frozen=True)
class _Windows:
    bound_sq: Fraction
    c_bound: Fraction
    span_sq: Fraction
    support_sq: Fraction


def _windows(rd: RootDatum, bound_sq) -> _Windows:
    bound_sq = Fraction(bound_sq)
    if bound_sq < 0:
        raise ValueError("bound_sq must be nonnegative")
    c = norm_constant(rd)
    b = sqrt_upper(bound_sq)
    return _Windows(bound_sq, c, (b + c) ** 2, (b + 2 * c) ** 2)


class _Ball(NamedTuple):
    """The span-window ball of a basis, with what every orbit reads of it.

    weights is enumerate_levi_dominant(rd, (), span window), codes[j] is
    index.code(weights[j]) and negative[j] has bit i set when coordinate i
    of weights[j] is negative.
    """

    weights: list[Weight]
    codes: list[int]
    negative: list[int]


def _ball_and_index(
    rd: RootDatum, span_sq: Fraction, kernels: Sequence[PushforwardKernel]
) -> tuple[_Ball, WeightIndex]:
    """The span-window ball and the WeightIndex around it and every kernel's offsets."""
    ball = enumerate_levi_dominant(rd, (), span_sq)
    index = WeightIndex.around(rd, ball, kernels)
    codes = [index.code(w) for w in ball]
    negative = [sum(1 << i for i, x in enumerate(w) if x < 0) for w in ball]
    return _Ball(ball, codes, negative), index


def spanning_set(
    kernel: PushforwardKernel, ball: _Ball, index: WeightIndex
) -> list[tuple[Weight, tuple[tuple[int, int], ...], int]]:
    """The distinct pushforward classes of the Levi-dominant weights in the span window.

    As (phi, pairs, rank) in (norm^2, lex) order of the Levi weight phi,
    each class kept at the first phi that gives it (see
    pushforward_classes).  The weights are those of ball with no negative
    coordinate on the Levi nodes.  That is, in order, the list
    enumerate_levi_dominant(rd, levi, span window) returns: both are the
    same set, and a subsequence of a list sorted by (norm^2, lex) is sorted
    by it.  index is the basis's WeightIndex, whose box holds phi + s for
    every offset s of kernel.
    """
    levi = sum(1 << i for i in kernel.levi_simple)
    keep = [not m & levi for m in ball.negative]
    phis = list(compress(ball.weights, keep))
    return pushforward_classes(kernel, index, phis, list(compress(ball.codes, keep)))


def orbital_basis(
    rd: RootDatum,
    orbit: NilpotentOrbit,
    echelon: IntEchelon,
    win: _Windows,
    kernel: PushforwardKernel,
    ball: _Ball,
    index: WeightIndex,
) -> list[GeometricBasisVector]:
    """Basis of the orbit's K-theory modulo the classes already in echelon.

    echelon must span the vectors of every orbit before this one in
    (dimension, id) order, computed in the same windows win; each returned
    vector is added to it, and no other row is.  kernel, ball and index
    are passed to spanning_set, and index to hnf_certified_split.  The
    split's rows, keyed by index ids, go into echelon as they are; the ids
    are only labels, so they change no decision (see IntEchelon).  A
    KClass is built only for a row the echelon keeps.

    Working modulo the boundary only needs the strata strictly below the
    orbit in the closure order; they all come earlier, since a boundary
    orbit has smaller dimension.  Testing against every earlier stratum
    keeps the same vectors whenever the strata that the strictly-below test
    would produce are linearly independent together.  Whether a vector is
    kept depends only on the span it is tested against, and by induction
    over orbits and candidates: a vector that test rejects lies in its
    smaller span, hence in this one; a vector it keeps lies outside the span
    of all other kept vectors, in particular of the earlier ones.
    express_in_geometric_basis needs that independence of the certified
    vectors anyway; the shared echelon makes it hold by construction.
    """
    certify_bound = int_norm_bound(rd, win.bound_sq)
    candidates = spanning_set(kernel, ball, index)
    split = hnf_certified_split(
        rd, [pairs for _, pairs, _ in candidates], win.support_sq, win.bound_sq, index
    )

    weights, norms = index.weights, index.norms
    vectors = []
    for tracked, certified in [(t, True) for t in split.certified] + [
        (t, False) for t in split.provisional
    ]:
        if not echelon.add(tracked.row):
            continue  # already in the span of earlier vectors
        comb = tracked.combination
        combination = tuple((candidates[t][0], n) for t, n in comb)
        rank = sum(n * candidates[t][2] for t, n in comb)
        if certified:
            assert all(norms[i] <= certify_bound for i in tracked.row)
        vectors.append(
            GeometricBasisVector(
                orbit_id=orbit.id,
                index=len(vectors),
                kclass=KClass(tuple(sorted((weights[i], c) for i, c in tracked.row.items())), rank),
                rank=rank,
                combination=combination,
                certified=certified,
            )
        )
    return vectors


def full_basis(rd: RootDatum, bound_sq) -> GeometricBasis:
    """Geometric basis for every orbit, by induction over the closure order.

    This call builds all per-basis and per-orbit state: the windows, each
    orbit's pushforward kernel, the span-window ball with its codes, the
    WeightIndex and the boundary echelon; all of it is dropped when the
    call returns.  The boundary echelon pivots at the
    key held by the fewest stored rows, which keeps its back-substitution
    sparse.  Building a kernel checks its orbit's subset cap first, so
    every cap is checked once, before the ball, which can dwarf the check,
    is enumerated.

    The lead rule, tested and proved in part.  The lead of a vector is its
    support weight that is largest in (norm^2, lex) order, the order of the
    split's columns.  Every vector, certified or provisional, has coefficient
    +-1 at its lead, no two vectors share a lead, and the certified leads
    are exactly the dominant weights of norm^2 <= bound_sq; so the certified
    vectors are a unitriangular Z-basis of the classes supported within the
    bound.  The zero orbit's certified leads are the lam with lam - 2 rho
    dominant, the regular orbit's the least weight of each coset of X/Q that
    meets the bound (as the Lusztig-Vogan bijection gives; Ostrik,
    Represent. Theory 4, 2000), and the lead -> orbit map at one bound is
    the restriction of the map at a larger one.
    test_certified_counts_match_window_dimension checks all of this on
    thirteen bases of rank 1 to 3 and six pairs of bounds.  Proved: a row
    with a new lead is independent of kept rows with distinct leads, because
    the lead of a nonzero combination of such rows is the largest lead it
    uses.  Proved for the zero orbit: its kernel is the product of
    (1 - e^beta) over beta > 0, so the class of a dominant phi is the sum
    over sets S of positive roots of +-[dom(phi + S)].  As S - rho is a
    weight of V(rho), phi + S is a weight of V(phi + rho) (x) V(rho), inside
    the convex hull of W(phi + 2 rho); phi + rho is regular, so only S = all
    positive roots gives a W-conjugate of phi + 2 rho, and every other term
    is strictly shorter.  The lead is phi + 2 rho with coefficient +-1,
    distinct phi give distinct leads, and the zero orbit's certified vectors
    are +-(class of phi) for |phi + 2 rho|^2 <= bound_sq.  Unproved, and what
    a set of leads in place of the boundary echelon waits on: a row whose
    lead is already taken lies in the span of the kept rows.
    """
    win = _windows(rd, bound_sq)
    orbits = tuple(classify_orbits(rd))
    poset = closure_poset(rd, orbits)
    kernels = [pushforward_kernel(rd, grading_data(rd, orbit)) for orbit in orbits]
    ball, index = _ball_and_index(rd, win.span_sq, kernels)
    strata: dict[int, tuple[GeometricBasisVector, ...]] = {}
    echelon = IntEchelon(fewest_holders=True)
    for orbit, kernel in zip(orbits, kernels):  # by (dimension, id)
        strata[orbit.id] = tuple(
            orbital_basis(rd, orbit, echelon, win, kernel, ball, index)
        )
    return GeometricBasis(
        type_label=rd.type_label,
        bound_sq=win.bound_sq,
        norm_constant=win.c_bound,
        span_window_sq=win.span_sq,
        support_window_sq=win.support_sq,
        orbits=orbits,
        poset=poset,
        strata=strata,
    )
