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
orbit's pushforward kernel, the span-window ball, a dominant-conjugate
memo, an int_norm memo and the boundary echelon's weight ids) and passes
it down full_basis -> orbital_basis -> spanning_set -> pushforward, and
orbital_basis -> hnf_certified_split.
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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

from .ktheory import (
    KClass,
    PushforwardKernel,
    hnf_certified_split,
    pushforward,
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
    bound_sq: Fraction

    def __hash__(self) -> int:
        """Hash of (orbit_id, index) alone, consistent with ==.

        The generated __eq__ compares every field, so equal vectors have
        equal orbit_id and index, hence equal hashes.  The generated hash
        would rehash the KClass and the Fraction bound_sq on every lookup.
        """
        return hash((self.orbit_id, self.index))


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
        Factorization.solve never writes its rows, so every read gives what
        a fresh build would.  Raises ValueError if the certified vectors are
        dependent; an exception is not cached, so every read raises again.
        cached_property builds under a lock on Python 3.10 and 3.11; on 3.12
        and later two threads may both build it, which only costs time.
        """
        certified = tuple(self.certified_vectors())
        return certified, Factorization([v.kclass.as_row() for v in certified])

    def certified_vectors(self) -> list[GeometricBasisVector]:
        out = []
        for orbit in self.orbits:  # already ordered by (dimension, id)
            out.extend(v for v in self.strata[orbit.id] if v.certified)
        return out

    def all_vectors(self) -> list[GeometricBasisVector]:
        out = []
        for orbit in self.orbits:
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


def spanning_set(
    rd: RootDatum,
    kernel: PushforwardKernel,
    ball: Sequence[Weight],
    folded: dict[Weight, Weight],
) -> list[tuple[Weight, KClass]]:
    """Pushforward classes for every Levi-dominant weight in the span window.

    Ordered by (norm^2, lex) of the Levi weight.  ball is the whole
    span-window ball enumerate_levi_dominant(rd, (), span window) of the
    basis, and the weights are those of ball that are nonnegative on the
    Levi nodes.  That is, in order, the list enumerate_levi_dominant(rd,
    levi, span window) returns: both are the same set, and a subsequence
    of a list sorted by (norm^2, lex) is sorted by it.  kernel is the
    orbit's pushforward_kernel and folded a dominant-conjugate memo, both
    passed to pushforward.
    """
    levi = kernel.levi_simple
    return [
        (phi, pushforward(rd, kernel, phi, folded))
        for phi in ball
        if all(phi[i] >= 0 for i in levi)
    ]


def orbital_basis(
    rd: RootDatum,
    orbit: NilpotentOrbit,
    echelon: IntEchelon,
    win: _Windows,
    kernel: PushforwardKernel,
    ball: Sequence[Weight],
    folded: dict[Weight, Weight],
    norm_memo: dict[Weight, int],
    ids: dict[Weight, int],
) -> list[GeometricBasisVector]:
    """Basis of the orbit's K-theory modulo the classes already in echelon.

    echelon must span the vectors of every orbit before this one in
    (dimension, id) order, computed in the same windows win; each returned
    vector is added to it, and no other row is.  kernel, ball and folded
    are passed to spanning_set; norm_memo is an int_norm memo passed to
    hnf_certified_split, which fills it with every support weight, so it
    also serves the certification check.  ids maps each weight to the int
    key of echelon's rows, assigned in first-seen order; the keys are only
    labels, so they change no decision (see IntEchelon).

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
    span = spanning_set(rd, kernel, ball, folded)
    # drop exact duplicates up front; they contribute nothing to the lattice
    seen: set[KClass] = set()
    candidates: list[tuple[Weight, KClass]] = []
    for phi, kc in span:
        if kc not in seen:
            seen.add(kc)
            candidates.append((phi, kc))
    split = hnf_certified_split(
        rd, [kc for _, kc in candidates], win.support_sq, win.bound_sq, norm_memo
    )

    vectors = []
    for tracked, certified in [(t, True) for t in split.certified] + [
        (t, False) for t in split.provisional
    ]:
        row = {ids.setdefault(w, len(ids)): c for w, c in tracked.kclass.coeffs}
        if not echelon.add(row):
            continue  # already in the span of earlier vectors
        combination = tuple((candidates[t][0], n) for t, n in tracked.combination)
        rank = sum(n * candidates[t][1].rank for t, n in tracked.combination)
        kc = KClass(tracked.kclass.coeffs, rank)
        if certified:
            assert all(norm_memo[w] <= certify_bound for w, _ in kc.coeffs)
        vectors.append(
            GeometricBasisVector(
                orbit_id=orbit.id,
                index=len(vectors),
                kclass=kc,
                rank=rank,
                combination=combination,
                certified=certified,
                bound_sq=win.bound_sq,
            )
        )
    return vectors


def full_basis(rd: RootDatum, bound_sq) -> GeometricBasis:
    """Geometric basis for every orbit, by induction over the closure order.

    This call builds all per-basis and per-orbit state: the windows, each
    orbit's pushforward kernel, the span-window ball, the fold memo, the
    int_norm memo and the boundary echelon with its weight ids; all of it
    is dropped when the call returns.  The boundary echelon pivots at the
    key held by the fewest stored rows, which keeps its back-substitution
    sparse.  Building a kernel checks its orbit's subset cap first, so
    every cap is checked once, before the ball, which can dwarf the check,
    is enumerated.
    """
    win = _windows(rd, bound_sq)
    orbits = tuple(classify_orbits(rd))
    poset = closure_poset(rd, orbits)
    kernels = [pushforward_kernel(rd, grading_data(rd, orbit)) for orbit in orbits]
    ball = enumerate_levi_dominant(rd, (), win.span_sq)
    folded: dict[Weight, Weight] = {}
    norm_memo: dict[Weight, int] = {}
    ids: dict[Weight, int] = {}
    strata: dict[int, tuple[GeometricBasisVector, ...]] = {}
    echelon = IntEchelon(fewest_holders=True)
    for orbit, kernel in zip(orbits, kernels):  # by (dimension, id)
        strata[orbit.id] = tuple(
            orbital_basis(rd, orbit, echelon, win, kernel, ball, folded, norm_memo, ids)
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
