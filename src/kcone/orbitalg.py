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
rational test that its whole support has norm^2 <= N^2.

Per orbit, the pushforward spanning set (in (norm^2, lex) order of the
Levi weight) generates an integer lattice of classes.  Hermite reduction
splits a basis of that lattice into certified vectors, whose entire
support fits inside the bound, and provisional ones, whose support leaks
past it: single pushforwards rarely stay inside the window (their support
drifts by root sums), but integer combinations cancelling the drift do,
and the reduction finds exactly the sublattice of such combinations.
Vectors already in the span of the boundary strata are discarded; the
certified survivors are what downstream cycle computations consume, while
provisional ones are genuine classes on the closure whose independence the
truncated computation cannot certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ktheory import KClass, _check_subset_cap, hnf_certified_split, pushforward
from .linalg import IntEchelon
from .nilpotent import (
    ClosurePoset,
    GradingData,
    NilpotentOrbit,
    classify_orbits,
    closure_poset,
    grading_data,
)
from .rootdata import (
    RootDatum,
    Weight,
    enumerate_levi_dominant,
    sqrt_upper,
    weight_norm_sq,
)


class InconsistentBoundError(ValueError):
    """Boundary basis computed with a different bound than the current run."""


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


@dataclass
class GeometricBasis:
    """All per-orbit strata for one bound, plus the window bookkeeping."""

    type_label: str
    bound_sq: Fraction
    norm_constant: Fraction
    span_window_sq: Fraction
    support_window_sq: Fraction
    orbits: tuple[NilpotentOrbit, ...]
    poset: ClosurePoset
    strata: dict[int, tuple[GeometricBasisVector, ...]]

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


def spanning_set(rd: RootDatum, gd: GradingData, bound_sq) -> list[tuple[Weight, KClass]]:
    """Pushforward classes for every Levi-dominant weight in the span window.

    Ordered by (norm^2, lex) of the Levi weight.
    """
    win = _windows(rd, bound_sq)
    # fail before enumerating the window, which can dwarf the cap check
    _check_subset_cap(
        len(gd.degree1_roots) + len(gd.levi_positive_roots),
        f"spanning set on orbit {gd.orbit_id} of {rd.type_label}",
    )
    phis = enumerate_levi_dominant(rd, gd.levi_simple, win.span_sq)
    return [(phi, pushforward(rd, gd, phi)) for phi in phis]


def orbital_basis(
    rd: RootDatum,
    orbit: NilpotentOrbit,
    boundary_basis: Sequence[GeometricBasisVector],
    bound_sq,
) -> list[GeometricBasisVector]:
    """Basis of the orbit's K-theory modulo classes on the closure boundary.

    boundary_basis must contain the vectors of every orbit strictly below in
    the closure order, computed at the same bound.
    """
    win = _windows(rd, bound_sq)
    for v in boundary_basis:
        if v.bound_sq != win.bound_sq:
            raise InconsistentBoundError(
                f"boundary vector on orbit {v.orbit_id} was computed at bound^2 "
                f"{v.bound_sq}, current run uses {win.bound_sq}"
            )
    gd = grading_data(rd, orbit)
    span = spanning_set(rd, gd, bound_sq)
    # drop exact duplicates up front; they contribute nothing to the lattice
    seen: set[KClass] = set()
    candidates: list[tuple[Weight, KClass]] = []
    for phi, kc in span:
        if kc not in seen:
            seen.add(kc)
            candidates.append((phi, kc))
    split = hnf_certified_split(
        rd, [kc for _, kc in candidates], win.support_sq, win.bound_sq
    )
    test = IntEchelon()
    for v in boundary_basis:
        test.add(v.kclass.as_row())

    vectors = []
    for tracked, certified in [(t, True) for t in split.certified] + [
        (t, False) for t in split.provisional
    ]:
        if not test.add(tracked.kclass.as_row()):
            continue  # already in boundary span plus earlier selections
        combination = tuple((candidates[t][0], n) for t, n in tracked.combination)
        rank = sum(n * candidates[t][1].rank for t, n in tracked.combination)
        kc = KClass(tracked.kclass.coeffs, rank)
        if certified:
            assert kc.max_support_norm_sq(rd) <= win.bound_sq
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
    """Geometric basis for every orbit, by induction over the closure order."""
    win = _windows(rd, bound_sq)
    orbits = tuple(classify_orbits(rd))
    poset = closure_poset(rd, orbits)
    strata: dict[int, tuple[GeometricBasisVector, ...]] = {}
    for orbit in orbits:  # ordered by (dimension, id)
        boundary = []
        for z in poset.strictly_below(orbit.id):
            boundary.extend(strata[z])
        strata[orbit.id] = tuple(orbital_basis(rd, orbit, boundary, bound_sq))
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
