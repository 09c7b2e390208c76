"""Associated varieties and weak associated cycles of virtual modules.

A virtual module arrives as an integer combination of standard-module
parameters (pairs of weights whose sum indexes the K-theory class).  Its
class is expanded over the certified geometric basis vectors by exact
linear algebra; the associated variety is the set of closure-maximal orbits
carrying a nonzero coordinate, and the multiplicity on each such orbit is
the rank-weighted sum of its coordinates.

Only the weak cycle (integer multiplicities) is produced; the finer
isotropy-representation data is not computable from spans of basis vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ktheory import KClass, kclass_from_terms
from .linalg import Factorization
from .nilpotent import ClosurePoset
from .orbitalg import GeometricBasis, GeometricBasisVector
from .rootdata import RootDatum, Weight, int_norm, int_norm_bound, weight_add, weight_norm_sq


class BoundTooSmallError(ValueError):
    """The basis bound does not cover the module's class; rerun larger."""


class InternalConsistencyError(RuntimeError):
    """Exact solve produced a non-integer or non-unique expansion."""


@dataclass(frozen=True)
class VirtualModule:
    """Integer combination of standard modules, or a raw K-theory class."""

    terms: tuple[tuple[int, Weight, Weight], ...] = ()
    kclass: Optional[KClass] = None


@dataclass(frozen=True)
class AssociatedCycle:
    """Maximal orbits of the support with their integer multiplicities."""

    components: tuple[tuple[int, int], ...]  # (orbit id, multiplicity)
    variety: tuple[int, ...]  # maximal orbit ids


def module_to_kclass(rd: RootDatum, vm: VirtualModule) -> KClass:
    """K-theory class of a virtual module."""
    if vm.kclass is not None:
        # re-fold so raw caller-built classes obey the dominance invariant
        return kclass_from_terms(rd, vm.kclass.coeffs, rank=vm.kclass.rank)
    return kclass_from_terms(rd, [(weight_add(lam_l, lam_r), c) for c, lam_l, lam_r in vm.terms])


# The strata of the last basis queried, its certified vectors and their
# Factorization.
_slot: Optional[tuple[tuple, tuple[GeometricBasisVector, ...], Factorization]] = None


def _certified_factorization(
    basis: GeometricBasis,
) -> tuple[tuple[GeometricBasisVector, ...], Factorization]:
    """The certified vectors of basis and their Factorization, reused per strata.

    One slot holds the strata of the last basis queried, read as
    basis.strata[o.id] for o in basis.orbits, with the certified vectors and
    the Factorization built from them.  It is reused only when the basis
    gives the same number of strata, each a tuple and the same object as in
    the slot, in the same order; otherwise it is rebuilt and replaced.  The
    check costs one comparison per orbit.  Reuse returns exactly what a
    fresh build would:
    - the slot holds strong references, so an identity it compares against
      cannot be recycled by a new object;
    - a tuple cannot change its elements, and GeometricBasisVector and KClass
      are frozen with tuple fields, so the same tuple objects in the same
      order hold the same vectors with the same certified flags and rows;
      certified_vectors() keeps the certified vectors of the strata in that
      order, as the rebuild here does from the very strata it stores, so
      the slot's certified vectors are exactly the list certified_vectors()
      returns now;
    - a stratum that is not a tuple may have been changed in place, so it
      is never reused;
    - Factorization.solve never writes its stored rows (see its docstring),
      so a reused one returns exactly what a fresh linalg.solve returns.
    Nothing is stored on GeometricBasis: dataclasses.replace, assigning to
    basis.strata in place, or reordering basis.orbits yields another
    sequence of strata, so the slot is rebuilt rather than stale.  The slot
    is read once and replaced whole, so concurrent callers can at worst
    rebuild it twice.  The dependence check runs once per Factorization and
    raises InternalConsistencyError.
    """
    global _slot
    strata = tuple(basis.strata[o.id] for o in basis.orbits)
    slot = _slot
    if (
        slot is not None
        and len(slot[0]) == len(strata)
        and all(type(a) is tuple and a is b for a, b in zip(strata, slot[0]))
    ):
        return slot[1], slot[2]
    certified = tuple(v for stratum in strata for v in stratum if v.certified)
    try:
        factorization = Factorization([v.kclass.as_row() for v in certified])
    except ValueError:
        raise InternalConsistencyError(
            "certified basis vectors are linearly dependent in the window"
        ) from None
    _slot = (strata, certified, factorization)
    return certified, factorization


def express_in_geometric_basis(
    rd: RootDatum, kc: KClass, basis: GeometricBasis
) -> dict[GeometricBasisVector, int]:
    """Unique integer coordinates of kc over the certified basis vectors.

    Raises BoundTooSmallError if some support weight exceeds the basis bound
    or the class is not in the certified span within the truncation window,
    and InternalConsistencyError if the certified vectors are dependent or
    the coordinates are not integers.  Repeated calls on one basis reuse the
    elimination of its certified vectors (see _certified_factorization), so
    the last basis's strata stay referenced until a call with another
    basis; the bound, span and integrality checks run on every call.
    """
    bound = int_norm_bound(rd, basis.bound_sq)
    for w, _ in kc.coeffs:
        if int_norm(rd, w) > bound:
            raise BoundTooSmallError(
                f"support weight {w} has norm^2 {weight_norm_sq(rd, w)} > bound^2 "
                f"{basis.bound_sq}; recompute the basis with a larger bound"
            )
    certified, factorization = _certified_factorization(basis)
    solved = factorization.solve(kc.as_row())
    if solved is None:
        raise BoundTooSmallError(
            "class is not in the certified span at this bound; recompute "
            "the basis with a larger bound"
        )
    numerators, denominator = solved
    coords: dict[GeometricBasisVector, int] = {}
    for x, v in zip(numerators, certified):
        if x % denominator:
            raise InternalConsistencyError(
                f"expansion coordinate {Fraction(x, denominator)} on orbit "
                f"{v.orbit_id} vector {v.index} is not an integer"
            )
        if x:
            coords[v] = x // denominator
    return coords


def associated_cycle(
    coords: dict[GeometricBasisVector, int], poset: ClosurePoset
) -> AssociatedCycle:
    """Maximal support orbits with rank-weighted multiplicities."""
    support = sorted({v.orbit_id for v in coords})
    maximal = poset.maximal(support)
    components = []
    for z in maximal:
        mult = sum(n * v.rank for v, n in coords.items() if v.orbit_id == z)
        components.append((z, mult))
    return AssociatedCycle(tuple(components), tuple(maximal))
