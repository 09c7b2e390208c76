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

from .ktheory import KClass, kclass_add, kclass_from_terms, kclass_scale, std_to_class
from .linalg import Factorization
from .nilpotent import ClosurePoset
from .orbitalg import GeometricBasis, GeometricBasisVector
from .rootdata import RootDatum, Weight, int_norm, int_norm_bound, weight_norm_sq


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
    acc = KClass(())
    for coef, lam_l, lam_r in vm.terms:
        acc = kclass_add(acc, kclass_scale(std_to_class(rd, lam_l, lam_r), coef))
    return KClass(acc.coeffs, None)


# The certified vectors of the last basis queried and their Factorization.
_slot: Optional[tuple[tuple[GeometricBasisVector, ...], Factorization]] = None


def _certified_factorization(
    certified: list[GeometricBasisVector],
) -> Factorization:
    """The Factorization of the certified rows, reused while the vectors are.

    One slot holds the last certified tuple and its Factorization; it is
    reused only when certified has the same length and every element is the
    same object as in the slot, and otherwise rebuilt and replaced.  Reuse
    returns what a fresh Factorization would:
    - the slot holds strong references, so an identity it compares against
      cannot be recycled by a new object;
    - GeometricBasisVector and KClass are frozen with tuple fields (they
      must hash, since vectors key the coordinates), so the same objects in
      the same order give the same rows in the same order;
    - Factorization.solve never writes into the echelon (see its docstring),
      so a reused one returns exactly what a fresh linalg.solve returns.
    Nothing is stored on GeometricBasis: dataclasses.replace, or assigning
    to basis.strata in place, yields other vector objects or another length,
    so the slot is rebuilt rather than stale.  The slot is read once and
    replaced whole, so concurrent callers can at worst rebuild it twice.
    The dependence check runs once per Factorization and raises
    InternalConsistencyError.
    """
    global _slot
    slot = _slot
    if (
        slot is not None
        and len(slot[0]) == len(certified)
        and all(a is b for a, b in zip(slot[0], certified))
    ):
        return slot[1]
    try:
        factorization = Factorization([v.kclass.as_row() for v in certified])
    except ValueError:
        raise InternalConsistencyError(
            "certified basis vectors are linearly dependent in the window"
        ) from None
    _slot = (tuple(certified), factorization)
    return factorization


def express_in_geometric_basis(
    rd: RootDatum, kc: KClass, basis: GeometricBasis
) -> dict[GeometricBasisVector, int]:
    """Unique integer coordinates of kc over the certified basis vectors.

    Raises BoundTooSmallError if some support weight exceeds the basis bound
    or the class is not in the certified span within the truncation window,
    and InternalConsistencyError if the certified vectors are dependent or
    the coordinates are not integers.  Repeated calls on one basis reuse the
    elimination of its certified vectors (see _certified_factorization), so
    the last basis's certified vectors stay referenced until a call with
    another basis; the bound, span and integrality checks run on every call.
    """
    bound = int_norm_bound(rd, basis.bound_sq)
    for w, _ in kc.coeffs:
        if int_norm(rd, w) > bound:
            raise BoundTooSmallError(
                f"support weight {w} has norm^2 {weight_norm_sq(rd, w)} > bound^2 "
                f"{basis.bound_sq}; recompute the basis with a larger bound"
            )
    certified = basis.certified_vectors()
    solved = _certified_factorization(certified).solve(kc.as_row())
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
