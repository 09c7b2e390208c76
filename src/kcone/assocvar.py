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

from .ktheory import KClass, kclass_from_terms
from .nilpotent import ClosurePoset
from .orbitalg import GeometricBasis, GeometricBasisVector
from .rootdata import RootDatum, Weight, int_norm, int_norm_bound, weight_add, weight_norm_sq


class BoundTooSmallError(ValueError):
    """The basis bound does not cover the module's class; rerun larger."""


class InternalConsistencyError(RuntimeError):
    """Exact solve produced a non-integer or non-unique expansion."""


@dataclass(frozen=True)
class VirtualModule:
    """Standard-module terms (c, lambda_l, lambda_r); fold a raw class with kclass_from_terms."""

    terms: tuple[tuple[int, Weight, Weight], ...] = ()


@dataclass(frozen=True)
class AssociatedCycle:
    """Maximal orbits of the support with their integer multiplicities."""

    components: tuple[tuple[int, int], ...]  # (orbit id, multiplicity)
    variety: tuple[int, ...]  # maximal orbit ids


def module_to_kclass(rd: RootDatum, vm: VirtualModule) -> KClass:
    """The class sum of c [lambda_l + lambda_r], folded by kclass_from_terms.

    Raises ValueError naming the first standard term whose two weights
    differ in length, which weight_add would otherwise truncate.
    """
    terms = []
    for term in vm.terms:
        c, lam_l, lam_r = term
        if len(lam_l) != len(lam_r):
            raise ValueError(
                f"standard term {term} pairs weights of lengths {len(lam_l)} and {len(lam_r)}"
            )
        terms.append((weight_add(lam_l, lam_r), c))
    return kclass_from_terms(rd, terms)


def express_in_geometric_basis(
    rd: RootDatum, kc: KClass, basis: GeometricBasis
) -> dict[GeometricBasisVector, int]:
    """Unique integer coordinates of kc over the certified basis vectors.

    Raises BoundTooSmallError if some support weight exceeds the basis bound
    or the class is not in the certified span within the truncation window,
    and InternalConsistencyError if the certified vectors are dependent or
    the coordinates are not integers.  Raises ValueError if a support weight
    has the wrong length, is not dominant or is repeated (kclass_from_terms
    builds classes without any of these), which no bound can help.  The
    certified vectors are eliminated once per basis, on its first query
    (GeometricBasis.certified_factorization), which keys them by their
    weights and stores the coordinates of each weight's unit class, so a
    query is one sparse integer sum over kc's support (Factorization.solve
    has the proof that the sum, with its residual, is exact).  The weight,
    bound, span and integrality checks run on every call, in that order.
    A weight that some certified vector carries is within the bound, since
    certification tests every support weight against it, so only the other
    weights pay int_norm.  A zero coefficient is no support: its weight
    gets the weight checks but not the bound check, and solve skips it.
    """
    try:
        certified, factorization = basis.certified_factorization
    except ValueError:  # reported after the weight checks, which come first
        certified, factorization = (), None
    target = dict(kc.coeffs)
    if len(target) < len(kc.coeffs):  # dict kept only the last pair of a repeated weight
        raise ValueError("class support repeats a weight; fold the class with kclass_from_terms")
    bound = None
    for w, c in kc.coeffs:
        if len(w) != rd.rank or min(w) < 0:
            raise ValueError(f"class support {w} lies outside the dominant chamber")
        if c and (factorization is None or not factorization.carries(w)):
            if bound is None:
                bound = int_norm_bound(rd, basis.bound_sq)
            if int_norm(rd, w) > bound:
                raise BoundTooSmallError(
                    f"support weight {w} has norm^2 {weight_norm_sq(rd, w)} > bound^2 "
                    f"{basis.bound_sq}; recompute the basis with a larger bound"
                )
    if factorization is None:
        raise InternalConsistencyError(
            "certified basis vectors are linearly dependent in the window"
        )
    solved = factorization.solve(target)
    if solved is None:
        raise BoundTooSmallError(
            "class is not in the certified span at this bound; recompute "
            "the basis with a larger bound"
        )
    numerators, denominator = solved
    if denominator != 1:  # in lowest terms, so some numerator is no multiple of it
        j, x = next((j, x) for j, x in numerators.items() if x % denominator)
        v = certified[j]
        raise InternalConsistencyError(
            f"expansion coordinate {Fraction(x, denominator)} on orbit "
            f"{v.orbit_id} vector {v.index} is not an integer"
        )
    return {certified[j]: x for j, x in numerators.items()}


def associated_cycle(
    coords: dict[GeometricBasisVector, int], poset: ClosurePoset
) -> AssociatedCycle:
    """Maximal support orbits with rank-weighted multiplicities."""
    mult: dict[int, int] = {}
    get = mult.get
    for v, n in coords.items():
        z = v.orbit_id
        mult[z] = get(z, 0) + n * v.rank
    maximal = poset.maximal(mult)
    return AssociatedCycle(tuple((z, mult[z]) for z in maximal), tuple(maximal))
