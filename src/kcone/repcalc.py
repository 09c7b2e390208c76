"""Finite-dimensional representation calculators.

These serve as independent oracles for the K-theory machinery: the Weyl
dimension formula for Levi subgroups, weight multiplicities by Freudenthal's
recursion, and the truncated restriction of a torus-induced class to the
maximal compact subgroup (which irreducibles appear, with what multiplicity,
below a norm cutoff).

Freudenthal's formula is evaluated in ints: its numerator and denominator
are both pairings, so both are scaled by norm_scale (rootdata.int_pair),
which leaves the quotient unchanged.  Every multiplicity is asserted to
come out a positive integer, so a wrong invariant form or folding
convention fails loudly rather than silently.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from .linalg import combine
from .rootdata import (
    RootDatum,
    Weight,
    dominant_conjugate,
    enumerate_dominant,
    int_norm,
    int_pair,
    is_dominant,
    weight_add,
    weight_norm_sq,
    weight_sub,
)


WeylForms = tuple[tuple[tuple[int, ...], int], ...]


def weyl_forms(rd: RootDatum, levi: Optional[Iterable[int]]) -> tuple[WeylForms, int]:
    """The Weyl dimension formula of a Levi as integer linear forms.

    levi is a set of simple-root indices (None means the full group; the
    empty set is the torus).  The dimension of the Levi irreducible with
    highest weight hw is prod (2 hw + 2 rho_l, alpha) / prod (2 rho_l, alpha)
    over the Levi's positive roots alpha, where 2 rho_l is their sum.  The
    form D * cartan^{-1} pairs a weight lam in fundamental coordinates with
    alpha = sum_k c_k alpha_k as sum_k c_k d_k lam_k, so each factor of the
    numerator is the linear form sum_k (2 c_k d_k) hw_k plus the constant
    (2 rho_l, alpha).  Returns one (coefficients, constant) pair per root,
    and the denominator: the product of the constants.  They depend only on
    the Levi, so a caller evaluating many weights builds them once.
    """
    levi_set = frozenset(range(rd.rank)) if levi is None else frozenset(levi)
    for i in levi_set:
        if not 0 <= i < rd.rank:
            raise ValueError(f"Levi index {i} out of range for rank {rd.rank}")
    roots = [
        (root, [c * d for c, d in zip(coeffs, rd.symmetrizer)])
        for root, coeffs in zip(rd.positive_roots, rd.positive_root_coeffs)
        if all(i in levi_set for i, c in enumerate(coeffs) if c)
    ]
    two_rho = [sum(col) for col in zip(*(root for root, _ in roots))]
    forms = tuple(
        (tuple(2 * x for x in cd), sum(x * r for x, r in zip(cd, two_rho)))
        for _, cd in roots
    )
    return forms, math.prod(const for _, const in forms)


def weyl_dim_from_forms(forms: WeylForms, denominator: int, hw: Sequence[int]) -> int:
    """Evaluate weyl_forms at hw, asserting a positive integer quotient."""
    num = 1
    for coeffs, const in forms:
        num *= const + sum(map(mul, coeffs, hw))
    dim, rest = divmod(num, denominator)
    assert rest == 0 and dim > 0, f"Weyl dimension {num}/{denominator} is not a positive integer"
    return dim


def weyl_dim(rd: RootDatum, levi: Optional[Iterable[int]], hw) -> int:
    """Dimension of the Levi irreducible with highest weight hw.

    levi is a set of simple-root indices (None means the full group; the
    empty set is the torus, where every character has dimension 1).  hw must
    have the rank's length and be dominant for the Levi: nonnegative pairing
    with each Levi coroot.  Evaluates weyl_forms(rd, levi) at hw.
    """
    hw = tuple(hw)
    if len(hw) != rd.rank:
        raise ValueError(f"weight {hw} has wrong rank for {rd.type_label}")
    levi_set = frozenset(range(rd.rank)) if levi is None else frozenset(levi)
    forms, denominator = weyl_forms(rd, levi_set)
    for i in levi_set:
        if hw[i] < 0:
            raise ValueError(f"weight {hw} is not dominant for the Levi {sorted(levi_set)}")
    return weyl_dim_from_forms(forms, denominator, hw)


def _root_coefficients(rd: RootDatum, w: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Coefficients of w over the simple roots, or None when they are not all ints.

    c_i = int_pair(e_i, w) / (norm_scale * d_i), e_i the i-th fundamental
    weight (see the rootdata module docstring).
    """
    units = [tuple(int(i == j) for j in range(rd.rank)) for i in range(rd.rank)]
    qr = [divmod(int_pair(rd, e, w), rd.norm_scale * d) for e, d in zip(units, rd.symmetrizer)]
    return None if any(r for _, r in qr) else tuple(q for q, _ in qr)


def _depth(rd: RootDatum, hw: Weight, nu: Weight) -> Optional[int]:
    """Height of hw - nu when it is a nonnegative root combination, else None."""
    c = _root_coefficients(rd, weight_sub(hw, nu))
    if c is None or min(c) < 0:
        return None
    return sum(c)


@lru_cache(maxsize=None)
def _dominant_multiplicities(rd: RootDatum, hw: Weight) -> Mapping[Weight, int]:
    """Freudenthal table: multiplicity of every dominant weight of V(hw).

    Dominant nu <= hw (difference in the nonnegative root lattice) are
    processed in order of increasing depth below hw, so each Freudenthal
    right-hand side only consults already-computed entries.
    """
    rho = rd.rho()
    top = int_norm(rd, weight_add(hw, rho))
    depths = {
        nu: depth
        for nu in enumerate_dominant(rd, weight_norm_sq(rd, hw))
        if (depth := _depth(rd, hw, nu)) is not None
    }
    root_heights = [sum(c) for c in rd.positive_root_coeffs]
    table: dict[Weight, int] = {}
    for nu in sorted(depths, key=lambda nu: (depths[nu], nu)):
        if nu == hw:
            table[nu] = 1
            continue
        total = 0
        for root, rh in zip(rd.positive_roots, root_heights):
            k = 1
            while k * rh <= depths[nu]:
                w = tuple(nu[t] + k * root[t] for t in range(rd.rank))
                m = table.get(dominant_conjugate(rd, w))
                if m:
                    total += m * int_pair(rd, w, root)
                k += 1
        denom = top - int_norm(rd, weight_add(nu, rho))
        value, rest = divmod(2 * total, denom)
        assert rest == 0 and value >= 1, (
            f"Freudenthal produced non-integral or non-positive multiplicity "
            f"{2 * total}/{denom} for weight {nu} in V({hw})"
        )
        table[nu] = value
    return table


def weight_multiplicity(rd: RootDatum, hw, mu) -> int:
    """Multiplicity of the weight mu in the irreducible with highest weight hw.

    Returns 0 when mu is not a weight of the representation.
    """
    hw = tuple(hw)
    if not is_dominant(hw):
        raise ValueError(f"highest weight {hw} is not dominant")
    mu_dom = dominant_conjugate(rd, mu)
    if _depth(rd, hw, mu_dom) is None:
        return 0
    return _dominant_multiplicities(rd, hw).get(mu_dom, 0)


def restrict_gamma_class(rd: RootDatum, gamma, level) -> dict[Weight, int]:
    """Truncated restriction of the torus-induced class of gamma.

    For each dominant hw with norm^2 <= level, the multiplicity of the
    irreducible V(hw) in the induced class equals the dimension of its
    gamma weight space; zeros are omitted.  Weyl-invariant in gamma.
    """
    level = Fraction(level)
    if level < 0:
        raise ValueError("truncation level must be nonnegative")
    gamma_dom = dominant_conjugate(rd, gamma)
    entries: dict[Weight, int] = {}
    for hw in enumerate_dominant(rd, level):
        m = weight_multiplicity(rd, hw, gamma_dom)
        if m:
            entries[hw] = m
    return entries


def restrict_kclass(rd: RootDatum, kclass, level) -> dict[Weight, int]:
    """Truncated restriction of an integer combination of gamma classes.

    Entries may be negative for virtual classes; zeros are omitted.
    """
    level = Fraction(level)
    out: dict[Weight, int] = {}
    for gamma, coef in kclass.coeffs:
        out = combine(1, out, -coef, restrict_gamma_class(rd, gamma, level))
    return out
