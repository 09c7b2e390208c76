"""K-theory classes in the dominant-weight basis, and their Hermite split.

A KClass is a finite integer combination of dominant weights (every weight
is folded onto its dominant Weyl conjugate with coefficient +1 before being
stored; induction from the maximal torus is Weyl-invariant, so folding
carries no sign).  The pushforward of a Levi representation along the
resolution of an orbit closure is the alternating subset sum

    sum over A in Delta(g[1]), B in Delta+(l) of
        (-1)^{|A|+|B|} [phi - sum(A) + sum(B)]

with every term folded to its dominant conjugate, and rank equal to the
Levi dimension of phi.  Skyscrapers at the origin are the special case
where the Levi is the whole group and Delta(g[1]) is empty.

The integer lattice the classes span over the truncated weight window is
split by Hermite reduction (unimodular row operations only); rational work
over the same window uses kcone.linalg.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .nilpotent import GradingData
from .repcalc import weyl_dim
from .rootdata import (
    RootDatum,
    Weight,
    dominant_conjugate,
    enumerate_dominant,
    is_dominant,
    weight_add,
    weight_norm_sq,
    zero_weight,
)

_SUBSET_CAP_ENV = "KCONE_MAX_SUBSET_BITS"
_DEFAULT_SUBSET_BITS = 22


class SubsetCapExceededError(RuntimeError):
    """A pushforward would require more alternating-sum terms than allowed."""


def _subset_cap_bits() -> int:
    raw = os.environ.get(_SUBSET_CAP_ENV)
    if raw is None:
        return _DEFAULT_SUBSET_BITS
    try:
        bits = int(raw)
    except ValueError:
        raise ValueError(f"{_SUBSET_CAP_ENV} must be an integer, got {raw!r}") from None
    if bits < 0:
        raise ValueError(f"{_SUBSET_CAP_ENV} must be nonnegative, got {raw!r}")
    return bits


# ---------------------------------------------------------------------------
# K-theory classes


@dataclass(frozen=True)
class KClass:
    """Integer combination of dominant weights, with an optional virtual rank.

    coeffs is sorted by weight and contains no zero coefficients.  rank is
    the virtual fiber dimension over the open orbit of the class's support,
    when the class arises from a fixed orbit; None otherwise.
    """

    coeffs: tuple[tuple[Weight, int], ...]
    rank: Optional[int] = None

    def as_dict(self) -> dict[Weight, int]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> tuple[Weight, ...]:
        return tuple(w for w, _ in self.coeffs)

    def max_support_norm_sq(self, rd: RootDatum) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return max(weight_norm_sq(rd, w) for w, _ in self.coeffs)


def kclass_from_terms(
    rd: RootDatum, terms: Iterable[tuple[Sequence[int], int]], rank: Optional[int] = None
) -> KClass:
    """Build a KClass, folding every weight to its dominant conjugate."""
    acc: dict[Weight, int] = {}
    for w, c in terms:
        if c == 0:
            continue
        dw = dominant_conjugate(rd, w)
        acc[dw] = acc.get(dw, 0) + c
    items = tuple(sorted((w, c) for w, c in acc.items() if c))
    return KClass(items, rank)


def kclass_add(a: KClass, b: KClass) -> KClass:
    acc = dict(a.coeffs)
    for w, c in b.coeffs:
        new = acc.get(w, 0) + c
        if new:
            acc[w] = new
        else:
            acc.pop(w, None)
    rank = None if a.rank is None or b.rank is None else a.rank + b.rank
    return KClass(tuple(sorted(acc.items())), rank)


def kclass_scale(a: KClass, n: int) -> KClass:
    if n == 0:
        return KClass((), None if a.rank is None else 0)
    rank = None if a.rank is None else n * a.rank
    return KClass(tuple((w, n * c) for w, c in a.coeffs), rank)


def gamma_class(rd: RootDatum, gamma: Sequence[int]) -> KClass:
    """The class of the standard module with torus character gamma."""
    return kclass_from_terms(rd, [(tuple(gamma), 1)])


def std_to_class(rd: RootDatum, lambda_l: Sequence[int], lambda_r: Sequence[int]) -> KClass:
    """Class of a standard module; depends only on the sum of the parameters."""
    return gamma_class(rd, weight_add(lambda_l, lambda_r))


def _alternating_class(
    rd: RootDatum,
    phi: Weight,
    subtract_roots: Sequence[Weight],
    add_roots: Sequence[Weight],
    rank: int,
    context: str,
) -> KClass:
    nroots = len(subtract_roots) + len(add_roots)
    cap = _subset_cap_bits()
    if nroots > cap:
        raise SubsetCapExceededError(
            f"{context}: alternating sum needs 2^{nroots} subset terms, over the "
            f"2^{cap} cap (raise {_SUBSET_CAP_ENV} to override)"
        )
    # incremental products over (1 - e^{-alpha}) and (1 - e^{+beta}); merging
    # equal partial sums early keeps the term count far below 2^nroots
    offsets: dict[Weight, int] = {zero_weight(rd.rank): 1}
    for sign, roots in ((-1, subtract_roots), (+1, add_roots)):
        for root in roots:
            step = root if sign > 0 else tuple(-x for x in root)
            new = dict(offsets)
            for s, c in offsets.items():
                key = weight_add(s, step)
                val = new.get(key, 0) - c
                if val:
                    new[key] = val
                else:
                    new.pop(key, None)
            offsets = new
    return kclass_from_terms(
        rd, ((weight_add(phi, s), c) for s, c in offsets.items()), rank=rank
    )


def pushforward(rd: RootDatum, gd: GradingData, phi: Sequence[int]) -> KClass:
    """Class of the Levi representation phi pushed along the orbit resolution.

    phi must be dominant for the Levi of the grading.  The rank equals the
    Levi dimension of phi.
    """
    phi = tuple(phi)
    if len(phi) != rd.rank:
        raise ValueError(f"weight {phi} has wrong rank for {rd.type_label}")
    for i in gd.levi_simple:
        if phi[i] < 0:
            raise ValueError(
                f"{phi} is not dominant for the Levi {list(gd.levi_simple)} of orbit {gd.orbit_id}"
            )
    rank = weyl_dim(rd, gd.levi_simple, phi)
    return _alternating_class(
        rd,
        phi,
        gd.degree1_roots,
        gd.levi_positive_roots,
        rank,
        context=f"pushforward on orbit {gd.orbit_id} of {rd.type_label}",
    )


def skyscraper_class(rd: RootDatum, phi: Sequence[int]) -> KClass:
    """Class of the finite-dimensional irreducible V(phi) at the origin.

    Equals the pushforward for the zero orbit, whose Levi is the full group.
    """
    phi = tuple(phi)
    if not is_dominant(phi):
        raise ValueError(f"skyscraper weight {phi} must be dominant")
    rank = weyl_dim(rd, None, phi)
    return _alternating_class(
        rd, phi, (), rd.positive_roots, rank, context=f"skyscraper on {rd.type_label}"
    )


# ---------------------------------------------------------------------------
# the integer lattice of classes over the truncated weight window


def flatten_kclass(
    rd: RootDatum, kc: KClass, axis_index: dict[Weight, int]
) -> list[int]:
    row = [0] * len(axis_index)
    for w, c in kc.coeffs:
        idx = axis_index.get(w)
        if idx is None:
            raise ValueError(
                f"class support {w} lies outside the coordinate window of "
                f"{len(axis_index)} dominant weights"
            )
        row[idx] = c
    return row


class _TrackedRow:
    """Integer row with bookkeeping of which input combination produced it."""

    __slots__ = ("vec", "comb", "order")

    def __init__(self, vec: list[int], comb: dict[int, int], order: int) -> None:
        self.vec = vec
        self.comb = comb
        self.order = order

    def negate(self) -> None:
        self.vec = [-x for x in self.vec]
        self.comb = {t: -c for t, c in self.comb.items()}

    def subtract(self, q: int, other: "_TrackedRow") -> None:
        self.vec = [a - q * b for a, b in zip(self.vec, other.vec)]
        comb = dict(self.comb)
        for t, c in other.comb.items():
            new = comb.get(t, 0) - q * c
            if new:
                comb[t] = new
            else:
                comb.pop(t, None)
        self.comb = comb


@dataclass(frozen=True)
class TrackedVector:
    """A class together with the integer combination of inputs that built it."""

    kclass: KClass
    combination: tuple[tuple[int, int], ...]  # (input index, coefficient)


@dataclass(frozen=True)
class HnfSplit:
    certified: tuple[TrackedVector, ...]
    provisional: tuple[TrackedVector, ...]
    axis: tuple[Weight, ...]


def hnf_certified_split(
    rd: RootDatum,
    vectors: Sequence[KClass],
    support_norm_sq,
    certify_norm_sq,
) -> HnfSplit:
    """Hermite reduction of the integer row lattice spanned by the vectors.

    Columns are the dominant weights up to support_norm_sq, processed from
    the largest (norm^2, lex) down, so rows whose pivot falls inside the
    certify window automatically have no support outside it: those rows are
    an integer basis of the sublattice of combinations supported entirely
    within the certify window.  The remaining pivot rows complete a basis of
    the full lattice and are returned as provisional.  Each output records
    the integer combination of input vectors that produced it.  Only
    unimodular row operations are used, so tracked combinations reproduce
    the rows exactly.
    """
    support_norm_sq = Fraction(support_norm_sq)
    certify_norm_sq = Fraction(certify_norm_sq)
    axis = tuple(enumerate_dominant(rd, support_norm_sq))
    rev = list(reversed(axis))
    rev_index = {w: i for i, w in enumerate(rev)}
    n_big = sum(1 for w in rev if weight_norm_sq(rd, w) > certify_norm_sq)

    rows: list[_TrackedRow] = []
    for t, kc in enumerate(vectors):
        if kc.is_zero():
            continue
        vec = [0] * len(rev)
        for w, c in kc.coeffs:
            idx = rev_index.get(w)
            if idx is None:
                raise ValueError(
                    f"class support {w} lies outside the coordinate window"
                )
            vec[idx] = c
        rows.append(_TrackedRow(vec, {t: 1}, t))

    done: dict[int, _TrackedRow] = {}
    active = rows
    for col in range(len(rev)):
        with_entry = [r for r in active if r.vec[col]]
        rest = [r for r in active if not r.vec[col]]
        while len(with_entry) > 1:
            with_entry.sort(key=lambda r: (abs(r.vec[col]), r.order))
            p = with_entry[0]
            if p.vec[col] < 0:
                p.negate()
            survivors = [p]
            for r in with_entry[1:]:
                q = r.vec[col] // p.vec[col]
                if q:
                    r.subtract(q, p)
                if r.vec[col]:
                    survivors.append(r)
                elif any(r.vec):
                    rest.append(r)
            with_entry = survivors
        if with_entry:
            p = with_entry[0]
            if p.vec[col] < 0:
                p.negate()
            done[col] = p
        active = rest

    axis_pos = {w: i for i, w in enumerate(axis)}

    def build(col: int) -> TrackedVector:
        row = done[col]
        support = [(axis_pos[rev[i]], rev[i], x) for i, x in enumerate(row.vec) if x]
        support.sort()
        if support[0][2] < 0:  # leading (smallest-norm) coefficient positive
            row.negate()
            support = [(p, w, -x) for p, w, x in support]
        coeffs = tuple(sorted((w, x) for _, w, x in support))
        comb = tuple(sorted(row.comb.items()))
        return TrackedVector(KClass(coeffs), comb)

    certified = tuple(build(c) for c in sorted((c for c in done if c >= n_big), reverse=True))
    provisional = tuple(build(c) for c in sorted((c for c in done if c < n_big), reverse=True))
    return HnfSplit(certified, provisional, axis)

