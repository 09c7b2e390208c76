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

A class is its own sparse row: as_dict() maps each support weight to its
nonzero coefficient, a row for kcone.linalg, so no coordinate axis of the
weight window is ever enumerated.  The integer lattice the classes span is
split by Hermite reduction (unimodular row operations only) over the
weights the classes carry; rational work on the same rows uses
kcone.linalg.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

from .linalg import combine
from .nilpotent import GradingData
from .repcalc import WeylForms, weyl_dim_from_forms, weyl_forms
from .rootdata import (
    RootDatum,
    Weight,
    dominant_conjugate,
    int_norm,
    int_norm_bound,
    weight_add,
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


def _check_subset_cap(nroots: int, context: str) -> None:
    """Raise SubsetCapExceededError before a 2^nroots alternating sum starts."""
    cap = _subset_cap_bits()
    if nroots > cap:
        raise SubsetCapExceededError(
            f"{context}: alternating sum needs 2^{nroots} subset terms, over the "
            f"2^{cap} cap (raise {_SUBSET_CAP_ENV} to override)"
        )


# ---------------------------------------------------------------------------
# K-theory classes


@dataclass(frozen=True)
class KClass:
    """Integer combination of dominant weights, with an optional virtual rank.

    coeffs is sorted by weight, holds each weight once and contains no zero
    coefficients.  rank is the virtual fiber dimension over the open orbit
    of the class's support, when the class arises from a fixed orbit; None
    otherwise.
    """

    coeffs: tuple[tuple[Weight, int], ...]
    rank: Optional[int] = None

    def as_dict(self) -> dict[Weight, int]:
        return dict(self.coeffs)


def kclass_from_terms(
    rd: RootDatum,
    terms: Iterable[tuple[Sequence[int], int]],
    rank: Optional[int] = None,
) -> KClass:
    """Build a KClass, folding every weight to its dominant conjugate."""
    acc: dict[Weight, int] = {}
    for w, c in terms:
        if c:
            dw = dominant_conjugate(rd, w)
            acc[dw] = acc.get(dw, 0) + c
    items = tuple(sorted((w, c) for w, c in acc.items() if c))
    return KClass(items, rank)


def kclass_add(a: KClass, b: KClass) -> KClass:
    acc = combine(1, a.as_dict(), -1, b.as_dict())
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


@dataclass(frozen=True)
class PushforwardKernel:
    """What pushforward needs from an orbit, built once for many weights.

    offsets is the expanded alternating product
    prod (1 - e^{-alpha}) prod (1 - e^{+beta}) over alpha in Delta(g[1]) and
    beta in Delta+(l), as (shift, coefficient) pairs; forms and denominator
    are weyl_forms of the Levi, whose value at phi is the rank.  where names
    the orbit in error messages.
    """

    where: str
    levi_simple: tuple[int, ...]
    offsets: tuple[tuple[Weight, int], ...]
    forms: WeylForms
    denominator: int


def _kernel(
    rd: RootDatum,
    where: str,
    levi_simple: Sequence[int],
    subtract_roots: Sequence[Weight],
    add_roots: Sequence[Weight],
) -> PushforwardKernel:
    """Expand the alternating product after checking the subset cap."""
    _check_subset_cap(len(subtract_roots) + len(add_roots), f"pushforward on {where}")
    # incremental products over (1 - e^{-alpha}) and (1 - e^{+beta}); merging
    # equal partial sums early keeps the term count far below 2^nroots
    offsets: dict[Weight, int] = {zero_weight(rd.rank): 1}
    for sign, roots in ((-1, subtract_roots), (+1, add_roots)):
        for root in roots:
            step = root if sign > 0 else tuple(-x for x in root)
            shifted = {weight_add(s, step): c for s, c in offsets.items()}
            offsets = combine(1, offsets, 1, shifted)
    forms, denominator = weyl_forms(rd, levi_simple)
    return PushforwardKernel(
        where, tuple(levi_simple), tuple(offsets.items()), forms, denominator
    )


def pushforward_kernel(rd: RootDatum, gd: GradingData) -> PushforwardKernel:
    """The orbit's kernel.  Raises SubsetCapExceededError before expanding it."""
    return _kernel(
        rd,
        f"orbit {gd.orbit_id} of {rd.type_label}",
        gd.levi_simple,
        gd.degree1_roots,
        gd.levi_positive_roots,
    )


class WeightIndex:
    """Int codes for the weights of a box, and an int id per dominant conjugate.

    The box is lo_i <= w_i <= hi_i.  The code of w is sum (w_i - lo_i) m_i,
    a mixed radix with the first coordinate most significant: m_{r-1} = 1
    and m_i = m_{i+1} (hi_{i+1} - lo_{i+1} + 1).  Proof sketch of what the
    codes give, for weights of the box, where every digit w_i - lo_i lies
    in [0, hi_i - lo_i]:
    - code is affine, so code(phi + s) = code(phi) + shift(s) with
      shift(s) = sum s_i m_i, whenever phi and phi + s lie in the box;
    - a digit string is the base-(width) expansion of its code, so the
      code determines w, and the divmod chain from the last coordinate
      recovers it (fold decodes so);
    - two codes compare like their digit strings read from the most
      significant, that is, like the weights in lex order.

    conjugate maps the code of a weight to the id of its dominant conjugate;
    weights[id] is that dominant weight and norms[id] its int_norm.  Ids
    are labels, handed out in the order dominant_id first meets a weight.
    """

    def __init__(self, rd: RootDatum, lo: Sequence[int], hi: Sequence[int]) -> None:
        self.rd = rd
        self.lo = tuple(lo)
        self.widths = tuple(h - l + 1 for l, h in zip(lo, hi))
        radix = [1] * rd.rank
        for i in range(rd.rank - 2, -1, -1):
            radix[i] = radix[i + 1] * self.widths[i + 1]
        self.radix = tuple(radix)
        self._base = sum(map(mul, self.lo, radix))
        self.conjugate: dict[int, int] = {}
        self.weights: list[Weight] = []
        self.norms: list[int] = []
        self._ids: dict[Weight, int] = {}

    @classmethod
    def around(
        cls, rd: RootDatum, weights: Sequence[Weight], kernels: Sequence["PushforwardKernel"]
    ) -> "WeightIndex":
        """The index whose box holds w + s for every w of weights and offset s of every kernel."""
        axes = list(zip(*weights)) or [(0,)] * rd.rank
        shifts = list(zip(*(s for kernel in kernels for s, _ in kernel.offsets)))
        lo = [min(a) + min(s) for a, s in zip(axes, shifts)]
        hi = [max(a) + max(s) for a, s in zip(axes, shifts)]
        return cls(rd, lo, hi)

    def code(self, w: Sequence[int]) -> int:
        return sum(map(mul, w, self.radix)) - self._base

    def shift(self, s: Sequence[int]) -> int:
        return sum(map(mul, s, self.radix))

    def dominant_id(self, w: Weight) -> int:
        """The id of the dominant weight w, given a new one if it has none yet."""
        i = self._ids.get(w)
        if i is None:
            i = self._ids[w] = len(self.weights)
            self.weights.append(w)
            self.norms.append(int_norm(self.rd, w))
        return i

    def fold(self, codes: Iterable[int]) -> None:
        """Enter the codes into conjugate, folding only those it lacks.

        Each new code is decoded by the divmod chain from the last
        coordinate, and its weight is passed to rootdata.dominant_conjugate
        once.
        """
        rd, lo, widths, conjugate = self.rd, self.lo, self.widths, self.conjugate
        digits = range(len(lo) - 1, -1, -1)
        w = [0] * len(lo)
        for c in sorted(set(codes).difference(conjugate)):
            code = c
            for i in digits:
                code, digit = divmod(code, widths[i])
                w[i] = lo[i] + digit
            conjugate[c] = self.dominant_id(dominant_conjugate(rd, tuple(w)))


def pushforward_classes(
    kernel: PushforwardKernel,
    index: WeightIndex,
    phis: Sequence[Weight],
    codes: Sequence[int],
) -> list[tuple[Weight, tuple[tuple[int, int], ...], int]]:
    """The distinct pushforward classes of phis, each with its first phi, in order.

    Each phi must be dominant for the kernel's Levi, codes[j] must be
    index.code(phis[j]), and phis[j] + s must lie in the index's box for
    every offset s.  Returns (phi, pairs, rank) triples, pairs being the
    class as (id, coefficient) pairs of index sorted by id, and rank the
    Levi dimension of phi (weyl_forms of the Levi, stored in the kernel).

    The class of phi is sum over offsets (s, c) of c [dominant conjugate of
    phi + s], and index.conjugate[codes[j] + shift(s)] is the id of that
    conjugate.  So the key (rank, folded ids in offset order) determines
    the class, and the class is built once per key, from the first phi in
    order that has the key.  A class is kept unless an earlier key gave an
    equal one.  The kept phi are then exactly the first phi of each
    distinct class: a phi that first gives its class is the first of its
    key, and every phi before it belongs to a key met before it.  So the
    result is [(phi, pushforward(phi)) for phi in phis] with every class
    equal to an earlier one dropped, in the same order.
    """
    shifts = [index.shift(s) for s, _ in kernel.offsets]
    coefs = [c for _, c in kernel.offsets]
    index.fold(set().union(*(map(d.__add__, codes) for d in shifts)))
    get = index.conjugate.__getitem__
    columns = [list(map(get, map(d.__add__, codes))) for d in shifts]
    forms, denominator = kernel.forms, kernel.denominator
    ranks = [weyl_dim_from_forms(forms, denominator, phi) for phi in phis]
    first: dict[tuple[int, ...], int] = {}
    for j, key in enumerate(zip(ranks, *columns)):
        if key not in first:
            first[key] = j
    seen: set = set()
    out = []
    for key, j in first.items():
        acc: dict[int, int] = {}
        for i, c in zip(key[1:], coefs):
            acc[i] = acc.get(i, 0) + c
        found = (tuple(sorted(item for item in acc.items() if item[1])), key[0])
        if found not in seen:
            seen.add(found)
            out.append((phis[j], *found))
    return out


def pushforward(rd: RootDatum, kernel: PushforwardKernel, phi: Sequence[int]) -> KClass:
    """Class of the Levi representation phi pushed along the orbit resolution.

    kernel is pushforward_kernel(rd, gd) of the orbit.  phi must be dominant
    for the Levi of the grading.  The rank is the Levi dimension of phi.
    This is pushforward_classes on phi alone, in an index around phi: the
    class is sum over offsets (s, c) of c [dominant conjugate of phi + s],
    the same as kclass_from_terms(rd, [(phi + s, c) ...], weyl_dim(rd,
    levi, phi)), with its pairs mapped back to weights.
    """
    phi = tuple(phi)
    if len(phi) != rd.rank:
        raise ValueError(f"weight {phi} has wrong rank for {rd.type_label}")
    for i in kernel.levi_simple:
        if phi[i] < 0:
            raise ValueError(
                f"{phi} is not dominant for the Levi {list(kernel.levi_simple)} of {kernel.where}"
            )
    index = WeightIndex.around(rd, [phi], [kernel])
    [(_, pairs, rank)] = pushforward_classes(kernel, index, [phi], [index.code(phi)])
    return KClass(tuple(sorted((index.weights[i], c) for i, c in pairs)), rank)


def skyscraper_class(rd: RootDatum, phi: Sequence[int]) -> KClass:
    """Class of the finite-dimensional irreducible V(phi) at the origin.

    The pushforward for the zero orbit: the Levi is the whole group and
    Delta(g[1]) is empty.
    """
    kernel = _kernel(
        rd, f"the zero orbit of {rd.type_label}", range(rd.rank), (), rd.positive_roots
    )
    return pushforward(rd, kernel, phi)


# ---------------------------------------------------------------------------
# the integer lattice of classes inside the support window


class _TrackedRow:
    """Sparse integer row, with the integer combination of inputs it equals.

    comb is the input index t, standing for {t: 1}, or ~t = -1 - t < 0,
    standing for {t: -1}, until the row's first subtraction, and from then
    on the row's own {input index: coefficient} dict.  No other row holds
    vec or a comb dict, so each step, a negation or a subtraction, applies
    the same integer operation to both in place.
    """

    __slots__ = ("vec", "comb", "order")

    def __init__(self, vec: dict[int, int], order: int) -> None:
        self.vec = vec
        self.comb = order
        self.order = order

    def negate(self) -> None:
        vec = self.vec
        for k, x in vec.items():
            vec[k] = -x
        comb = self.comb
        if type(comb) is int:
            self.comb = ~comb
        else:
            for t, c in comb.items():
                comb[t] = -c

    def subtract(self, q: int, other: "_TrackedRow") -> None:
        vec = self.vec
        for k, y in other.vec.items():
            x = vec.get(k, 0) - q * y
            if x:
                vec[k] = x
            else:
                del vec[k]
        comb = self.comb
        if type(comb) is int:
            comb = self.comb = {comb: 1} if comb >= 0 else {~comb: -1}
        pivot = other.comb
        if type(pivot) is int:
            pairs = ((pivot, 1),) if pivot >= 0 else ((~pivot, -1),)
        else:
            pairs = pivot.items()
        for t, y in pairs:
            x = comb.get(t, 0) - q * y
            if x:
                comb[t] = x
            else:
                del comb[t]


class TrackedVector:
    """A split output, with the integer combination of inputs that built it.

    row maps each id of the index that the output carries to its nonzero
    coefficient.  combination is the sorted ((input index, coefficient),
    ...) with sum_t c_t input_t = row, read off the row's carried comb
    (see _TrackedRow): ((t, +-1),) for a row that no subtraction touched.
    """

    __slots__ = ("row", "_comb")

    def __init__(self, row: dict[int, int], comb) -> None:
        self.row = row
        self._comb = comb

    @property
    def combination(self) -> tuple[tuple[int, int], ...]:
        comb = self._comb
        if type(comb) is not int:
            return tuple(sorted(comb.items()))
        return ((comb, 1),) if comb >= 0 else ((~comb, -1),)


@dataclass(frozen=True)
class HnfSplit:
    certified: tuple[TrackedVector, ...]
    provisional: tuple[TrackedVector, ...]


def hnf_certified_split(
    rd: RootDatum,
    vectors: Sequence[Sequence[tuple[int, int]]],
    support_norm_sq,
    certify_norm_sq,
    index: WeightIndex,
) -> HnfSplit:
    """Hermite reduction of the integer row lattice spanned by the vectors.

    The vectors are classes as (id, coefficient) pairs of index, whose
    weights are dominant by construction.  Every support weight must have
    norm^2 <= support_norm_sq, else ValueError.  Columns are the weights
    in the inputs' supports, processed from the largest (norm^2, lex)
    down; no row ever has an entry outside them, so the result is the
    reduction over the whole window.  A row whose pivot has norm^2 <=
    certify_norm_sq therefore has no support outside the certify window:
    those rows are an integer basis of the sublattice of combinations
    supported entirely within it.  The remaining pivot rows complete a
    basis of the full lattice and are returned as provisional.  Each
    output carries the integer combination of input vectors that produced
    it: every step applies the same integer operation to a row's vec and
    to its combination, so the combination reproduces the row exactly.
    Only unimodular row operations are used.  Norms are the ints index.norms[id] =
    int_norm(w), compared with int_norm_bound of each window: the same
    tests and the same column order as with Fraction norms.  Columns are
    sorted by (norms[id], weights[id]); the ids are labels and change no
    step.

    Rows are keyed by column position, an int, and position order is
    (norm^2, lex) order.  Each row waits in a bucket under its leading
    column, its largest position.  The columns above it are already
    cleared, and a pivot row has no entry above the current column, so a
    row's leading column is its only possible entry among the columns to
    come: a column takes exactly its own bucket, and a row left nonzero
    without an entry there is filed under its new leading column.  The
    pivot is the least row by (|entry|, input order), a total order, and
    every other row is reduced by the pivot alone, so bucket order cannot
    change the split.  build maps the positions back to the ids.
    """
    support_norm_sq = Fraction(support_norm_sq)
    support_bound = int_norm_bound(rd, support_norm_sq)
    certify_bound = int_norm_bound(rd, certify_norm_sq)
    weights, norms = index.weights, index.norms
    columns = sorted({i for row in vectors for i, _ in row}, key=weights.__getitem__)
    columns.sort(key=norms.__getitem__)  # stable, so in (norm^2, lex) order
    if columns and norms[columns[-1]] > support_bound:
        raise ValueError(
            f"class support {weights[columns[-1]]} lies outside the support window "
            f"norm^2 <= {support_norm_sq}"
        )
    position = {i: p for p, i in enumerate(columns)}
    buckets: dict[int, list[_TrackedRow]] = {}
    bucket = buckets.setdefault  # a row waits in the bucket of its leading column
    for t, row in enumerate(vectors):
        if row:
            vec = {position[i]: c for i, c in row}
            bucket(max(vec), []).append(_TrackedRow(vec, t))
    done: dict[int, _TrackedRow] = {}
    for col in range(len(columns) - 1, -1, -1):
        with_entry = buckets.pop(col, None)
        if with_entry is None:
            continue
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
                if col in r.vec:
                    survivors.append(r)
                elif r.vec:
                    bucket(max(r.vec), []).append(r)
            with_entry = survivors
        done[col] = with_entry[0]  # build sets its sign

    at = columns.__getitem__

    def build(col: int) -> TrackedVector:
        row = done[col]
        vec = row.vec
        if vec[min(vec)] < 0:  # smallest-norm coefficient positive
            row.negate()  # in place, so vec is negated too
        return TrackedVector(dict(zip(map(at, vec), vec.values())), row.comb)

    pivots = sorted(done)
    return HnfSplit(
        tuple(build(c) for c in pivots if norms[columns[c]] <= certify_bound),
        tuple(build(c) for c in pivots if norms[columns[c]] > certify_bound),
    )
