"""Root systems, Weyl chamber combinatorics, and the invariant form.

Everything lives in fundamental-weight coordinates of the simply connected
group: a weight is a tuple of integers, the i-th entry being the pairing
with the i-th simple coroot, so the fundamental weights e_i are the unit
vectors and the j-th simple root a_j is the j-th column of the Cartan
matrix C.  All arithmetic is exact and on ints, with no floating point;
Fractions only derive int_gram and carry bounds in and values out.

The invariant form, normalized so short roots have squared length 2 in
every simple factor, is <e_i, e_j> = d_i (C^-1)_ij with d the symmetrizer.
It is kept once, as int_gram = L * D C^-1 with L the lcm of its
denominators, and int_pair(a, b) = L <a, b> is the one pairing everything
is read from.  Two identities make that exact:
- int_norm(w) = int_pair(w, w) = L <w, w> with L > 0, so <w, w> <= X
  exactly when int_norm(w) <= floor(L * X), and sorting by (int_norm, w) is
  sorting by (norm^2, w): every window test and order runs on ints, and
  weight_form is int_pair / L.
- w = sum_k c_k a_k means w = C c, so c_i = sum_j (C^-1)_ij w_j =
  int_pair(e_i, w) / (L d_i): w lies in the root lattice exactly when every
  L d_i divides int_pair(e_i, w), and the quotients are its coefficients.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add
from typing import Iterable, Sequence

from .linalg import Factorization

Weight = tuple[int, ...]

#: Largest rank accepted for the classical families A/B/C/D.
MAX_RANK = 8

_LABEL_RE = re.compile(r"^([A-G])([0-9]+)$")


class UnknownTypeError(ValueError):
    """A Cartan type label that cannot be parsed or is unsupported."""


# ---------------------------------------------------------------------------
# weight helpers


def zero_weight(rank: int) -> Weight:
    return (0,) * rank


def weight_add(a: Sequence[int], b: Sequence[int]) -> Weight:
    """Coordinatewise sum, truncated to the shorter weight as zip is."""
    return tuple(map(add, a, b))


def weight_sub(a: Sequence[int], b: Sequence[int]) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def is_dominant(w: Sequence[int]) -> bool:
    return all(x >= 0 for x in w)


# ---------------------------------------------------------------------------
# root datum


@dataclass(frozen=True)
class RootDatum:
    """Cartan type data with positive roots in fundamental coordinates.

    ``cartan[i][j]`` is the pairing of the j-th simple root with the i-th
    simple coroot, so column j is the j-th simple root as a weight.
    ``positive_roots`` lists the simple roots first, in node order, then
    the rest by height.  ``positive_root_coeffs[k]`` expands
    ``positive_roots[k]`` over the simple roots.  ``int_gram`` is
    ``norm_scale`` times the matrix of the invariant form on the weight
    lattice, normalized so short roots have squared length 2, and
    ``norm_scale`` is the least positive integer that makes every entry
    an int (see the module docstring).
    """

    type_label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    positive_roots: tuple[Weight, ...]
    positive_root_coeffs: tuple[tuple[int, ...], ...]
    norm_scale: int
    int_gram: tuple[tuple[int, ...], ...]

    @property
    def dim_g(self) -> int:
        return self.rank + 2 * len(self.positive_roots)

    def rho(self) -> Weight:
        """Half the sum of positive roots: (1, ..., 1)."""
        return (1,) * self.rank

    @cached_property
    def cartan_columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero entries (k, cartan[k][i]) of each column i, built on the first read."""
        return tuple(
            tuple((k, row[i]) for k, row in enumerate(self.cartan) if row[i])
            for i in range(self.rank)
        )


def _simple_cartan(family: str, n: int) -> tuple[list[list[int]], list[int]]:
    """Cartan matrix and symmetrizer d_i for one simple factor.

    Bourbaki numbering throughout; for B_n the last simple root is short,
    for C_n the last is long, for D_n the fork sits at node n-3 (0-based),
    for G2 the first root is long, for F4 the first two are long.
    """
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain(i: int, j: int) -> None:
        A[i][j] = A[j][i] = -1

    if family == "A":
        for i in range(n - 1):
            chain(i, i + 1)
        d = [1] * n
    elif family == "B":
        for i in range(n - 1):
            chain(i, i + 1)
        A[n - 1][n - 2] = -2  # row of the short root
        d = [2] * (n - 1) + [1]
    elif family == "C":
        for i in range(n - 1):
            chain(i, i + 1)
        A[n - 2][n - 1] = -2
        d = [1] * (n - 1) + [2]
    elif family == "D":
        for i in range(n - 2):
            chain(i, i + 1)
        chain(n - 3, n - 1)
        A[n - 2][n - 1] = A[n - 1][n - 2] = 0
        d = [1] * n
    elif family == "G":
        A = [[2, -1], [-3, 2]]
        d = [3, 1]
    elif family == "F":
        A = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
        d = [2, 2, 1, 1]
    elif family == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if n >= 7:
            edges.append((5, 6))
        if n == 8:
            edges.append((6, 7))
        for i, j in edges:
            chain(i, j)
        d = [1] * n
    else:  # pragma: no cover - guarded by the label parser
        raise UnknownTypeError(family)
    return A, d


_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "G": lambda n: 6,
    "F": lambda n: 24,
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
}


def _close_positive_roots(cartan: Sequence[Sequence[int]]) -> dict[tuple[int, ...], Weight]:
    """All positive roots, keyed by simple-root coefficients.

    Standard string construction: for a root a and simple root a_i, the
    i-string through a has q = p - <a, a_i^vee> steps up, where p counts the
    steps down that stay inside the root system.
    """
    r = len(cartan)
    col = [tuple(cartan[i][j] for i in range(r)) for j in range(r)]
    roots: dict[tuple[int, ...], Weight] = {}
    level = []
    for j in range(r):
        c = tuple(1 if k == j else 0 for k in range(r))
        roots[c] = col[j]
        level.append(c)
    while level:
        nxt = []
        for c in level:
            v = roots[c]
            for i in range(r):
                p = 0
                back = list(c)
                while True:
                    back[i] -= 1
                    if back[i] < 0 or tuple(back) not in roots:
                        break
                    p += 1
                if p - v[i] >= 1:
                    up = list(c)
                    up[i] += 1
                    cc = tuple(up)
                    if cc not in roots:
                        roots[cc] = weight_add(v, col[i])
                        nxt.append(cc)
        level = nxt
    return roots


def _parse_label(type_label: str) -> list[tuple[str, int]]:
    factors = []
    parts = type_label.split("x")
    for part in parts:
        if len(parts) > 1 and not part.strip():
            raise UnknownTypeError(
                f"cannot parse Cartan type {type_label!r}: the product label has an empty factor"
            )
        m = _LABEL_RE.match(part.strip())
        if not m:
            raise UnknownTypeError(
                f"cannot parse Cartan type {part!r} (expected e.g. 'A2', 'B3', 'G2', or products like 'A1xA1')"
            )
        family, n = m.group(1), int(m.group(2))
        if family in "ABCD" and n > MAX_RANK:
            raise UnknownTypeError(f"{part}: rank {n} exceeds the configured maximum {MAX_RANK}")
        if family == "A" and n < 1:
            raise UnknownTypeError("A0 is trivial; rank must be at least 1")
        if family == "B" and n < 2:
            raise UnknownTypeError(f"{part}: B-type needs rank >= 2 (B1 coincides with A1)")
        if family == "C" and n < 2:
            raise UnknownTypeError(f"{part}: C-type needs rank >= 2 (C1 coincides with A1)")
        if family == "D" and n < 3:
            raise UnknownTypeError(f"{part}: D-type needs rank >= 3 (use A1xA1 for D2)")
        if family == "E" and n not in (6, 7, 8):
            raise UnknownTypeError(f"{part}: E-type exists only for ranks 6, 7, 8")
        if family == "F" and n != 4:
            raise UnknownTypeError(f"{part}: F-type exists only for rank 4")
        if family == "G" and n != 2:
            raise UnknownTypeError(f"{part}: G-type exists only for rank 2")
        factors.append((family, n))
    return factors


@lru_cache(maxsize=None)
def build_root_datum(type_label: str) -> RootDatum:
    """Construct the root datum for a Cartan type label such as "B2" or "A1xA1".

    Raises UnknownTypeError for labels that do not name a supported type.
    """
    factors = _parse_label(type_label)
    rank = sum(n for _, n in factors)
    cartan = [[0] * rank for _ in range(rank)]
    symmetrizer: list[int] = []
    all_roots: list[tuple[tuple[int, ...], Weight]] = []
    offset = 0
    for family, n in factors:
        block, d = _simple_cartan(family, n)
        for i in range(n):
            for j in range(n):
                cartan[offset + i][offset + j] = block[i][j]
        symmetrizer.extend(d)
        factor_roots = _close_positive_roots(block)
        if len(factor_roots) != _POSITIVE_COUNT[family](n):
            raise RuntimeError(f"root closure for {family}{n} produced {len(factor_roots)} positive roots")
        pad_l, pad_r = offset, rank - offset - n
        for coeffs, coords in factor_roots.items():
            all_roots.append(
                ((0,) * pad_l + coeffs + (0,) * pad_r, (0,) * pad_l + coords + (0,) * pad_r)
            )
        offset += n

    # simple roots first (node order), then by height and coefficient order
    all_roots.sort(key=lambda rc: (sum(rc[0]), tuple(-x for x in rc[0])))
    coeffs = tuple(rc[0] for rc in all_roots)
    coords = tuple(rc[1] for rc in all_roots)

    # the form is D * cartan^{-1}; column j of the inverse solves cartan * x = e_j
    factored = Factorization([{i: cartan[i][j] for i in range(rank)} for j in range(rank)])
    inverse_cols = [factored.solve({j: 1}) for j in range(rank)]
    form = [
        [Fraction(symmetrizer[i] * nums.get(i, 0), den) for nums, den in inverse_cols]
        for i in range(rank)
    ]
    for i in range(rank):
        for j in range(rank):
            if form[i][j] != form[j][i]:
                raise RuntimeError("invariant form is not symmetric; bad Cartan data")
    scale = math.lcm(*(x.denominator for row in form for x in row))

    return RootDatum(
        type_label=type_label,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        symmetrizer=tuple(symmetrizer),
        positive_roots=coords,
        positive_root_coeffs=coeffs,
        norm_scale=scale,
        int_gram=tuple(tuple(int(x * scale) for x in row) for row in form),
    )


# ---------------------------------------------------------------------------
# Weyl chamber operations


def dominant_conjugate(rd: RootDatum, w: Sequence[int]) -> Weight:
    """The unique dominant weight on the Weyl orbit of w.

    Finds the first negative coordinate w_i, applies the simple
    reflection s_i (w - w_i a_i, where the simple root a_i is column i of
    the Cartan matrix) and scans again from node 0, until no coordinate
    is negative.  The reflection is made in place on a list and touches
    only the nonzero entries of column i (rd.cartan_columns); the zero
    entries would leave their coordinates as they are, so the sequence of
    reflections, and the result, are those of rebuilding the whole tuple
    at each step.
    """
    cur = list(w)
    if len(cur) != rd.rank:
        raise ValueError(f"weight {tuple(cur)} has wrong rank for {rd.type_label}")
    columns = rd.cartan_columns
    i, rank = 0, len(cur)
    while i < rank:
        x = cur[i]
        if x < 0:
            for k, a in columns[i]:
                cur[k] -= x * a
            i = 0
        else:
            i += 1
    return tuple(cur)


def int_pair(rd: RootDatum, a: Sequence[int], b: Sequence[int]) -> int:
    """norm_scale * <a, b> for integer weights a and b."""
    g = rd.int_gram
    return sum(x * sum(gx * y for gx, y in zip(g[i], b)) for i, x in enumerate(a) if x)


def int_norm(rd: RootDatum, w: Sequence[int]) -> int:
    """norm_scale * <w, w> for an integer weight, as an int."""
    return int_pair(rd, w, w)


def weight_form(rd: RootDatum, a: Sequence[int], b: Sequence[int]) -> Fraction:
    """Invariant bilinear form <a, b> of two integer weights."""
    return Fraction(int_pair(rd, a, b), rd.norm_scale)


def weight_norm_sq(rd: RootDatum, w: Sequence[int]) -> Fraction:
    """Squared length of a weight (short roots have squared length 2)."""
    return weight_form(rd, w, w)


def int_norm_bound(rd: RootDatum, max_norm_sq) -> int:
    """floor(norm_scale * max_norm_sq): int_norm(rd, w) <= it iff <w, w> <= max_norm_sq."""
    x = Fraction(max_norm_sq)
    return x.numerator * rd.norm_scale // x.denominator


# ---------------------------------------------------------------------------
# lattice enumeration inside norm balls


def sqrt_upper(x: Fraction, scale: int = 10**6) -> Fraction:
    """A rational upper bound for sqrt(x), within 1/scale of the true value."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt_upper of a negative value")
    if x == 0:
        return Fraction(0)
    k = math.isqrt(int(x * scale * scale))
    while Fraction(k, scale) ** 2 < x:
        k += 1
    return Fraction(k, scale)


#: Largest coordinate box enumerate_levi_dominant walks: at least ten times
#: the 6.8M-point box of D4's span window at bound 1, the rank-4 case the
#: roadmap targets.  It bounds the walk; MAX_BALL_POINTS bounds the list.
MAX_WINDOW_POINTS = 10**8

#: Largest ball enumerate_levi_dominant builds: ten times the 1,025,257
#: weights of D4's span-window ball at bound 1, about 1.9 GB at the 189 B a
#: weight measured on the built list during its sort.
MAX_BALL_POINTS = 10**7


def _coordinate_box(rd: RootDatum, max_norm_sq: Fraction) -> list[int]:
    # max of w_i^2 over the ball <w,w> <= R^2 is R^2 * (C D^-1)_ii = R^2 * 2/d_i
    return [math.isqrt(int(Fraction(max_norm_sq) * 2 / d)) for d in rd.symmetrizer]


def enumerate_levi_dominant(
    rd: RootDatum, levi: Iterable[int], max_norm_sq
) -> list[Weight]:
    """Integer weights with norm^2 <= max_norm_sq, nonnegative on the Levi nodes.

    Sorted by (norm^2, lexicographic coordinates); the canonical enumeration
    order used everywhere for determinism.  Raises OverflowError, before
    visiting any point, when the coordinate box holds more than
    MAX_WINDOW_POINTS weights or the ball more than MAX_BALL_POINTS.

    Exact in ints: int_norm(w) = norm_scale * <w, w> is compared with
    floor(norm_scale * max_norm_sq) and sorted on, which selects and orders
    the same weights as the Fraction norm (see the module docstring).  The
    first rank - 1 coordinates run over the box; for each such head, the
    norm as a function of the last coordinate x is a + b x + c x^2 with
    c > 0, and a + b x + c x^2 <= M is (2 c x + b)^2 <= b^2 - 4 c (a - M) =: D,
    which for an integer x is |2 c x + b| <= isqrt(D).  So the valid x form
    one interval, found without testing any point outside the ball, and the
    interval lengths summed over the heads count the ball before it is built.
    """
    max_norm_sq = Fraction(max_norm_sq)
    if max_norm_sq < 0:
        return []
    nonneg = set(levi)
    box = _coordinate_box(rd, max_norm_sq)
    ranges = [
        range(0, box[i] + 1) if i in nonneg else range(-box[i], box[i] + 1)
        for i in range(rd.rank)
    ]
    points = math.prod(r.stop - r.start for r in ranges)
    if points > MAX_WINDOW_POINTS:
        raise OverflowError(
            f"its coordinate box holds about 10^{math.log10(points):.0f} weights, "
            f"over the limit of {MAX_WINDOW_POINTS}"
        )
    bound = int_norm_bound(rd, max_norm_sq)
    last = rd.rank - 1
    e_last = zero_weight(last) + (1,)
    c = int_norm(rd, e_last)
    spans = []
    for head in itertools.product(*ranges[:last]):
        w = head + (0,)  # int_norm(head + (x,)) = a + b x + c x^2
        a, b = int_norm(rd, w), 2 * int_pair(rd, w, e_last)
        disc = b * b - 4 * c * (a - bound)
        if disc < 0:
            continue
        s = math.isqrt(disc)
        lo = -((b + s) // (2 * c))
        if last in nonneg:
            lo = max(lo, 0)
        spans.append((head, a, b, range(lo, (s - b) // (2 * c) + 1)))
    count = sum(len(xs) for *_, xs in spans)
    if count > MAX_BALL_POINTS:
        raise OverflowError(f"its ball holds {count} weights, over the limit of {MAX_BALL_POINTS}")
    out = [(a + (b + c * x) * x, head + (x,)) for head, a, b, xs in spans for x in xs]
    out.sort()
    return [w for _, w in out]


def enumerate_dominant(rd: RootDatum, max_norm_sq) -> list[Weight]:
    """Dominant weights with norm^2 <= max_norm_sq, sorted by (norm^2, lex)."""
    return enumerate_levi_dominant(rd, range(rd.rank), max_norm_sq)
