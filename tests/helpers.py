"""Independent oracles used by the test suite.

Everything here is deliberately computed by different routes than the
library: Weyl groups by breadth-first closure of reflection matrices,
characters by explicit Weyl-numerator division, orbit dimensions by the
classical partition/centralizer formulas, dominance folding by taking the
dominant element of a brute-force Weyl orbit.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from fractions import Fraction

Matrix = tuple[tuple[int, ...], ...]


def _identity(rank: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rank = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(rank)) for j in range(rank))
        for i in range(rank)
    )


def _mat_apply(m: Matrix, w) -> tuple[int, ...]:
    return tuple(sum(m[i][j] * w[j] for j in range(len(w))) for i in range(len(w)))


def reflection_matrix(cartan, i: int) -> Matrix:
    rank = len(cartan)
    return tuple(
        tuple(int(k == j) - (cartan[k][i] if j == i else 0) for j in range(rank))
        for k in range(rank)
    )


def weyl_group(rd) -> list[tuple[Matrix, int]]:
    """All Weyl group elements as matrices on weight coordinates, with length."""
    gens = [reflection_matrix(rd.cartan, i) for i in range(rd.rank)]
    seen = {_identity(rd.rank): 0}
    frontier = [_identity(rd.rank)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = _mat_mul(g, m)
                if prod not in seen:
                    seen[prod] = seen[m] + 1
                    nxt.append(prod)
        frontier = nxt
    return sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))


def weyl_orbit(rd, w) -> set[tuple[int, ...]]:
    return {_mat_apply(m, w) for m, _ in weyl_group(rd)}


def brute_dominant(rd, w) -> tuple[int, ...]:
    """Dominant representative by scanning the whole brute-force orbit."""
    dom = [v for v in weyl_orbit(rd, w) if all(x >= 0 for x in v)]
    assert len(dom) == 1, f"orbit of {w} has {len(dom)} dominant elements"
    return dom[0]


def tuple_dominant_conjugate(rd, w) -> tuple[int, ...]:
    """dominant_conjugate as a loop that rebuilds the whole tuple at each reflection.

    It reflects at the first negative coordinate and rescans from node 0,
    the sequence of reflections the library makes in place.
    """
    cur = tuple(w)
    while True:
        for i, x in enumerate(cur):
            if x < 0:
                cur = tuple(cur[k] - x * rd.cartan[k][i] for k in range(rd.rank))
                break
        else:
            return cur


def decode(index, code) -> tuple[int, ...]:
    """The weight of a WeightIndex code: its digits, most significant first."""
    w = []
    for lo, width in zip(reversed(index.lo), reversed(index.widths)):
        code, digit = divmod(code, width)
        w.append(lo + digit)
    return tuple(reversed(w))


# ---------------------------------------------------------------------------
# references for the integer window kernels


def enumerate_levi_dominant_fractions(rd, levi, max_norm_sq):
    """Weights with Fraction norm^2 <= max_norm_sq, nonnegative on levi.

    Walks the whole coordinate box and sorts by (Fraction norm^2, lex).
    """
    from kcone.rootdata import _coordinate_box

    max_norm_sq = Fraction(max_norm_sq)
    if max_norm_sq < 0:
        return []
    nonneg = set(levi)
    box = _coordinate_box(rd, max_norm_sq)
    ranges = [
        range(0, box[i] + 1) if i in nonneg else range(-box[i], box[i] + 1)
        for i in range(rd.rank)
    ]
    out = []
    for w in itertools.product(*ranges):
        ns = norm_sq_fractions(rd, w)
        if ns <= max_norm_sq:
            out.append((ns, w))
    out.sort()
    return [w for _, w in out]


def pushforward_reference(rd, gd, phi):
    """pushforward by the per-phi route: the offset product rebuilt for phi,
    every term folded by dominant_conjugate without a memo."""
    from kcone import KClass, dominant_conjugate, weyl_dim

    offsets = {(0,) * rd.rank: 1}
    for sign, roots in ((-1, gd.degree1_roots), (1, gd.levi_positive_roots)):
        for root in roots:
            shifted = {}
            for s, c in offsets.items():
                key = tuple(x + sign * a for x, a in zip(s, root))
                shifted[key] = shifted.get(key, 0) - c
            for key, c in shifted.items():
                offsets[key] = offsets.get(key, 0) + c
            offsets = {s: c for s, c in offsets.items() if c}
    acc = {}
    for s, c in offsets.items():
        dw = dominant_conjugate(rd, tuple(p + x for p, x in zip(phi, s)))
        acc[dw] = acc.get(dw, 0) + c
    coeffs = tuple(sorted((w, c) for w, c in acc.items() if c))
    return KClass(coeffs, weyl_dim(rd, gd.levi_simple, phi))


class ScanIntEchelon:
    """A forward echelon whose reduce scans every stored pivot in increasing order.

    Each row pivots at its smallest key and is zero at the pivots stored
    before it; no row is back-substituted.  The reference for
    kcone.linalg.IntEchelon's decisions and pivots under its smallest-key
    rule.
    """

    def __init__(self) -> None:
        self._pivots = []
        self._rows = []

    def reduce(self, row):
        from kcone.linalg import _normalize_row, combine

        row = {k: x for k, x in row.items() if x}
        for pivot, base in zip(self._pivots, self._rows):
            x = row.get(pivot)
            if x:
                p = base[pivot]
                g = math.gcd(p, x)
                row = _normalize_row(combine(p // g, row, x // g, base))
        return row

    def add(self, row) -> bool:
        from kcone.linalg import _normalize_row

        red = self.reduce(row)
        if not red:
            return False
        red = _normalize_row(red)
        pivot = min(red)
        pos = 0
        while pos < len(self._pivots) and self._pivots[pos] < pivot:
            pos += 1
        self._pivots.insert(pos, pivot)
        self._rows.insert(pos, red)
        return True


def as_row(kc):
    """The class as a kcone.linalg row, keyed by negated weights.

    A smallest-key IntEchelon then pivots each row at its class's
    lexicographically largest weight, the order in which Factorization
    numbers plain weight keys.
    """
    return {tuple(-x for x in w): c for w, c in kc.coeffs}


def listed(answer, k):
    """A Factorization.solve answer with a numerator for each of the k columns."""
    if answer is None:
        return None
    numerators, denominator = answer
    assert all(numerators.values()) and list(numerators) == sorted(numerators)
    return [numerators.get(j, 0) for j in range(k)], denominator


def fresh_solve(columns, target):
    """Factorization(columns).solve(target), with a numerator for every column."""
    from kcone.linalg import Factorization

    return listed(Factorization(columns).solve(target), len(columns))


def tuple_key_solve(columns, target):
    """Factorization(columns).solve(target) by one IntEchelon.reduce over tuple keys.

    Column j is the row c_j[w] at (0, w) and 1 at (1, j), the target is
    t[w] at (0, w) and 1 at a marker (2,): the class and unit blocks of
    Factorization, keyed by tuples with the class block ascending.  The
    target is reduced over the stored pivots and read off its unit block,
    with no precomputed columns; the answer is unique, so neither route
    nor key order can change it.  Returns (numerators, denominator) with
    a numerator for every column, or None, and raises ValueError on
    dependent columns, as Factorization does.
    """
    from kcone.linalg import IntEchelon

    ech = IntEchelon()
    for j, col in enumerate(columns):
        row = {(0, w): x for w, x in col.items()}
        row[(1, j)] = 1
        ech.add(row)
    if sum(1 for p in ech._by_pivot if p[0] == 0) < len(columns):
        raise ValueError("columns are linearly dependent")
    row = {(0, w): x for w, x in target.items()}
    row[(2,)] = 1
    red = ech.reduce(row)
    if any(key[0] == 0 for key in red):
        return None
    sign = 1 if red[(2,)] > 0 else -1
    return [-sign * red.get((1, j), 0) for j in range(len(columns))], sign * red[(2,)]


# ---------------------------------------------------------------------------
# characters via Weyl numerator division


def solve_fractions(columns, target):
    """Fraction Gauss-Jordan solve of sum_j x_j * columns[j] = target.

    Returns the list of x_j, or None when target is outside the span;
    raises ValueError when the columns are linearly dependent.
    """
    ncols = len(columns)
    aug = [
        [Fraction(col[i]) for col in columns] + [Fraction(target[i])]
        for i in range(len(target))
    ]
    pivot_row_of_col = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivot_row_of_col[c] = r
        r += 1
    if len(pivot_row_of_col) != ncols:
        raise ValueError("columns are linearly dependent")
    if any(aug[i][ncols] != 0 for i in range(r, len(aug))):
        return None
    return [aug[pivot_row_of_col[c]][ncols] for c in range(ncols)]


def weyl_dim_fractions(rd, levi, hw) -> Fraction:
    """Weyl dimension formula with Fraction rho_l and the reference form.

    levi is a set of simple-root indices; returns the Fraction quotient
    prod <hw + rho_l, alpha> / prod <rho_l, alpha> over the Levi's positive
    roots.
    """
    roots = [
        root
        for root, coeffs in zip(rd.positive_roots, rd.positive_root_coeffs)
        if all(i in levi for i, c in enumerate(coeffs) if c)
    ]
    rho_l = [Fraction(0)] * rd.rank
    for root in roots:
        for k, x in enumerate(root):
            rho_l[k] += Fraction(x, 2)
    shifted = [rho_l[k] + hw[k] for k in range(rd.rank)]
    num = den = Fraction(1)
    for root in roots:
        num *= form_fractions(rd, shifted, root)
        den *= form_fractions(rd, rho_l, root)
    return num / den


def cartan_inverse_fractions(cartan) -> list[list[Fraction]]:
    """Inverse of a nonsingular integer matrix, column by column."""
    rank = len(cartan)
    cols = [[cartan[i][j] for i in range(rank)] for j in range(rank)]
    inv_cols = [solve_fractions(cols, [int(i == j) for i in range(rank)]) for j in range(rank)]
    return [[inv_cols[j][i] for j in range(rank)] for i in range(rank)]


@functools.lru_cache(maxsize=None)
def gram_fractions(rd) -> tuple[tuple[Fraction, ...], ...]:
    """The invariant form on fundamental weights, D * cartan^{-1}, in Fractions.

    Built from the Cartan matrix and the symmetrizer alone, never from the
    library's int_gram.
    """
    inverse = cartan_inverse_fractions(rd.cartan)
    return tuple(tuple(d * x for x in row) for d, row in zip(rd.symmetrizer, inverse))


def form_fractions(rd, a, b) -> Fraction:
    """<a, b> under gram_fractions; a and b may have Fraction entries."""
    gram = gram_fractions(rd)
    return sum(
        (a[i] * gram[i][j] * b[j] for i in range(rd.rank) for j in range(rd.rank)),
        Fraction(0),
    )


def norm_sq_fractions(rd, w) -> Fraction:
    return form_fractions(rd, w, w)


def root_coefficients_fractions(rd, w) -> list[Fraction]:
    """Simple-root coefficients of w: the solution c of cartan * c = w."""
    rank = rd.rank
    cols = [[rd.cartan[i][j] for i in range(rank)] for j in range(rank)]
    return solve_fractions(cols, w)


def weight_height(rd, w) -> Fraction:
    return sum(root_coefficients_fractions(rd, w))


def freudenthal_fractions(rd, hw) -> dict[tuple[int, ...], int]:
    """Multiplicity of every dominant weight of V(hw), by Freudenthal over Fractions.

    Uses the reference form, coefficients from a Fraction solve, and the
    Fraction box walk; asserts every multiplicity is a positive integer.
    """
    from kcone import dominant_conjugate

    rank = rd.rank
    hw = tuple(hw)
    shift = lambda w: tuple(x + 1 for x in w)  # w + rho
    top = norm_sq_fractions(rd, shift(hw))
    depths = {}
    for nu in enumerate_levi_dominant_fractions(rd, range(rank), norm_sq_fractions(rd, hw)):
        c = root_coefficients_fractions(rd, tuple(a - b for a, b in zip(hw, nu)))
        if all(x.denominator == 1 and x >= 0 for x in c):
            depths[nu] = sum(c)
    root_heights = [weight_height(rd, root) for root in rd.positive_roots]
    table = {}
    for nu in sorted(depths, key=lambda nu: (depths[nu], nu)):
        if nu == hw:
            table[nu] = 1
            continue
        total = Fraction(0)
        for root, rh in zip(rd.positive_roots, root_heights):
            k = 1
            while k * rh <= depths[nu]:
                w = tuple(a + k * b for a, b in zip(nu, root))
                total += table.get(dominant_conjugate(rd, w), 0) * form_fractions(rd, w, root)
                k += 1
        value = 2 * total / (top - norm_sq_fractions(rd, shift(nu)))
        assert value.denominator == 1 and value >= 1, (hw, nu, value)
        table[nu] = int(value)
    return table


def character_by_division(rd, hw) -> dict[tuple[int, ...], int]:
    """Full weight multiplicity table of V(hw) by dividing Weyl numerators."""
    rho = (1,) * rd.rank
    hw_rho = tuple(a + b for a, b in zip(hw, rho))
    numerator: dict[tuple[int, ...], int] = {}
    denominator: dict[tuple[int, ...], int] = {}
    for m, length in weyl_group(rd):
        sign = -1 if length % 2 else 1
        for target, shift in ((numerator, hw_rho), (denominator, rho)):
            w = _mat_apply(m, shift)
            target[w] = target.get(w, 0) + sign
    remainder = dict(numerator)
    quotient: dict[tuple[int, ...], int] = {}
    order_key = lambda w: (weight_height(rd, w), w)
    for _ in range(200000):
        remainder = {w: c for w, c in remainder.items() if c}
        if not remainder:
            break
        lead = max(remainder, key=order_key)
        coef = remainder[lead]
        shift = tuple(a - b for a, b in zip(lead, rho))
        quotient[shift] = quotient.get(shift, 0) + coef
        for w, c in denominator.items():
            key = tuple(a + b for a, b in zip(w, shift))
            remainder[key] = remainder.get(key, 0) - coef * c
    else:
        raise AssertionError("character division did not terminate")
    return {w: c for w, c in quotient.items() if c}


# ---------------------------------------------------------------------------
# partition/centralizer dimension formulas


def dual_partition(part) -> tuple[int, ...]:
    if not part:
        return ()
    return tuple(sum(1 for p in part if p > k) for k in range(part[0]))


def partition_orbit_dimension(family: str, n: int, part) -> int:
    """Orbit dimension from the classical centralizer dimension formulas."""
    dual = dual_partition(part)
    squares = sum(q * q for q in dual)
    odd = sum(1 for p in part if p % 2 == 1)
    if family == "A":
        big_n = n + 1
        return big_n * big_n - squares
    if family in ("B", "D"):
        big_n = sum(part)
        dim_g = big_n * (big_n - 1) // 2
        return dim_g - (squares - odd) // 2
    if family == "C":
        dim_g = n * (2 * n + 1)
        return dim_g - (squares + odd) // 2
    raise ValueError(family)


def parse_partition_label(label: str) -> tuple[tuple[int, ...], str]:
    """Partition and very-even tag from an orbit label like "[3,1,1]" or "[4,4]_I"."""
    tag = ""
    body = label
    if label.endswith("_I"):
        body, tag = label[:-2], "I"
    if label.endswith("_II"):
        body, tag = label[:-3], "II"
    assert body.startswith("[") and body.endswith("]"), label
    return tuple(int(x) for x in body[1:-1].split(",")), tag


# ---------------------------------------------------------------------------
# misc exact linear algebra


def rank_steps(rows):
    """Whether each dense row raises the rational rank of the rows before it.

    Gaussian elimination over Fraction on the nonzero entries: each stored
    row pivots at its first nonzero index and is zero at every earlier
    pivot, so one pass over the stored rows, in order, reduces a new row.
    """
    stored: list[tuple[int, dict[int, Fraction]]] = []
    for row in rows:
        r = {i: Fraction(x) for i, x in enumerate(row) if x}
        for p, e in stored:
            if r.get(p):
                f = r[p] / e[p]
                for i, y in e.items():
                    z = r.get(i, 0) - f * y
                    if z:
                        r[i] = z
                    else:
                        del r[i]
        if r:
            stored.append((min(r), r))
        yield bool(r)


def rational_rank(rows) -> int:
    return sum(rank_steps(rows))


def brute_pushforward(rd, gd, phi) -> dict[tuple[int, ...], int]:
    """Alternating subset sum by explicit enumeration of all subset pairs.

    Independent of the library's incremental-product evaluation: folds each
    term with the brute-force orbit scan.
    """
    out: dict[tuple[int, ...], int] = {}
    deg1 = list(gd.degree1_roots)
    levi = list(gd.levi_positive_roots)
    for na in range(len(deg1) + 1):
        for A in itertools.combinations(range(len(deg1)), na):
            for nb in range(len(levi) + 1):
                for B in itertools.combinations(range(len(levi)), nb):
                    term = list(phi)
                    for i in A:
                        term = [a - b for a, b in zip(term, deg1[i])]
                    for j in B:
                        term = [a + b for a, b in zip(term, levi[j])]
                    folded = brute_dominant(rd, tuple(term))
                    sign = -1 if (na + nb) % 2 else 1
                    out[folded] = out.get(folded, 0) + sign
    return {w: c for w, c in out.items() if c}


# ---------------------------------------------------------------------------
# dense reference for the sparse kernels: classes flattened onto the whole
# enumerated support window, the Hermite split over every column of it, and
# the boundary independence test on dense rows pivoting at the first column


def flatten_kclass(kc, axis_index) -> list[int]:
    """Dense row of a class over the window axis (weight -> column index)."""
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


def _dense_normalize_row(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        g = math.gcd(g, x)
    if g > 1:
        row = [x // g for x in row]
    for x in row:
        if x:
            return row if x > 0 else [-y for y in row]
    return row


class DenseIntEchelon:
    """Rational row space of dense integer rows; pivot = first nonzero column."""

    def __init__(self) -> None:
        self._pivots: list[int] = []
        self._rows: list[list[int]] = []

    def add(self, row) -> bool:
        row = list(row)
        for pivot, base in zip(self._pivots, self._rows):
            x = row[pivot]
            if x:
                p = base[pivot]
                g = math.gcd(p, x)
                a, b = p // g, x // g
                row = _dense_normalize_row([a * u - b * v for u, v in zip(row, base)])
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is None:
            return False
        pos = 0
        while pos < len(self._pivots) and self._pivots[pos] < pivot:
            pos += 1
        self._pivots.insert(pos, pivot)
        self._rows.insert(pos, _dense_normalize_row(row))
        return True


class _DenseTrackedRow:
    def __init__(self, vec: list[int], comb: dict[int, int], order: int) -> None:
        self.vec = vec
        self.comb = comb
        self.order = order

    def negate(self) -> None:
        self.vec = [-x for x in self.vec]
        self.comb = {t: -c for t, c in self.comb.items()}

    def subtract(self, q: int, other) -> None:
        self.vec = [a - q * b for a, b in zip(self.vec, other.vec)]
        comb = dict(self.comb)
        for t, c in other.comb.items():
            new = comb.get(t, 0) - q * c
            if new:
                comb[t] = new
            else:
                comb.pop(t, None)
        self.comb = comb


def dense_hnf_certified_split(rd, vectors, support_norm_sq, certify_norm_sq):
    """Hermite split over every dominant weight of the support window.

    Returns (certified, provisional), each a list of (coeffs, combination)
    with coeffs sorted by weight and combination sorted by input index.
    """
    from kcone import enumerate_dominant

    axis = tuple(enumerate_dominant(rd, Fraction(support_norm_sq)))
    rev = list(reversed(axis))
    rev_index = {w: i for i, w in enumerate(rev)}
    n_big = sum(1 for w in rev if norm_sq_fractions(rd, w) > Fraction(certify_norm_sq))
    rows = [
        _DenseTrackedRow(flatten_kclass(kc, rev_index), {t: 1}, t)
        for t, kc in enumerate(vectors)
        if kc.coeffs
    ]
    done = {}
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

    def build(col):
        row = done[col]
        lead = next(x for x in reversed(row.vec) if x)  # smallest (norm^2, lex)
        if lead < 0:
            row.negate()
        coeffs = tuple(sorted((rev[i], x) for i, x in enumerate(row.vec) if x))
        return coeffs, tuple(sorted(row.comb.items()))

    certified = [build(c) for c in sorted((c for c in done if c >= n_big), reverse=True)]
    provisional = [build(c) for c in sorted((c for c in done if c < n_big), reverse=True)]
    return certified, provisional


def id_row_split(rd, vectors, support_norm_sq, certify_norm_sq):
    """ktheory.hnf_certified_split on KClasses: (split, id rows, index).

    Ids come from WeightIndex.dominant_id in first-seen order over the
    vectors' supports.
    """
    from kcone.ktheory import WeightIndex, hnf_certified_split

    index = WeightIndex(rd, (0,) * rd.rank, (0,) * rd.rank)
    rows = [[(index.dominant_id(w), c) for w, c in kc.coeffs] for kc in vectors]
    return hnf_certified_split(rd, rows, support_norm_sq, certify_norm_sq, index), rows, index


def split_classes(rd, vectors, support_norm_sq, certify_norm_sq):
    """id_row_split read back as KClasses.

    Returns (certified, provisional), each a list of (KClass, combination)
    with combination sorted by input index.
    """
    from kcone import KClass

    split, _, index = id_row_split(rd, vectors, support_norm_sq, certify_norm_sq)

    def kclass(tv):
        return KClass(tuple(sorted((index.weights[i], c) for i, c in tv.row.items())))

    return (
        [(kclass(tv), tv.combination) for tv in split.certified],
        [(kclass(tv), tv.combination) for tv in split.provisional],
    )


def reference_spanning_set(rd, gd, bound_sq):
    """The orbit's spanning set as orbitalg.spanning_set builds it in full_basis.

    The Levi weights come from their own per-Levi enumeration of the span
    window and each is pushed forward without a fold memo, with a kernel of
    its own, so no ball, kernel or memo is shared with the code under test.
    """
    from kcone import enumerate_levi_dominant, pushforward, pushforward_kernel
    from kcone.orbitalg import _windows

    span_sq = _windows(rd, bound_sq).span_sq
    kernel = pushforward_kernel(rd, gd)
    return [
        (phi, pushforward(rd, kernel, phi))
        for phi in enumerate_levi_dominant(rd, gd.levi_simple, span_sq)
    ]


def dense_strata(rd, bound_sq):
    """full_basis strata through the dense kernels, keyed by orbit id.

    Each vector is (coeffs, combination, rank, certified), as in
    library_strata.
    """
    from kcone import KClass, classify_orbits, closure_poset, enumerate_dominant
    from kcone import grading_data
    from kcone.orbitalg import _windows

    win = _windows(rd, bound_sq)
    index = {w: i for i, w in enumerate(enumerate_dominant(rd, win.support_sq))}
    orbits = classify_orbits(rd)
    poset = closure_poset(rd, orbits)
    strata = {}
    for orbit in orbits:
        seen, candidates = set(), []
        for phi, kc in reference_spanning_set(rd, grading_data(rd, orbit), bound_sq):
            if kc not in seen:
                seen.add(kc)
                candidates.append((phi, kc))
        certified, provisional = dense_hnf_certified_split(
            rd, [kc for _, kc in candidates], win.support_sq, win.bound_sq
        )
        test = DenseIntEchelon()
        for z in sorted(poset.below[orbit.id]):
            for coeffs, *_ in strata[z]:
                test.add(flatten_kclass(KClass(coeffs), index))
        out = []
        for (coeffs, comb), cert in [(t, True) for t in certified] + [
            (t, False) for t in provisional
        ]:
            if not test.add(flatten_kclass(KClass(coeffs), index)):
                continue
            combination = tuple((candidates[t][0], n) for t, n in comb)
            rank = sum(n * candidates[t][1].rank for t, n in comb)
            out.append((coeffs, combination, rank, cert))
        strata[orbit.id] = tuple(out)
    return strata


def library_strata(basis):
    """A GeometricBasis's strata in the dense_strata format."""
    return {
        oid: tuple((v.kclass.coeffs, v.combination, v.rank, v.certified) for v in vectors)
        for oid, vectors in basis.strata.items()
    }


def strata_digest(strata) -> str:
    """sha256 of the strata in orbit-id order, as canonical JSON."""
    rows = [
        [oid, [[list(w), c] for w, c in coeffs], [[list(w), n] for w, n in comb], rank, cert]
        for oid in sorted(strata)
        for coeffs, comb, rank, cert in strata[oid]
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def reference_payload(basis, orbit_filter=None) -> dict:
    """The `kcone basis` JSON payload as a tree: json.dumps(it, indent=2)
    plus a newline is the document the CLI writes."""
    strata = []
    for orbit in basis.orbits:
        if orbit_filter is not None and orbit.id != orbit_filter:
            continue
        vectors = [
            {
                "orbit": v.orbit_id,
                "index": v.index,
                "certified": v.certified,
                "rank": v.rank,
                "combination": [{"levi_weight": list(w), "coef": c} for w, c in v.combination],
                "kclass": {
                    "coeffs": [{"weight": list(w), "coef": c} for w, c in v.kclass.coeffs],
                    "rank": v.kclass.rank,
                },
            }
            for v in basis.strata[orbit.id]
        ]
        strata.append(
            {"orbit": orbit.id, "label": orbit.label, "dimension": orbit.dimension, "vectors": vectors}
        )
    return {
        "type": basis.type_label,
        "bound_sq": str(basis.bound_sq),
        "norm_constant": str(basis.norm_constant),
        "span_window_sq": str(basis.span_window_sq),
        "support_window_sq": str(basis.support_window_sq),
        "strata": strata,
    }
