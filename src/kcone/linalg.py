"""Exact linear algebra over the rationals by fraction-free integer elimination.

A row is a sparse dict from mutually comparable keys to nonzero ints;
KClass.as_row() gives one per K-theory class.  The pivot of a row is its
smallest key.  Elimination cross-multiplies (Bareiss-style, no division)
and divides every new row by the gcd of its entries, so entries stay small
and no Fraction is ever formed.  Factorization relabels a system's keys
as ints in the same order, eliminates its columns once and
back-substitutes, so that every stored row is zero at every other pivot
and solving a target is one pass over the target's own pivots.  The
Hermite reduction over the integers, which needs unimodular steps, lives
in ktheory.hnf_certified_split.
"""

from __future__ import annotations

import heapq
import math
from typing import Hashable, Mapping, Optional, Sequence

Row = dict[Hashable, int]


def combine(a: int, row: Mapping, b: int, other: Mapping) -> Row:
    """a * row - b * other for rows without zero entries; a must be nonzero."""
    out = dict(row) if a == 1 else {k: a * x for k, x in row.items()}
    for k, y in other.items():
        x = out.get(k, 0) - b * y
        if x:
            out[k] = x
        else:
            out.pop(k, None)
    return out


def _normalize_row(row: Row) -> Row:
    """Divide by the gcd of the entries."""
    g = math.gcd(*row.values())
    return {k: x // g for k, x in row.items()} if g > 1 else row


class IntEchelon:
    """Row space over the rationals, kept as gcd-reduced integer rows.

    Each stored row is zero at the pivots of the rows stored before it, and
    eliminating a pivot only touches keys above it, so reducing pivot by
    pivot in increasing order leaves a row zero at every pivot.  _by_pivot
    maps each pivot to its row.
    """

    def __init__(self) -> None:
        self._by_pivot: dict[Hashable, Row] = {}

    def reduce(self, row: Mapping) -> Row:
        """Row minus a combination of the stored rows, up to a nonzero factor.

        The result is zero at every pivot, so it is empty exactly when row
        lies in the span.

        Only the pivots the row carries are visited, smallest first, from a
        heap that holds every pivot among the row's keys and gains each
        pivot an elimination brings in.  An elimination at pivot p only
        brings in keys above p, so the heap pops, in increasing order,
        exactly the pivots at which the row is nonzero when a scan over all
        stored pivots in increasing order would reach them; a popped pivot
        the row no longer carries (cancelled, or pushed twice) is skipped,
        as the scan would skip it.  Both routes perform the same
        eliminations in the same order, so they return the same row.  Each
        elimination is combine(a, row, b, base) done in place on the row,
        so that the keys it brings in are seen in the same pass.  The row is
        a copy of the argument; stored rows are only read.
        """
        row = {k: x for k, x in row.items() if x}
        by_pivot = self._by_pivot
        heap = [k for k in row if k in by_pivot]
        heapq.heapify(heap)
        while heap:
            pivot = heapq.heappop(heap)
            x = row.get(pivot)
            if not x:
                continue
            base = by_pivot[pivot]
            p = base[pivot]
            g = math.gcd(p, x)
            a, b = p // g, x // g
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            for k, y in base.items():
                v = row.get(k)
                if v is None:
                    row[k] = -b * y
                    if k in by_pivot:
                        heapq.heappush(heap, k)
                else:
                    v -= b * y
                    if v:
                        row[k] = v
                    else:
                        del row[k]
            row = _normalize_row(row)
        return row

    def add(self, row: Mapping) -> bool:
        """Insert if independent of the current span; return whether it was."""
        red = self.reduce(row)
        if not red:
            return False
        red = _normalize_row(red)
        self._by_pivot[min(red)] = red
        return True

    def __len__(self) -> int:
        return len(self._by_pivot)


class Factorization:
    """The columns of solve, eliminated once; solve(target) answers one target.

    Construction maps the keys to ints in the order solve describes: the
    sorted union of the column keys to 0..n-1, column j's unit key to n + j
    and the marker to n + k.  The map is strictly increasing on each block
    and every block sorts before the next, so it preserves the order of
    every pair of keys.  IntEchelon compares keys only by order, so it
    stores the rows it would store for the tuple keys of solve, relabelled.

    Construction puts every column into one IntEchelon, runs the dependence
    check, and then back-substitutes: for each pivot p, from the largest
    down, the row at p becomes s * row - sum_q c_q * row_q over the larger
    pivots q it carries, divided by the gcd of its entries, where s > 0 is
    the least multiple making every c_q = s * row[q] / row_q[q] an integer.
    The rows at q > p are by then zero at every other pivot, so this zeroes
    the row at every q and leaves its other pivot entries alone.  They only
    carry keys >= q > p, so p stays the row's smallest key.  Since s != 0
    the step is invertible, so the stored rows still span the same space
    with the same pivots.  Every stored row is then zero at every other
    pivot.

    solve reads the stored rows and never writes them, and the object has
    no other state, so every call sees the rows as construction left them
    and the answer does not depend on the targets answered before.
    """

    def __init__(self, columns: Sequence[Mapping]) -> None:
        """Raises ValueError when the columns are linearly dependent."""
        keys = sorted({w for col in columns for w, x in col.items() if x})
        n, k = len(keys), len(columns)
        self._index = {w: i for i, w in enumerate(keys)}
        self._n, self._k = n, k
        ech = IntEchelon()
        for j, col in enumerate(columns):
            row = {self._index[w]: x for w, x in col.items() if x}
            row[n + j] = 1
            ech.add(row)
        rows = ech._by_pivot
        if sum(1 for p in rows if p < n) < k:
            raise ValueError("columns are linearly dependent")
        # pivot -> (pivot entry, the other entries as (key, value) pairs)
        self._rows: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
        for p in sorted(rows, reverse=True):
            # rows[p] carries no key below p, so its stored pivots are all above p
            row = self._eliminate(rows[p])
            self._rows[p] = (row.pop(p), tuple(row.items()))

    def _eliminate(self, row: Mapping[int, int]) -> Row:
        """s * row - sum_q c_q * row_q over the stored pivots q of row, made primitive.

        s > 0 is the least int making every c_q = s * row[q] / row_q[q] an
        integer.  Every stored row is zero at every other pivot, so
        subtracting c_q * row_q zeroes the entry at q and changes no other
        pivot entry: one pass over the row's own pivots leaves the result
        zero at each of them.  The result is divided by the gcd of its
        entries.  Stored rows are only read.
        """
        rows = self._rows
        steps = [(q, rows[q], x) for q, x in row.items() if q in rows]
        s = 1
        for _, (p, _), x in steps:
            d = abs(p) // math.gcd(p, x)
            s = s * d // math.gcd(s, d)
        out = {q: s * x for q, x in row.items()}
        for q, (p, rest), x in steps:
            del out[q]
            c = s * x // p
            for key, y in rest:
                out[key] = out.get(key, 0) - c * y
        return _normalize_row({q: x for q, x in out.items() if x})

    def solve(self, target: Mapping) -> Optional[tuple[list[int], int]]:
        """See solve; None when target is outside the span of the columns.

        The answer is the one IntEchelon.reduce gives on the tuple-keyed
        rows of solve.  The target becomes the int-keyed row of solve, with
        the marker n + k.  A nonzero entry at a key no column carries gives
        None at once: no stored row carries that key, so no reduction can
        clear it, and the class block stays nonzero on both routes.
        Otherwise _eliminate gives r = s * target - sum_j x_j * column_j
        with s > 0, zero at every pivot, in one pass.  When the target is
        sum_j y_j * column_j, the row (0 | -y | 1) differs from the target
        row by a combination of column rows, so r - s * (0 | -y | 1) lies in
        the span of the stored rows and is zero at every pivot, hence 0.
        Any reduced target, this one or the heap's, is thus a nonzero
        multiple of (0 | -y | 1), so the primitive one with a positive
        marker is unique, and both routes return it.  When the target is
        outside the span no such y exists, and the class block of the
        reduced target is nonzero on both routes.
        """
        index, n, k = self._index, self._n, self._k
        row = {}
        for w, x in target.items():
            if x:
                i = index.get(w)
                if i is None:
                    return None
                row[i] = x
        row[n + k] = 1
        red = self._eliminate(row)
        if any(q < n for q in red):
            return None
        return [-red.get(n + j, 0) for j in range(k)], red[n + k]


def solve(
    columns: Sequence[Mapping], target: Mapping
) -> Optional[tuple[list[int], int]]:
    """Exact x with sum_j x[j] * columns[j] == target, as (numerators, denominator).

    Returns None when target is outside the span of the columns and raises
    ValueError when the columns are linearly dependent.  The denominator is
    positive and shares no factor with all numerators at once.  This is
    Factorization(columns).solve(target); hold the Factorization to answer
    several targets over the same columns.

    Each column c_j becomes the row with entries c_j[w] at (0, w) and 1 at
    (1, j); the target becomes t[w] at (0, w) and 1 at the marker (2,).  The
    class block (0, .) sorts before the unit block (1, .), which sorts
    before the marker.  Every row the elimination produces from the target
    is s * target - sum_j x_j * column_j with s != 0, since column rows have
    no marker entry and every step rescales the target row by a nonzero
    factor before subtracting column rows.  The reduced target is 0 at every
    pivot.  A row's pivot is its smallest key, so a stored row with any
    class-block entry has its pivot there; when the columns are independent
    all k pivots lie in the class block, and the class block of the reduced
    target, s * t - sum x_j c_j, is 0 exactly when t is in the span; then
    t = sum (x_j / s) c_j and the unit block holds -x.  A dependent column
    reduces to 0 in the class block, so its pivot falls in the unit block.
    Factorization keys these blocks by ints in the same order.
    """
    return Factorization(columns).solve(target)
