"""Exact linear algebra over the rationals by fraction-free integer elimination.

A row is a sparse dict from mutually comparable keys to nonzero ints;
KClass.as_row() gives one per K-theory class.  The pivot of a row is its
smallest key.  Elimination cross-multiplies (Bareiss-style, no division)
and divides every new row by the gcd of its entries, so entries stay small
and no Fraction is ever formed.  The Hermite reduction over the integers,
which needs unimodular steps, lives in ktheory.hnf_certified_split.
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

    Construction puts every column into one IntEchelon and runs the
    dependence check; each solve call reduces one target against it.  The
    call only reads the stored rows: IntEchelon.reduce copies its argument
    and eliminates in that copy, never in a stored row, and the object has
    no other state.  So every call sees the echelon exactly as construction
    left it, and factorization.solve(t) performs the same eliminations as
    the reduction inside a fresh solve(columns, t) and returns the same
    (numerators, denominator), whatever targets were answered before.
    """

    def __init__(self, columns: Sequence[Mapping]) -> None:
        """Raises ValueError when the columns are linearly dependent."""
        self._k = len(columns)
        ech = IntEchelon()
        for j, col in enumerate(columns):
            row = {(0, w): x for w, x in col.items()}
            row[(1, j)] = 1
            ech.add(row)
        if sum(1 for p in ech._by_pivot if p[0] == 0) < self._k:
            raise ValueError("columns are linearly dependent")
        self._echelon = ech

    def solve(self, target: Mapping) -> Optional[tuple[list[int], int]]:
        """See solve; None when target is outside the span of the columns."""
        row = {(0, w): x for w, x in target.items()}
        row[(2,)] = 1
        red = self._echelon.reduce(row)
        if any(key[0] == 0 for key in red):
            return None
        sign = 1 if red[(2,)] > 0 else -1
        return [-sign * red.get((1, j), 0) for j in range(self._k)], sign * red[(2,)]


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
    """
    return Factorization(columns).solve(target)
