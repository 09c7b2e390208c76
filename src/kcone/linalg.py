"""Exact linear algebra over the rationals by fraction-free integer elimination.

Rows are lists of Python ints.  Elimination cross-multiplies (Bareiss-style,
no division) and divides every new row by the gcd of its entries, so entries
stay small and no Fraction is ever formed.  The Hermite reduction over the
integers, which needs unimodular steps, lives in ktheory.hnf_certified_split.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence


def _normalize_row(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        g = math.gcd(g, x)
    if g > 1:
        row = [x // g for x in row]
    for x in row:
        if x:
            return row if x > 0 else [-y for y in row]
    return row


class IntEchelon:
    """Row space over the rationals, kept as gcd-reduced integer rows."""

    def __init__(self) -> None:
        self._pivots: list[int] = []
        self._rows: list[list[int]] = []

    def reduce(self, row: Sequence[int]) -> list[int]:
        """Row minus a combination of the stored rows, up to a nonzero factor.

        The result is zero at every pivot position, so it is zero exactly
        when row lies in the span.
        """
        row = list(row)
        for pivot, base in zip(self._pivots, self._rows):
            x = row[pivot]
            if x:
                p = base[pivot]
                g = math.gcd(p, x)
                a, b = p // g, x // g
                row = [a * u - b * v for u, v in zip(row, base)]
                row = _normalize_row(row)
        return row

    def add(self, row: Sequence[int]) -> bool:
        """Insert if independent of the current span; return whether it was."""
        red = self.reduce(row)
        pivot = next((i for i, x in enumerate(red) if x), None)
        if pivot is None:
            return False
        red = _normalize_row(red)
        pos = 0
        while pos < len(self._pivots) and self._pivots[pos] < pivot:
            pos += 1
        self._pivots.insert(pos, pivot)
        self._rows.insert(pos, red)
        return True

    def __len__(self) -> int:
        return len(self._rows)


def solve(
    columns: Sequence[Sequence[int]], target: Sequence[int]
) -> Optional[tuple[list[int], int]]:
    """Exact x with sum_j x[j] * columns[j] == target, as (numerators, denominator).

    Returns None when target is outside the span of the columns and raises
    ValueError when the columns are linearly dependent.  The denominator is
    positive and shares no factor with all numerators at once.

    Each column c_j becomes the row (c_j | e_j | 0) and the target the row
    (t | 0 | 1).  Every row the elimination produces from the target is
    s * (t | 0 | 1) - sum_j x_j * (c_j | e_j | 0) with s != 0, since the
    column rows are 0 in the marker slot and every step rescales the target
    row by a nonzero factor before subtracting column rows.  The reduced
    target is 0 at every pivot.  When the columns are independent their k
    pivots all lie in the first block, so the first block of the reduced
    target, s * t - sum x_j c_j, is 0 exactly when t is in the span; then
    t = sum (x_j / s) c_j and the second block holds -x.  A dependent column
    reduces to 0 in the first block, so its pivot falls in the second.
    """
    m, k = len(target), len(columns)
    ech = IntEchelon()
    for j, col in enumerate(columns):
        row = list(col) + [0] * (k + 1)
        row[m + j] = 1
        ech.add(row)
    if sum(1 for p in ech._pivots if p < m) < k:
        raise ValueError("columns are linearly dependent")
    red = ech.reduce(list(target) + [0] * k + [1])
    if any(red[:m]):
        return None
    sign = 1 if red[-1] > 0 else -1
    return [-sign * x for x in red[m : m + k]], sign * red[-1]
