"""Exact linear algebra over the rationals by fraction-free integer elimination.

A row is a sparse dict from mutually comparable keys to nonzero ints;
KClass.as_row() gives one per K-theory class.  IntEchelon keeps its rows
back-substituted, each zero at the pivot of every other, so reducing a row
is one pass over the pivots the row carries.  Each echelon fixes its pivot
rule when it is built: a new row pivots at its smallest key, or, with
fewest_holders, at the key that the fewest stored rows carry (the rule of
Markowitz, Management Science 3, 1957), ties going to the smallest key.
Elimination cross-multiplies (no division) and divides every new row by
the gcd of its entries, so entries stay small and no Fraction is ever
formed.  Factorization solves linear systems: it keys a system's columns
by ints in blocks whose order puts every pivot in the class block, keeps
them in one smallest-key IntEchelon, and so solves a target by one
reduce.  The Hermite reduction over the integers, which needs
unimodular steps, lives in ktheory.hnf_certified_split.
"""

from __future__ import annotations

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
    """Row space over the rationals, kept as primitive, back-substituted integer rows.

    _by_pivot maps each pivot to its row and _holders maps every key of a
    stored row to the set of pivots of the stored rows that carry it.
    Every stored row is primitive, nonzero at its own pivot and zero at
    every other pivot.  The pivot rule is the smallest key of the reduced
    row, or with fewest_holders the key of fewest holders, then smallest.

    Whether add keeps a row depends only on the span of the rows kept
    before it, not on the pivots or the key labels.  Proof sketch:

    - reduce leaves the row zero at every pivot.  It returns s * row -
      sum_q c_q * row_q over the pivots q the row carries, with s > 0 and
      c_q = s * row[q] / row_q[q].  Row q is zero at every other pivot, so
      subtracting c_q * row_q cancels the entry at q and changes no other
      pivot entry; a pivot the row does not carry stays zero.
    - The update in add is invertible and leaves the other pivot entries
      alone.  Each stored row q carrying the new pivot p becomes
      a * row_q - b * red with a != 0, divided by the gcd of its entries,
      where red is the reduced row.  red is zero at every old pivot, so
      row_q keeps a nonzero entry at q and zeros at the other old pivots,
      and a and b make its entry at p zero.  row_q is recovered from the
      new row and red, so the stored rows span the old span plus red.
    - A nonzero vector in the span cannot be zero at every pivot.  Write
      it as sum_q y_q * row_q; its entry at pivot q is y_q * row_q[q], the
      other rows being zero there, so a vector zero at every pivot has
      every y_q = 0.

    The reduced row is s * row minus a vector of the span and is zero at
    every pivot, so by the third point it is empty exactly when row lies
    in the span.  By the second, the stored rows span exactly the rows
    kept so far, whatever the rule.  Hence the decisions, and so the kept
    rows, are the same under every pivot rule and every relabelling of the
    keys.
    """

    def __init__(self, *, fewest_holders: bool = False) -> None:
        self._fewest_holders = fewest_holders
        self._by_pivot: dict[Hashable, Row] = {}
        self._holders: dict[Hashable, set] = {}

    def reduce(self, row: Mapping) -> Row:
        """Row minus a combination of the stored rows, up to a nonzero factor.

        The result is primitive and zero at every pivot, so it is empty
        exactly when row lies in the span; it is unique up to its sign.
        It is s * row - sum_q c_q * row_q over the pivots q the row carries,
        where s > 0 is the least int making every c_q = s * row[q] /
        row_q[q] an integer, divided by the gcd of its entries.  The row is
        a copy of the argument; stored rows are only read.
        """
        by_pivot = self._by_pivot
        row = {k: x for k, x in row.items() if x}
        steps = [(by_pivot[q], q, x) for q, x in row.items() if q in by_pivot]
        s = 1
        for base, q, x in steps:
            d = abs(base[q]) // math.gcd(base[q], x)
            s = s * d // math.gcd(s, d)
        if s != 1:
            row = {k: s * x for k, x in row.items()}
        for base, q, x in steps:
            c = s * x // base[q]
            for k, y in base.items():
                v = row.get(k, 0) - c * y
                if v:
                    row[k] = v
                else:
                    del row[k]
        return _normalize_row(row)

    def add(self, row: Mapping) -> bool:
        """Insert if independent of the current span; return whether it was.

        The reduced row is stored under its pivot p, and every stored row
        carrying p, found in _holders, is cleared at p and made primitive.
        """
        red = self.reduce(row)
        if not red:
            return False
        by_pivot, holders = self._by_pivot, self._holders
        if self._fewest_holders:
            p = min(red, key=lambda k: (len(holders.get(k, ())), k))
        else:
            p = min(red)
        stale = holders.pop(p, ())
        for k in red:
            holders.setdefault(k, set()).add(p)
        x = red[p]
        rest = [(k, z) for k, z in red.items() if k != p]
        for q in stale:
            base = by_pivot[q]
            y = base.pop(p)
            g = math.gcd(x, y)
            a, b = abs(x) // g, (y if x > 0 else -y) // g  # a * y == b * x
            if a != 1:
                base = {k: a * v for k, v in base.items()}
            for k, z in rest:
                v = base.get(k)
                if v is None:
                    base[k] = -b * z
                    holders[k].add(q)
                else:
                    v -= b * z
                    if v:
                        base[k] = v
                    else:
                        del base[k]
                        holders[k].discard(q)
            by_pivot[q] = _normalize_row(base)
        by_pivot[p] = red
        return True

    def __len__(self) -> int:
        return len(self._by_pivot)


class Factorization:
    """The columns of a linear system, eliminated once; solve answers one target.

    solve(target) gives the exact x with sum_j x_j * column_j == target.
    Construction maps the keys to ints in three blocks: the class block,
    the sorted union of the column keys, to 0..n-1; the unit block, column
    j's unit key, to n + j; and the marker, n + k.  Column j becomes the
    row with its entries in the class block and 1 at n + j, and every
    column row goes into one smallest-key IntEchelon, whose rows come
    back-substituted: each is zero at every other pivot.  solve is then
    one IntEchelon.reduce of the target.

    Where the pivots fall.  The reduced row of column j is s * row_j minus
    a combination of the rows stored before it, with s != 0, so its class
    block is s * c_j minus a combination of the earlier columns: zero
    exactly when c_j lies in their span.  A row pivots at its smallest
    key, and every class key is smaller than every unit key, so a column
    independent of the earlier ones pivots in the class block, and a
    dependent one in the unit block; later updates move no pivot.  Hence
    the columns are independent exactly when all k pivots lie in the
    class block, which construction checks.  Then neither the unit block
    nor the marker holds a pivot, and solve reads the answer off them.

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
        self._echelon = IntEchelon()
        for j, col in enumerate(columns):
            row = {self._index[w]: x for w, x in col.items() if x}
            row[n + j] = 1
            self._echelon.add(row)
        if sum(1 for p in self._echelon._by_pivot if p < n) < k:
            raise ValueError("columns are linearly dependent")

    def carries(self, key: Hashable) -> bool:
        """Whether some column has a nonzero entry at key."""
        return key in self._index

    def solve(self, target: Mapping) -> Optional[tuple[dict[int, int], int]]:
        """The nonzero numerators of x, as ({column index: numerator}, denominator).

        None when target is outside the span of the columns.  The
        denominator is positive and shares no factor with all numerators
        at once.  The target becomes the row with its entries in the class
        block and 1 at the marker n + k.  A nonzero entry at a key no
        column carries gives None at once: no stored row carries that key,
        so no reduction can clear it.  Otherwise reduce gives r = s *
        target - sum_j x_j * column_j with s > 0, zero at every pivot,
        divided by the positive gcd of its entries, so its marker entry is
        positive (column rows have none).  When the target is sum_j y_j *
        column_j, the row (0 | -y | 1) differs from the target row by a
        combination of column rows, so r - s' * (0 | -y | 1), for s' the
        marker entry of r, lies in the span of the stored rows.  It is
        zero at every pivot, all of which lie in the class block, hence 0:
        the unit block of r holds -s' * y.  When the target is outside the
        span no such y exists, and the class block of r is nonzero.  The
        numerators come in increasing column index.
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
        red = self._echelon.reduce(row)
        if any(q < n for q in red):
            return None
        marker = red.pop(n + k)
        return {q - n: -x for q, x in sorted(red.items())}, marker

