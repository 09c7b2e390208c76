"""Exact linear algebra over the rationals by fraction-free integer elimination.

A row is a sparse dict from mutually comparable keys to nonzero ints; a
K-theory class's as_dict() is one.  IntEchelon keeps its rows
back-substituted, each zero at the pivot of every other, so reducing a row
is one pass over the pivots the row carries.  Each echelon fixes its pivot
rule when it is built: a new row pivots at its smallest key, or, with
fewest_holders, at the key that the fewest stored rows carry (the rule of
Markowitz, Management Science 3, 1957), ties going to the smallest key.
Elimination cross-multiplies (no division) and divides every new row by
the gcd of its entries, so entries stay small and no Fraction is ever
formed.  Factorization solves linear systems: it eliminates a system's
columns once in a smallest-key IntEchelon, keyed by ints in blocks whose
order puts every pivot in the class block, reads each key's unit-target
solution off the stored rows, and so solves a target by one sparse sum.
The Hermite reduction over the integers, which needs unimodular steps,
lives in ktheory.hnf_certified_split.
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
    Construction numbers the class block, the union of the column keys, in
    descending order 0..n-1 (so a column pivots at its largest key: classes
    differ most in their largest weights and share their small-weight
    tails, which makes this order need far fewer eliminations), and gives
    column j's unit key n + j.  Each column becomes the row (c_j | e_j),
    and the rows go into one smallest-key IntEchelon, which keeps each
    stored row zero at every other pivot.

    Where the pivots fall.  The reduced row of column j is s * row_j minus
    a combination of the rows stored before it, with s != 0, so its class
    block is s * c_j minus a combination of the earlier columns: zero
    exactly when c_j lies in their span.  Every class key is smaller than
    every unit key, so a column independent of the earlier ones pivots in
    the class block, and a dependent one in the unit block; later updates
    move no pivot.  So the columns are independent exactly when all k
    pivots lie in the class block, which construction checks.

    Columns.  Reduction over the stored rows is the linear map R(t) = t -
    sum_q t[q] / rho_q[q] * rho_q over the pivots q, each rho_q being zero
    at every other pivot, so R(t) = sum_w t_w * R(e_w).  For a pivot w
    with row rho, R(e_w) is -rho[q] / rho[w] at each non-pivot class key
    q (its residual) and -rho[n + j] / rho[w] at unit key n + j; for a
    non-pivot w, R(e_w) = e_w.  (t | 0) - R(t) lies in the span of the
    rows (c_j | e_j), so R(t) = (t - sum_j z_j * c_j | -z) for some z,
    and x = z when the class block of R(t) is zero.  If t = sum_j y_j *
    c_j, then R(t) - (0 | -y) lies in the span and is zero at every pivot,
    hence 0, so an in-span target leaves a zero class block.  Each key w
    thus stores x(e_w) = rho[n + j] / rho[w] as unit pairs, its residual
    pairs and the positive scale |rho[w]|, and the echelon is dropped.
    Independent columns make x unique; solve returns it in lowest terms.
    The residual keeps solve exact with more keys than columns: with the
    column {a: 1, b: -1}, {a: 2, b: -2} has x = (2), although neither
    unit target lies in the span.  solve never writes the stored columns,
    so no answer depends on the targets answered before.
    """

    def __init__(self, columns: Sequence[Mapping]) -> None:
        """Raises ValueError when the columns are linearly dependent."""
        keys = sorted({w for col in columns for w, x in col.items() if x}, reverse=True)
        n, k = len(keys), len(columns)
        index = {w: i for i, w in enumerate(keys)}
        echelon = IntEchelon()
        for j, col in enumerate(columns):
            row = {index[w]: x for w, x in col.items() if x}
            row[n + j] = 1
            echelon.add(row)
        rows = echelon._by_pivot
        if sum(1 for p in rows if p < n) < k:
            raise ValueError("columns are linearly dependent")
        self._columns: dict[Hashable, tuple] = {}
        for w, i in index.items():
            rho = rows.get(i)
            if rho is None:  # not a pivot: R(e_w) = e_w
                self._columns[w] = ((), ((i, 1),), 1)
            else:
                sign = 1 if rho[i] > 0 else -1
                units = tuple((q - n, sign * x) for q, x in rho.items() if q >= n)
                residual = tuple((q, -sign * x) for q, x in rho.items() if q < n and q != i)
                self._columns[w] = (units, residual, sign * rho[i])

    def carries(self, key: Hashable) -> bool:
        """Whether some column has a nonzero entry at key."""
        return key in self._columns

    def solve(self, target: Mapping) -> Optional[tuple[dict[int, int], int]]:
        """The nonzero numerators of x, as ({column index: numerator}, denominator).

        None when target is outside the span of the columns.  The
        denominator is positive and shares no factor with all numerators
        at once; the numerators come in increasing column index.  A nonzero
        entry at a key no column carries gives None at once.  Otherwise x
        is sum_w t_w * x(e_w), summed with the residuals over the lcm of
        the scales met, and a nonzero summed residual gives None.  The
        first nonzero entry seeds the sums with t_w times its own pairs
        over its own scale: that is what adding it to the empty sums over
        denominator 1 gives, the lcm of 1 and the scale being the scale.
        Every later entry is added in place, the sums being multiplied
        through when its scale does not divide the denominator, so the sum
        is the same whichever entry comes first.  For a square unimodular
        system every scale is 1 and every residual is empty, so the sum
        only adds ints, and a denominator of 1 needs no final gcd.
        """
        columns = self._columns
        items = iter(target.items())
        for w, t in items:
            if t:
                break
        else:
            return {}, 1
        column = columns.get(w)
        if column is None:
            return None
        pairs, rest, den = column
        units = {j: t * x for j, x in pairs}
        residual = {q: t * x for q, x in rest}
        get = units.get
        for w, t in items:
            if not t:
                continue
            column = columns.get(w)
            if column is None:
                return None
            pairs, rest, scale = column
            if scale != den:
                if den % scale:
                    m = scale // math.gcd(den, scale)
                    den *= m
                    for j in units:
                        units[j] *= m
                    for q in residual:
                        residual[q] *= m
                t *= den // scale
            for j, x in pairs:
                units[j] = get(j, 0) + t * x
            for q, x in rest:
                residual[q] = residual.get(q, 0) + t * x
        if any(residual.values()):
            return None
        numerators = {j: units[j] for j in sorted(units) if units[j]}
        if den == 1:
            return numerators, 1
        g = math.gcd(den, *numerators.values())
        if g != 1:
            numerators = {j: x // g for j, x in numerators.items()}
        return numerators, den // g
