"""Nilpotent adjoint orbits: weighted Dynkin diagrams, gradings, closure order.

Classical types are classified by partitions (with the usual parity and
multiplicity constraints), converted to Dynkin marks by sorting the
concatenated sl2 weight strings of the parts and reading off differences.
Orbit dimensions come from the grading the marks induce on the root system:

    dim orbit = dim g - rank - 2 * #{positive roots of grade 0}
                          - #{positive roots of grade 1}

which encodes that the centralizer of the nilpotent element has dimension
dim g[0] + dim g[1].  Tests confirm this against the independent
partition/centralizer dimension formulas for the classical families.

G2 carries a built-in five-orbit table.  F4 and E6/E7/E8 are accepted as
root data but have no orbit table here and raise OrbitTableUnavailableError.

For D_n, partitions with all parts even label two orbits each ("_I"/"_II",
swapped by the outer automorphism; the suffix is fixed by the rule that
"_I" carries the smaller mark on the next-to-last node).  Closure between
distinct very even partitions is taken label-matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, Sequence

from .rootdata import RootDatum, UnknownTypeError, Weight, _parse_label


class OrbitTableUnavailableError(ValueError):
    """Exceptional type whose built-in orbit table is not shipped."""


@dataclass(frozen=True)
class NilpotentOrbit:
    id: int
    label: str
    dynkin_marks: tuple[int, ...]
    dimension: int


@dataclass(frozen=True)
class GradingData:
    """Root-space grading induced by the semisimple element of an sl2 triple."""

    orbit_id: int
    degree1_roots: tuple[Weight, ...]
    levi_positive_roots: tuple[Weight, ...]
    levi_simple: tuple[int, ...]


@dataclass(frozen=True)
class ClosurePoset:
    """Closure order on orbit ids; covers is the Hasse diagram."""

    covers: dict[int, tuple[int, ...]]
    below: dict[int, frozenset[int]]

    @cached_property
    def above_masks(self) -> dict[int, int]:
        """Per orbit id, the bitmask (bit j for id j) of the orbits strictly above it.

        Built on the first read, so building the poset stays as cheap as before.
        """
        masks = dict.fromkeys(self.below, 0)
        for j, lower in self.below.items():
            for i in lower:
                masks[i] |= 1 << j
        return masks

    def maximal(self, ids: Iterable[int]) -> list[int]:
        """The ids that no other given id lies above, sorted and without repeats."""
        ids = sorted(set(ids))
        present = 0
        for i in ids:
            present |= 1 << i
        above = self.above_masks
        return [i for i in ids if not above[i] & present]


# ---------------------------------------------------------------------------
# partitions


def _partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    if max_part is None:
        max_part = n
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return out


def _multiplicity_ok(part: tuple[int, ...], parity: int) -> bool:
    # parts congruent to `parity` mod 2 must occur an even number of times
    counts: dict[int, int] = {}
    for p in part:
        counts[p] = counts.get(p, 0) + 1
    return all(c % 2 == 0 for p, c in counts.items() if p % 2 == parity)


def _admissible_partitions(family: str, n: int) -> list[tuple[int, ...]]:
    if family == "A":
        return _partitions(n + 1)
    if family == "B":
        return [p for p in _partitions(2 * n + 1) if _multiplicity_ok(p, 0)]
    if family == "C":
        return [p for p in _partitions(2 * n) if _multiplicity_ok(p, 1)]
    if family == "D":
        return [p for p in _partitions(2 * n) if _multiplicity_ok(p, 0)]
    raise UnknownTypeError(family)


def _sl2_string_values(part: tuple[int, ...]) -> list[int]:
    values = []
    for p in part:
        values.extend(range(p - 1, -p, -2))
    values.sort(reverse=True)
    return values


def _marks_from_partition(family: str, n: int, part: tuple[int, ...]) -> tuple[int, ...]:
    h = _sl2_string_values(part)
    if family == "A":
        return tuple(h[i] - h[i + 1] for i in range(n))
    head = h[:n]
    if family == "B":
        return tuple(head[i] - head[i + 1] for i in range(n - 1)) + (head[n - 1],)
    if family == "C":
        return tuple(head[i] - head[i + 1] for i in range(n - 1)) + (2 * head[n - 1],)
    if family == "D":
        tail = head[n - 2] + head[n - 1]
        return tuple(head[i] - head[i + 1] for i in range(n - 1)) + (tail,)
    raise UnknownTypeError(family)


def _is_very_even(family: str, part: tuple[int, ...]) -> bool:
    return family == "D" and all(p % 2 == 0 for p in part)


def _dominance_leq(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    # p <= q in dominance order; both are partitions of the same total
    length = max(len(p), len(q))
    sp = sq = 0
    for k in range(length):
        sp += p[k] if k < len(p) else 0
        sq += q[k] if k < len(q) else 0
        if sp > sq:
            return False
    return True


# ---------------------------------------------------------------------------
# per-factor classification records

# G2 table: label, marks on (long, short) simple roots; closure is a chain.
_G2_TABLE = [
    ("0", (0, 0)),
    ("A1", (1, 0)),
    ("A1~", (0, 1)),
    ("G2(a1)", (2, 0)),
    ("G2", (2, 2)),
]


@dataclass(frozen=True)
class _FactorOrbit:
    label: str
    marks: tuple[int, ...]
    key: tuple  # ("p", partition, tag) for classical, ("g2", index) for G2


def _factor_leq(a: _FactorOrbit, b: _FactorOrbit) -> bool:
    ka, kb = a.key, b.key
    if ka[0] == "g2":
        return ka[1] <= kb[1]
    _, pa, ta = ka
    _, pb, tb = kb
    if pa == pb:
        return ta == tb
    if not _dominance_leq(pa, pb):
        return False
    if ta and tb and ta != tb:  # both very even, distinct partitions
        return False
    return True


def _classify_factor(family: str, n: int) -> list[_FactorOrbit]:
    if family in "ABCD":
        out = []
        for part in _admissible_partitions(family, n):
            marks = _marks_from_partition(family, n, part)
            label = "[" + ",".join(str(p) for p in part) + "]"
            if _is_very_even(family, part):
                swapped = marks[:-2] + (marks[-1], marks[-2])
                first, second = sorted([marks, swapped], key=lambda m: m[-2])
                out.append(_FactorOrbit(label + "_I", first, ("p", part, "I")))
                out.append(_FactorOrbit(label + "_II", second, ("p", part, "II")))
            else:
                out.append(_FactorOrbit(label, marks, ("p", part, "")))
        return out
    if family == "G":
        return [
            _FactorOrbit(label, marks, ("g2", idx))
            for idx, (label, marks) in enumerate(_G2_TABLE)
        ]
    raise OrbitTableUnavailableError(
        f"orbit table unavailable for type {family}{n}; built-in tables cover "
        f"classical types and G2"
    )


@dataclass(frozen=True)
class _Classification:
    orbits: tuple[NilpotentOrbit, ...]
    factor_data: tuple[tuple[_FactorOrbit, ...], ...]  # per orbit, per factor


def _grades(rd: RootDatum, marks: Sequence[int]) -> list[int]:
    """The grade sum c_i m_i of each positive root sum c_i alpha_i, in positive_roots order."""
    return [sum(map(mul, coeffs, marks)) for coeffs in rd.positive_root_coeffs]


def _dimension_from_marks(rd: RootDatum, marks: Sequence[int]) -> int:
    grades = _grades(rd, marks)
    return rd.dim_g - rd.rank - 2 * grades.count(0) - grades.count(1)


@lru_cache(maxsize=None)
def _classification(rd: RootDatum) -> _Classification:
    factors = _parse_label(rd.type_label)
    per_factor = [_classify_factor(family, n) for family, n in factors]
    combos: list[tuple[_FactorOrbit, ...]] = [()]
    for options in per_factor:
        combos = [c + (o,) for c in combos for o in options]
    entries = []
    for combo in combos:
        marks = tuple(m for o in combo for m in o.marks)
        label = "x".join(o.label for o in combo)
        dim = _dimension_from_marks(rd, marks)
        entries.append((dim, marks, label, combo))
    entries.sort(key=lambda e: (e[0], e[1]))
    orbits = []
    factor_data = []
    for oid, (dim, marks, label, combo) in enumerate(entries):
        orbits.append(NilpotentOrbit(id=oid, label=label, dynkin_marks=marks, dimension=dim))
        factor_data.append(combo)
    return _Classification(tuple(orbits), tuple(factor_data))


# ---------------------------------------------------------------------------
# public operations


def classify_orbits(rd: RootDatum) -> list[NilpotentOrbit]:
    """All nilpotent orbits, ordered by (dimension, marks); ids match positions."""
    return list(_classification(rd).orbits)


def grading_data(rd: RootDatum, orbit: NilpotentOrbit) -> GradingData:
    """Grades of the positive roots under the orbit's Dynkin marks."""
    known = _classification(rd).orbits
    if not (0 <= orbit.id < len(known) and known[orbit.id] == orbit):
        raise ValueError(f"orbit {orbit!r} does not belong to the classification of {rd.type_label}")
    marks = orbit.dynkin_marks
    degree1 = []
    levi_pos = []
    for root, g in zip(rd.positive_roots, _grades(rd, marks)):
        if g == 0:
            levi_pos.append(root)
        elif g == 1:
            degree1.append(root)
    levi_simple = tuple(i for i, m in enumerate(marks) if m == 0)
    return GradingData(
        orbit_id=orbit.id,
        degree1_roots=tuple(degree1),
        levi_positive_roots=tuple(levi_pos),
        levi_simple=levi_simple,
    )


def closure_poset(rd: RootDatum, orbits: Sequence[NilpotentOrbit]) -> ClosurePoset:
    """Hasse diagram of the closure order on the given classification."""
    cls = _classification(rd)
    if tuple(orbits) != cls.orbits:
        raise ValueError("orbits do not match classify_orbits output for this root datum")

    def leq(a: int, b: int) -> bool:
        return all(
            _factor_leq(fa, fb) for fa, fb in zip(cls.factor_data[a], cls.factor_data[b])
        )

    n = len(cls.orbits)
    below = {
        b: frozenset(a for a in range(n) if a != b and leq(a, b)) for b in range(n)
    }
    covers = {}
    for b in range(n):
        lower = below[b]
        covers[b] = tuple(sorted(a for a in lower if not any(a in below[c] for c in lower)))
    return ClosurePoset(covers=covers, below=below)
