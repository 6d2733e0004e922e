"""Codimension-2 flats of the reflection arrangement and parabolic closures."""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .cyclotomic import CycNum
from .groups import ReflectionGroupData, Refused
from .matrices import _rref


def _in_rowspan(vec: Sequence[CycNum], rref_rows: Sequence[Sequence[CycNum]]) -> bool:
    resid = list(vec)
    for row in rref_rows:
        piv = next(i for i, x in enumerate(row) if x == 1)
        f = resid[piv]
        if f:
            resid = [x - f * y for x, y in zip(resid, row)]
    return not any(resid)


class Flat2:
    """A codimension-2 flat: the reflections whose roots lie in one plane."""

    def __init__(self, members: tuple[int, ...]) -> None:
        self.members = members

    def __repr__(self) -> str:
        return f"Flat2(members={list(self.members)})"


class FlatTable:
    def __init__(self, flats: tuple[Flat2, ...], pair_to_flat: dict) -> None:
        self.flats = flats
        self.pair_to_flat = pair_to_flat

    def index_of_pair(self, s: int, u: int) -> int:
        return self.pair_to_flat[(s, u) if s < u else (u, s)]

    def flat_of_pair(self, s: int, u: int) -> Flat2:
        return self.flats[self.index_of_pair(s, u)]

    def __len__(self) -> int:
        return len(self.flats)


def codim2_flats(g: ReflectionGroupData) -> FlatTable:
    """Group all reflection pairs by the plane spanned by their roots."""
    cached = getattr(g, "_flat_table", None)
    if cached is not None:
        return cached
    flats = [Flat2(members) for members in sorted(_flat_members(g))]
    pair_to_flat: dict[tuple[int, int], int] = {}
    for idx, flat in enumerate(flats):
        for pair in combinations(flat.members, 2):
            pair_to_flat[pair] = idx
    table = FlatTable(tuple(flats), pair_to_flat)
    g._flat_table = table
    return table


def _flat_members(g: ReflectionGroupData) -> set[tuple[int, ...]]:
    """Sorted member tuples of the flats.

    Every flat holds a conjugate of some class representative s0, so it is
    the W-image of a flat through s0. Exact row reduction finds the flats
    through each s0 from the pairs (s0, u); the generators' conjugation rows
    carry them to the rest. W permutes the flats, which partition the pairs,
    so an image that meets a known flat in a pair without being it, or pairs
    left uncovered, mean a wrong conjugation table.
    """
    n = g.size
    frontier: list[tuple[int, ...]] = []
    for members in g.classes:
        s0 = members[0]
        root = list(g.reflections[s0].root)
        by_key: dict[tuple, list[int]] = {}
        for u in range(n):
            if u != s0:
                key = _rref([root, list(g.reflections[u].root)])
                by_key.setdefault(key, [s0]).append(u)
        frontier += (tuple(sorted(flat)) for flat in by_key.values())
    found: set[tuple[int, ...]] = set()
    covered: set[tuple[int, int]] = set()
    while frontier:
        fresh = []
        for members in frontier:
            if members in found:
                continue
            pairs = set(combinations(members, 2))
            if not covered.isdisjoint(pairs):
                raise RuntimeError(f"{g.name}: reflections {list(members)} are not a flat")
            covered |= pairs
            found.add(members)
            for w in g.generators:
                row = g.conj_table[w]
                fresh.append(tuple(sorted(row[x] for x in members)))
        frontier = fresh
    if len(covered) != n * (n - 1) // 2:
        raise RuntimeError(f"{g.name}: the flats leave a pair of reflections uncovered")
    return found


def parabolic_reflections(g: ReflectionGroupData, seed) -> tuple[int, ...]:
    """Reflections whose hyperplane contains the intersection of the seed's.

    A hyperplane contains the intersection exactly when its defining form
    lies in the span of the seed forms, so the test is one exact row
    reduction; a full-rank seed therefore returns all of R.
    """
    seed = sorted(set(seed))
    if not seed:
        raise Refused("empty seed")
    span = _rref([list(g.reflections[s].coform) for s in seed])
    return tuple(
        x for x in range(g.size) if _in_rowspan(g.reflections[x].coform, span)
    )
