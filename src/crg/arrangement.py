"""Codimension-2 flats of the reflection arrangement and parabolic closures."""

from __future__ import annotations

from typing import Sequence

from .cyclotomic import CycNum
from .groups import ReflectionGroupData


def _rref(rows: list[list[CycNum]]) -> tuple[tuple[CycNum, ...], ...]:
    """Reduced row echelon form over a cyclotomic field; zero rows dropped."""
    work = [list(r) for r in rows]
    ncols = len(work[0])
    out: list[list[CycNum]] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return tuple(tuple(row) for row in work[:r])


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

    def flat_of_pair(self, s: int, u: int) -> Flat2:
        return self.flats[self.pair_to_flat[(s, u) if s < u else (u, s)]]

    def __len__(self) -> int:
        return len(self.flats)


def codim2_flats(g: ReflectionGroupData) -> FlatTable:
    """Group all reflection pairs by the plane spanned by their roots."""
    cached = getattr(g, "_flat_table", None)
    if cached is not None:
        return cached
    if g.rank < 2:
        table = FlatTable((), {})
        g._flat_table = table
        return table
    n = g.size
    by_key: dict[tuple, list[tuple[int, int]]] = {}
    for s in range(n):
        root_s = g.reflections[s].root
        for u in range(s + 1, n):
            key = _rref([list(root_s), list(g.reflections[u].root)])
            by_key.setdefault(key, []).append((s, u))
    flats = []
    for pairs in by_key.values():
        members = set()
        for s, u in pairs:
            members.add(s)
            members.add(u)
        flats.append(Flat2(tuple(sorted(members))))
    flats.sort(key=lambda f: f.members)
    pair_to_flat: dict[tuple[int, int], int] = {}
    for idx, flat in enumerate(flats):
        for i, s in enumerate(flat.members):
            for u in flat.members[i + 1 :]:
                pair_to_flat[(s, u)] = idx
    table = FlatTable(tuple(flats), pair_to_flat)
    g._flat_table = table
    return table


def parabolic_reflections(g: ReflectionGroupData, seed) -> tuple[int, ...]:
    """Reflections whose hyperplane contains the intersection of the seed's.

    A hyperplane contains the intersection exactly when its defining form
    lies in the span of the seed forms, so the test is one exact row
    reduction; a full-rank seed therefore returns all of R.
    """
    seed = sorted(set(seed))
    if not seed:
        raise ValueError("empty seed")
    span = _rref([list(g.reflections[s].coform) for s in seed])
    return tuple(
        x for x in range(g.size) if _in_rowspan(g.reflections[x].coform, span)
    )
