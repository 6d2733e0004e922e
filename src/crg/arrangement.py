"""Codimension-2 flats of the reflection arrangement and parabolic closures.

Both run on the group's integer root arrays (`groups.RootLines`): residues
mod p at the ring map zeta -> w of `groups._residue_point` propose, and an
exact identity or exact row reduction decides."""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .cyclotomic import CycNum
from .groups import ReflectionGroupData, Refused, _dtype, _inverse, _keys, _mul
from .groups import _residue_point, _residues

# numpy after the package modules: `crg` imports this module first, and when
# its modules compile from source, loading numpy before `groups` compiles
# raises the peak RSS of a `crg` process by about 0.1 MB
import numpy as np


def _rref(rows: list[list]) -> tuple[tuple, ...]:
    """Gauss-Jordan reduced row echelon form over a field; zero rows dropped."""
    work = [list(r) for r in rows]
    ncols = len(work[0])
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
    """The flats, the flat of each pair, and `fallbacks`: how many class
    representatives took the exact row-reduction route of `_flat_members`."""

    def __init__(self, flats: tuple[Flat2, ...], pair_to_flat: dict, fallbacks: int) -> None:
        self.flats = flats
        self.pair_to_flat = pair_to_flat
        self.fallbacks = fallbacks

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
    found, fallbacks = _flat_members(g)
    flats = [Flat2(members) for members in sorted(found)]
    pair_to_flat: dict[tuple[int, int], int] = {}
    for idx, flat in enumerate(flats):
        for pair in combinations(flat.members, 2):
            pair_to_flat[pair] = idx
    table = FlatTable(tuple(flats), pair_to_flat, fallbacks)
    g._flat_table = table
    return table


def _flat_members(g: ReflectionGroupData) -> tuple[set[tuple[int, ...]], int]:
    """Sorted member tuples of the flats, and the number of class
    representatives whose flats took exact row reduction.

    Every flat holds a conjugate of some class representative s0, so it is
    the W-image of a flat through s0.  `_flats_through` finds the flats
    through each s0 from the root arrays, or, where it cannot prove them,
    exact row reduction does from the pairs (s0, u); the generators'
    conjugation rows carry them to the rest.  W permutes the flats, which
    partition the pairs, so an image that meets a known flat in a pair
    without being it, or pairs left uncovered, mean a wrong conjugation table.
    """
    n = g.size
    point = _residue_point(g.field.n)
    res = _residues(g.lines.x, point)
    frontier: list[tuple[int, ...]] = []
    fallbacks = 0
    for members in g.classes:
        s0 = members[0]
        through = _flats_through(g, s0, res, point[0])
        if through is None:
            fallbacks += 1
            root = list(g.reflections[s0].root)
            by_key: dict[tuple, list[int]] = {}
            for u in range(n):
                if u != s0:
                    key = _rref([root, list(g.reflections[u].root)])
                    by_key.setdefault(key, [s0]).append(u)
            through = [tuple(sorted(flat)) for flat in by_key.values()]
        frontier += through
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
    return found, fallbacks


def _flats_through(
    g: ReflectionGroupData, s0: int, res: np.ndarray, p: int
) -> list[tuple[int, ...]] | None:
    """The flats through s0, from the root lines X and their residues res
    mod p; None where the residues cannot prove them.

    With p0 the first nonzero coordinate of X_s0, eliminate it mod p: b_u =
    res_u - (res_u,p0 / res_s0,p0) res_s0.  A zero b_u for some u != s0, or
    res_s0,p0 = 0, returns None.  Otherwise u is keyed by b_u scaled so that
    its first nonzero coordinate q = q(u) is 1, and equal keys propose one
    flat {s0, u, ...}.

    Distinct keys are distinct planes.  If b_u and b_v have distinct keys
    they are independent mod p, and both vanish at p0 where res_s0 does not,
    so res_s0, res_u and res_v have rank 3 mod p.  Some 3 x 3 minor of
    X_s0, X_u and X_v is then nonzero mod p, hence nonzero, and v lies
    outside the plane of s0 and u.

    Equal keys are merged only by an identity in Z[zeta].  For u the first
    member of a proposed flat and x any other, with s = X_s0,

        Delta X_x = c1 X_s0 + c2 X_u,   Delta = s_p0 u_q - s_q u_p0,
        c1 = x_p0 u_q - u_p0 x_q,       c2 = s_p0 x_q - x_p0 s_q,

    is Cramer's rule on the coordinates p0 and q.  Delta mod p is
    res_s0,p0 times the lead of b_u, a unit, so Delta != 0, and the identity
    puts X_x in the plane of X_s0 and X_u.  Every x lying in that plane
    satisfies it, so a failed identity is a mod-p collision and returns None.

    |Delta|, |c1| and |c2| are at most 2 d max|X|^2 fold, and each side at
    most 4 d^2 max|X|^3 fold^2, as for every product of `_mul`: the identity
    runs in int64 only when that bound, in Python ints, allows (`_dtype`)."""
    x = g.lines.x
    n, _, d = x.shape
    p0 = int((x[s0] != 0).any(-1).argmax())
    inverse = _inverse(int(res[s0, p0]), p)
    b = (res - res[:, p0, None] * inverse % p * res[s0] % p) % p
    nonzero = b != 0
    if not inverse or nonzero.any(1).sum() < n - 1:  # b_s0 = 0
        return None
    lead = nonzero.argmax(1)
    by_key: dict[tuple, list[int]] = {}
    for u, key in enumerate(_keys(b, lead, p)):
        if u != s0:
            by_key.setdefault(key, [s0]).append(u)
    pairs = np.array([(flat[1], v) for flat in by_key.values() for v in flat[2:]]).reshape(-1, 2)
    if len(pairs):
        rows = np.array(g.field.power_rows)
        fold = 1 + (d - 1) * int(abs(rows).max())
        dt = _dtype(4 * d * d * int(abs(x).max()) ** 3 * fold**2)
        x, rows = x.astype(dt, copy=False), rows.astype(dt, copy=False)
        s, u, y = x[s0], x[pairs[:, 0]], x[pairs[:, 1]]
        q, idx = lead[pairs[:, 0]], np.arange(len(pairs))
        sq, uq, yq = s[q], u[idx, q], y[idx, q]
        delta = _mul(s[p0], uq, rows) - _mul(sq, u[:, p0], rows)
        c1 = _mul(y[:, p0], uq, rows) - _mul(u[:, p0], yq, rows)
        c2 = _mul(s[p0], yq, rows) - _mul(y[:, p0], sq, rows)
        rhs = _mul(c1[:, None], s, rows) + _mul(c2[:, None], u, rows)
        if not (_mul(delta[:, None], y, rows) == rhs).all():
            return None
    return [tuple(sorted(flat)) for flat in by_key.values()]


def parabolic_reflections(g: ReflectionGroupData, seed) -> tuple[int, ...]:
    """Reflections whose hyperplane contains the intersection of the seed's.

    A hyperplane contains the intersection exactly when its defining form
    lies in the span of the seed forms.  Their residues mod p, the rows of
    Phi under zeta -> w, decide most of it: each seed residue outside the
    span mod p of those before it becomes a pivot, and every residue is
    reduced by it.  A rank of k mod p means some k-minor is nonzero mod p,
    hence nonzero, so the exact rank is at least k.  Seed residues of rank r
    therefore return all of R.  Otherwise let k be the exact rank of the
    seed forms (`_rref`).  When their residues have rank k too, a form whose
    residue lies outside their span mod p makes k + 1 rows of rank k + 1, so
    it lies outside the exact span.  Only the forms inside the span mod p
    are tested exactly (`_in_rowspan`); if the ranks differ, every form is.
    """
    seed = sorted(set(seed))
    if not seed:
        raise Refused("empty seed")
    p, _ = point = _residue_point(g.field.n)
    res = _residues(g.lines.phi, point)
    rank = 0
    for s in seed:
        pivot = np.flatnonzero(res[s])[:1]
        if len(pivot):
            row = res[s] * _inverse(int(res[s, pivot[0]]), p) % p
            res = (res - res[:, pivot] * row % p) % p
            rank += 1
    if rank == res.shape[1]:
        return tuple(range(g.size))
    span = _rref([list(g.reflections[s].coform) for s in seed])
    candidates = range(g.size)
    if rank == len(span):
        candidates = np.flatnonzero(~res.any(1)).tolist()
    return tuple(x for x in candidates if _in_rowspan(g.reflections[x].coform, span))
