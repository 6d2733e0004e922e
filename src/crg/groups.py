"""Reflection group construction: infinite series, Coxeter root systems and
the exceptional groups G12, G13, G22 and G24, with conjugation tables and
class statistics.

Every group is built one way, from its root lines.  An order-2 unitary
reflection s = I - 2 a a* / (a* a) is fixed by its root line: a scaled so
that its first nonzero coordinate is 1.  Its coform, the linear form a*, is
the complex conjugate of the root.  Each builder writes its roots as one
integer coefficient array; the lines are scaled on that array, with one
field inverse per distinct irrational lead, and conjugated in integers.  The
root of y s y is y a, so a few generating reflections act on all the lines
at once by batched integer products in Z[zeta], each image line proposed by
residues mod p and proven by one integer identity, and every other row of
the conjugation table follows from sigma_{g y g} = sigma_g sigma_y sigma_g,
which is integer work.  A reflection's root, coform and matrix as field
elements are built only when read."""

from __future__ import annotations

from fractions import Fraction
from copy import copy
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import lcm
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .cyclotomic import CycNum, CyclotomicField, cyclotomic_field, cyclotomic_int_coeffs
from .matrices import ExactMatrix

Vec = tuple[CycNum, ...]

# the integer products of `_assemble` run in int64 only when a bound on
# every intermediate value, proven in Python ints, stays within this
_INT64_MAX = 2**63 - 1


def _dtype(bound: int) -> type:
    """int64 when bound, a bound proven in Python ints on every value some
    integer products reach, is at most `_INT64_MAX`; Python ints otherwise."""
    return np.int64 if bound <= _INT64_MAX else object


class Refused(ValueError):
    """A group, point or size that crg declines to decide: unsupported, outside
    a limit, or excluded.  The CLI reports it as refused input or as a skipped
    check, never as a failed claim; any other exception, such as a plain
    ValueError for a misused argument, is an internal error."""


def _dot(u: Sequence[CycNum], v: Sequence[CycNum]) -> CycNum:
    acc = u[0].field.zero()
    for x, y in zip(u, v):
        if x and y:
            acc = acc + x * y
    return acc


@lru_cache(maxsize=None)
def _residue_point(n: int) -> tuple[int, int]:
    """A modulus p < 2^31 and w with Phi_n(w) = 0 mod p, so that zeta_n -> w
    is a ring map Z[zeta_n] -> Z/p: p is the largest probable prime 1 mod n
    below 2^31 that has such a w among h^((p - 1)/n), h = 2, 3, ..."""
    phi = cyclotomic_int_coeffs(n)
    p = (2**31 - 2) // n * n + 1
    while True:
        if pow(2, p - 1, p) == 1:
            for h in range(2, 64):
                w = pow(h, (p - 1) // n, p)
                if sum(c * pow(w, i, p) for i, c in enumerate(phi)) % p == 0:
                    return p, w
        p -= n


def _mul(u: np.ndarray, v: np.ndarray, power_rows: np.ndarray) -> np.ndarray:
    """Products in Z[zeta] of power-basis coefficient arrays (last axis),
    broadcast over the other axes: one shifted multiply-add per coefficient
    that is nonzero somewhere in the smaller operand, then `_fold`."""
    d = u.shape[-1]
    if u.size > v.size:
        u, v = v, u
    shape = np.broadcast_shapes(u.shape[:-1], v.shape[:-1]) + (2 * d - 1,)
    out = np.zeros(shape, dtype=u.dtype)
    for i in _nonzero_columns(u):
        out[..., i : i + d] += u[..., i, None] * v
    return _fold(out, power_rows)


def _conjugate(x: np.ndarray, power_rows: np.ndarray, n: int) -> np.ndarray:
    """Complex conjugates of power-basis coefficient arrays: x times the
    d x d matrix whose rows are power_rows[-k % n], applied as the move of
    each coefficient of zeta^k to zeta^(-k % n) < n, then `_fold`."""
    d = x.shape[-1]
    w = np.zeros(x.shape[:-1] + (n,), dtype=x.dtype)
    w[..., -np.arange(d) % n] = x
    return _fold(w, power_rows)


def _fold(w: np.ndarray, power_rows: np.ndarray) -> np.ndarray:
    """w, coefficients of zeta^0, zeta^1, ... on the last axis, in the power
    basis: the powers zeta^k, k >= d, that are nonzero somewhere are folded
    in by one product with their reduction rows.  Overwrites w."""
    d = power_rows.shape[1]
    high = _nonzero_columns(w[..., d:]) + d
    if len(high):
        w[..., :d] += w[..., high] @ power_rows[high]
    return w[..., :d]


def _nonzero_columns(w: np.ndarray) -> np.ndarray:
    """The indices along the last axis of w where some entry is nonzero."""
    return w.any(tuple(range(w.ndim - 1))).nonzero()[0]


def _residues(vecs: np.ndarray, point: tuple[int, int]) -> np.ndarray:
    """The images mod p of power-basis coefficient arrays (last axis) under
    the ring map zeta -> w of `_residue_point`, as int64 below p: every
    product stays below p^2 < 2^62."""
    p, w = point
    powers = np.array([pow(w, i, p) for i in range(vecs.shape[-1])], dtype=np.int64)
    return ((vecs % p).astype(np.int64) * powers % p).sum(-1) % p


def _keys(res: np.ndarray, lead: np.ndarray, p: int) -> list[tuple]:
    """Each row of res, residues mod p of the vectors (`_residues`), scaled
    so that coordinate lead is 1: equal for two vectors on one line whenever
    that coordinate is a unit mod p."""
    heads = res[np.arange(len(res)), lead].tolist()
    inverses = np.array([_inverse(h, p) for h in heads], dtype=np.int64)
    return [tuple(k) for k in (res * inverses[:, None] % p).tolist()]


def _inverse(h: int, p: int) -> int:
    """h^-1 mod p, or 0 where h is not a unit: that vector gets no true key,
    and the certificate decides its line."""
    try:
        return pow(h, -1, p)
    except ValueError:
        return 0


def _propose(y: np.ndarray, lead: np.ndarray, index: dict, point: tuple[int, int]) -> list[int]:
    """For each vector of y, the line whose residue key it shares; line 0
    where none does.  Only a proposal: `_assemble` proves each one."""
    return [index.get(key, 0) for key in _keys(_residues(y, point), lead, point[0])]


def _reflection_matrix(a: Vec, phi: Vec) -> ExactMatrix:
    """I - 2 a (x) phi / (phi . a)."""
    r = len(a)
    c = -2 / _dot(phi, a)
    cphi = [c * x for x in phi]
    one, zero = a[0].field.one(), a[0].field.zero()
    entries = []
    for i, ai in enumerate(a):
        if ai:
            row = [ai * x for x in cphi]
            row[i] = row[i] + 1
        else:
            row = [zero] * r
            row[i] = one
        entries.extend(row)
    return ExactMatrix(r, r, entries)


def _packed_keys(
    x: np.ndarray,
    phi: np.ndarray,
    den: int,
    field: CyclotomicField,
    power_rows: np.ndarray,
    bound: int,
) -> np.ndarray:
    """Each line's packed reflection matrix (L, K / g) of `_assemble` as one
    integer row, from the lines x and coforms phi over den.  bound bounds
    |C X_i Phi_j| / max|C|; the rows are int64 when x is and
    bound max|C| + max E D^2 is at most `_INT64_MAX`, Python ints otherwise."""
    n, r, _ = x.shape
    nus = [tuple(nu) for nu in _mul(phi, x, power_rows).sum(1).tolist()]
    scale = {nu: -2 * den**2 / CycNum(field, nu) for nu in set(nus)}  # C / E
    ed2 = [scale[nu].den * den**2 for nu in nus]
    mk = bound * max(max(map(abs, c.num)) for c in scale.values()) + max(ed2)
    kt = _dtype(mk) if x.dtype == np.int64 else object
    kx, kphi, krows = (w.astype(kt, copy=False) for w in (x, phi, power_rows))
    c = np.array([scale[nu].num for nu in nus], dtype=kt)
    k = _mul(_mul(c[:, None], kx, krows)[:, :, None], kphi[:, None], krows)
    ed2 = np.array(ed2, dtype=kt)[:, None]
    k[:, range(r), range(r), 0] += ed2
    packed = np.concatenate([ed2, k.reshape(n, -1)], 1)
    return packed // np.gcd.reduce(packed, 1)[:, None]


class RootLines(NamedTuple):
    """A group's root lines X and their coforms Phi: integer power-basis
    coefficient arrays of shape (lines, r, d) over one denominator D."""

    x: np.ndarray
    phi: np.ndarray
    den: int
    field: CyclotomicField

    def vector(self, w: np.ndarray) -> Vec:
        """One row of X or Phi as field elements."""
        return tuple(CycNum(self.field, c, self.den) for c in w.tolist())


class Reflection:
    """One order-2 reflection; its root line, coform and matrix are built on
    first use from the root arrays it shares with the rest of its group."""

    def __init__(self, index: int, lines: RootLines) -> None:
        self.index = index
        self.lines = lines

    @cached_property
    def root(self) -> Vec:
        """The root line, scaled so that its first nonzero coordinate is 1."""
        return self.lines.vector(self.lines.x[self.index])

    @cached_property
    def coform(self) -> Vec:
        """The linear form of the reflection: the conjugate of the root."""
        return self.lines.vector(self.lines.phi[self.index])

    @cached_property
    def matrix(self) -> ExactMatrix:
        """I - 2 root (x) coform / (coform . root)."""
        return _reflection_matrix(self.root, self.coform)

    def __repr__(self) -> str:
        return f"Reflection({self.index})"


class ReflectionGroupData:
    """Immutable bundle of reflections, conjugation table, generators and class data."""

    def __init__(
        self,
        name: str,
        rank: int,
        conductor: int,
        reflections: tuple[Reflection, ...],
        conj_table: tuple[tuple[int, ...], ...],
        generators: tuple[int, ...],
    ) -> None:
        self.name = name
        self.rank = rank
        self.conductor = conductor
        self.field = cyclotomic_field(conductor)
        self.reflections = reflections
        self.conj_table = conj_table
        self.generators = generators

        n = len(reflections)
        alpha = [[0] * n for _ in range(n)]
        for y in range(n):
            crow = conj_table[y]
            for u in range(n):
                s = crow[u]
                if s != u:
                    alpha[s][u] += 1
        self.alpha = tuple(tuple(row) for row in alpha)

        class_of = [-1] * n
        classes: list[tuple[int, ...]] = []
        for start in range(n):
            if class_of[start] >= 0:
                continue
            orbit = {start}
            frontier = [start]
            while frontier:
                s = frontier.pop()
                for w in generators:
                    t = conj_table[w][s]
                    if t not in orbit:
                        orbit.add(t)
                        frontier.append(t)
            idx = len(classes)
            members = tuple(sorted(orbit))
            classes.append(members)
            for s in members:
                class_of[s] = idx
        self.classes = tuple(classes)
        self.class_of = tuple(class_of)

    @property
    def size(self) -> int:
        return len(self.reflections)

    @property
    def lines(self) -> RootLines:
        """The root lines and coforms, as integer arrays, that the reflections read."""
        return self.reflections[0].lines

    def renamed(self, name: str) -> ReflectionGroupData:
        """This group under another name, sharing every table already computed."""
        out = copy(self)
        out.name = name
        return out

    def commutes(self, s: int, u: int) -> bool:
        return self.conj_table[u][s] == s

    def __repr__(self) -> str:
        return f"ReflectionGroupData({self.name}: {self.size} reflections)"


def _lines(
    roots: np.ndarray, field: CyclotomicField, power_rows: np.ndarray, fold: int
) -> tuple[np.ndarray, int]:
    """The distinct lines of roots, whose rows are integer coefficient arrays
    (r, d) of nonzero multiples of roots, as X over the least common
    denominator D of the lines, each scaled so its first nonzero coordinate is 1.

    A row a with lead h, its first nonzero coordinate, has the line a / h;
    any denominator common to a and h cancels.  A rational h = c gives
    M = sign(c) over E = |c|.  Otherwise h^-1 = M / E, one field inverse per
    distinct h, and one batched product forms every M a.  With M a and E
    divided by their gcd, E is the lcm of the reduced denominators of the
    line's entries, so D is the lcm of the E.  That reduced form is unique
    to the line, so rows on one line, such as a and -a, give equal rows."""
    n, _, d = roots.shape
    heads = roots[np.arange(n), (roots != 0).any(-1).argmax(-1)]
    scale = np.zeros(heads.shape, dtype=object)
    scale[:, 0] = np.sign(heads[:, 0])
    dens = abs(heads[:, 0]).astype(object)
    inverses: dict[tuple, CycNum] = {}
    for i in np.flatnonzero((heads[:, 1:] != 0).any(1)):
        h = tuple(heads[i].tolist())
        if h not in inverses:
            inverses[h] = CycNum(field, h).inverse()
        scale[i], dens[i] = inverses[h].num, inverses[h].den
    # |M a| <= d max|M| max|a| fold, as for every product of `_mul`
    dt = _dtype(max(d * int(abs(scale).max()) * int(abs(roots).max()) * fold, max(dens)))
    rows = power_rows.astype(dt, copy=False)
    y = _mul(scale[:, None].astype(dt), roots.astype(dt, copy=False), rows)
    dens = dens.astype(dt)
    g = np.gcd.reduce(np.concatenate([dens[:, None], y.reshape(n, -1)], 1), 1)
    y //= g[:, None, None]
    dens //= g
    den = lcm(*dens.tolist())
    dt = _dtype(int(abs(y).max()) * den)
    x = y.astype(dt, copy=False) * (den // dens.astype(dt, copy=False))[:, None, None]
    first: dict[tuple, int] = {}
    for i, row in enumerate(x.reshape(n, -1).tolist()):
        first.setdefault(tuple(row), i)
    return x[list(first.values())], den


def _assemble(
    name: str, rank: int, conductor: int, roots: np.ndarray, expected: int
) -> ReflectionGroupData:
    """The group generated by the reflections with the given roots, which must
    be all of its reflections: an integer coefficient array of shape
    (roots, r, d) in the power basis of Z[zeta], each row any nonzero
    multiple of a root, so several rows may lie on one line.

    `_lines` scales each row to its line on that array: one field inverse
    per distinct irrational lead, and none for a rational one.  X holds the
    lines over their least common denominator D, and Phi their coforms, the
    complex conjugates, X times the d x d matrix whose rows are
    power_rows[-k % n] (`_conjugate`); `_mul` forms their products.  The
    reflections are indexed by their sorted packed matrices: the least
    common denominator L of the entries of s_a = I - 2 a phi_a / nu_a,
    nu_a = phi_a a, then the integer coefficients of L s_a, row by row.  The
    key comes from X and Phi in integers.  Phi_a . X_a = D^2 nu_a; write
    -2 D^2 / (Phi_a . X_a) = C / E, E a positive integer and C in Z[zeta]
    (one field inverse per distinct irrational nu_a), so that

        E D^2 s_a = K = E D^2 I + C X_a (x) Phi_a.

    With g the gcd of E D^2 and every coefficient of K, s_a = (K / g) / L,
    L = E D^2 / g.  Each entry's reduced denominator is L over the gcd of L
    and that entry's coefficients in K / g, so their lcm is L over the gcd
    of L and every coefficient of K / g, which is 1: the packed matrix is
    (L, K / g), compared as one integer row.

    Generators are taken greedily in index order: a reflection becomes a
    generator when the closure so far misses it.  Every row in the closure
    of the generators under conjugation by them follows by integer work;
    that closure lies in the group the generators make, so once it is all
    of R they generate W.

    A generator's own row is the map from each root line a to the line of
    g a, g = I - 2 a_g phi_g / nu, phi_g = a_g*, nu = phi_g a_g.  It is
    computed for all n lines at once.  With z_a = Phi_g . X_a = D^2 (phi_g a),
    and z_g = D^2 nu,

        Y_a = z_g X_a - 2 z_a X_g = D^3 nu (g a),

    a nonzero multiple of g a, since nu != 0 and g is invertible.  Residues
    mod p propose the image line t of each a (`_propose`); the proposal is
    proven by the identity

        D Y_a,j = Y_a,k X_t,j   for every coordinate j,

    with k the first nonzero coordinate of Y_a.  It gives
    Y_a = Y_a,k (X_t / D) = Y_a,k a_t with Y_a,k != 0, so g a lies on the
    line a_t, and g s_a g = s_t: g is Hermitian, so the coform of g s_a g
    is a* g = (g a)*, and the root line alone keys it.  A row whose
    proposal fails is matched against every line by the same identity; a
    row that matches none raises "not conjugation-closed".

    The products run in int64 only when a bound on every value they reach,
    computed in Python ints from the largest entries of the roots, X, Phi,
    M and C, the largest E, D, d, r and the reduction rows, is at most
    `_INT64_MAX`; otherwise the same code runs on Python ints.  The
    residues stay below p^2 < 2^62 either way.  The group keeps X, Phi and
    D; each reflection's root and coform as field elements are built from
    them when first read."""
    field = cyclotomic_field(conductor)
    d = field.degree
    power_rows = np.array(field.power_rows)
    # |a product| <= d |u| |v| before the fold, times `fold` after it, and
    # |a conjugate| <= |x| fold
    fold = 1 + (d - 1) * int(abs(power_rows).max())
    x, den = _lines(roots, field, power_rows, fold)
    n, r, _ = x.shape
    if n != expected:
        raise ValueError(f"{name}: built {n} reflections, expected {expected}")
    mx = int(abs(x).max())
    ct = _dtype(mx * fold)
    phi = _conjugate(x.astype(ct, copy=False), power_rows.astype(ct, copy=False), field.n)
    mphi = int(abs(phi).max())
    mz = r * d * mphi * mx * fold
    my = 3 * d * mz * mx * fold
    dtype = _dtype(max(den * my, d * my * mx * fold))
    x, phi, power_rows = (w.astype(dtype, copy=False) for w in (x, phi, power_rows))
    # |C X| <= d max|C| mx fold, and |C X Phi| <= d |C X| mphi fold
    packed = _packed_keys(x, phi, den, field, power_rows, d * d * mx * mphi * fold**2)
    order = np.lexsort(packed.T[::-1])
    x, phi = x[order], phi[order]
    point = _residue_point(field.n)
    lead = (x != 0).any(-1).argmax(-1)
    index = {key: t for t, key in enumerate(_keys(_residues(x, point), lead, point[0]))}
    rows: dict[int, tuple[int, ...]] = {}
    gens: list[int] = []
    for cand in range(n):
        if cand in rows:
            continue
        z = _mul(phi[cand], x, power_rows).sum(1)
        ys = _mul(z[cand], x, power_rows) - 2 * _mul(z[:, None], x[cand], power_rows)
        k = (ys != 0).any(-1).argmax(-1)
        image = np.array(_propose(ys, k, index, point))
        ok = (_mul(ys[np.arange(n), k, None], x[image], power_rows) == den * ys).all((1, 2))
        for a in np.flatnonzero(~ok):
            match = (_mul(ys[a, k[a]], x, power_rows) == den * ys[a]).all((1, 2))
            if not match.any():
                raise ValueError(f"{name}: reflection set is not conjugation-closed")
            image[a] = match.argmax()
        rows[cand] = tuple(image.tolist())
        gens.append(cand)
        frontier = list(rows)
        while frontier:
            fresh = []
            for y in frontier:
                row_y = rows[y]
                for g in gens:
                    row_g = rows[g]
                    t = row_g[y]
                    if t not in rows:
                        rows[t] = tuple(row_g[row_y[row_g[s]]] for s in range(n))
                        fresh.append(t)
            frontier = fresh
    lines = RootLines(x, phi, den, field)
    reflections = tuple(Reflection(i, lines) for i in range(n))
    conj = tuple(rows[y] for y in range(n))
    return ReflectionGroupData(name, rank, conductor, reflections, conj, tuple(gens))


def series_size(m_param: int, p: int, r: int) -> int:
    """The number of order-2 reflections of G(m_param, p, r), m_param / p in {1, 2}."""
    return m_param * r * (r - 1) // 2 + (r if m_param == 2 * p else 0)


@lru_cache(maxsize=None)
def build_series(m_param: int, p: int, r: int) -> ReflectionGroupData:
    """The order-2 reflections of G(m_param, p, r) on C^r."""
    if m_param < 1 or p < 1 or r < 1:
        raise Refused("series parameters must be positive")
    if m_param % p:
        raise Refused(f"G({m_param},{p},{r}): p must divide m")
    if m_param // p not in (1, 2):
        raise Refused("unsupported pseudo-reflection series")
    if not series_size(m_param, p, r):
        raise Refused(f"G({m_param},{p},{r}) has no reflections")
    conductor = m_param if m_param > 2 else 1
    field = cyclotomic_field(conductor)
    d = field.degree
    # zeta_m^-k; conductor 1 hosts m_param <= 2, where zeta_2 = -1
    units = [field.power_rows[-k % m_param] if d > 1 else ((-1) ** k,) for k in range(m_param)]
    # e_i - zeta^-k e_j: zeta^k at (i, j) and zeta^-k at (j, i), over D = 1
    i, j = np.triu_indices(r, 1)
    roots = np.zeros((len(i), m_param, r, d), dtype=np.int64)
    roots[np.arange(len(i)), :, i, 0] = 1
    roots[np.arange(len(i)), :, j] = np.negative(units)
    roots = roots.reshape(-1, r, d)
    if m_param // p == 2:
        roots = np.concatenate([roots, _coordinate_roots(r, 1, d)])
    return _assemble(f"G({m_param},{p},{r})", r, conductor, roots, series_size(m_param, p, r))


def _signs(base: np.ndarray) -> np.ndarray:
    """base, a (coordinates, coefficients) array, under every choice of sign
    of its nonzero coordinates."""
    out = base[None]
    for i in np.flatnonzero(base.any(1)):
        flipped = out.copy()
        flipped[:, i] *= -1
        out = np.concatenate([out, flipped])
    return out


def _coordinate_roots(n: int, support: int, d: int = 1) -> np.ndarray:
    """+-e_i (support 1) or +-e_i +- e_j (support 2) in Q(zeta)^n, as
    coefficient arrays of degree d over D = 2."""
    out = []
    for idx in combinations(range(n), support):
        base = np.zeros((n, d), dtype=np.int64)
        base[list(idx), 0] = 2
        out.append(_signs(base))
    return np.concatenate(out)


def _h_series_roots(rank: int) -> np.ndarray:
    """Icosahedral root systems over Q(zeta_5), over D = 2."""
    # 2 (tau / 2, 1 / 2, (tau - 1) / 2) for tau = -zeta^2 - zeta^3, the golden ratio
    golden = np.array([[0, 0, -1, -1], [1, 0, 0, 0], [-1, 0, -1, -1]])
    roots = _coordinate_roots(rank, 1, 4)
    if rank == 3:
        # cyclic permutations only
        return np.concatenate([roots] + [np.roll(_signs(golden), k, 1) for k in range(3)])
    # the even permutations: an even number of inversions
    evens = [
        p for p in permutations(range(4)) if sum(a > b for a, b in combinations(p, 2)) % 2 == 0
    ]
    golden4 = _signs(np.concatenate([golden, np.zeros((1, 4), dtype=np.int64)]))[:, evens]
    halves = _signs(np.eye(1, 4, dtype=np.int64).repeat(4, 0))
    return np.concatenate([roots, halves, golden4.reshape(-1, 4, 4)])


def _e_series_roots(kind: str) -> np.ndarray:
    """E8 roots over Q, over D = 2; E7 is cut out by orthogonality to
    e_6 + e_7, and E6 by orthogonality to e_5 + e_6 too (coordinates counted
    from 0)."""
    halves = _signs(np.ones((8, 1), dtype=np.int64))
    # (+-1/2, ..., +-1/2) with an even number of minus signs
    roots = np.concatenate([_coordinate_roots(8, 2), halves[(halves < 0).sum((1, 2)) % 2 == 0]])
    for i, j in {"E8": (), "E7": ((6, 7),), "E6": ((6, 7), (5, 6))}[kind]:
        roots = roots[roots[:, i, 0] == -roots[:, j, 0]]
    return roots


def _f4_roots() -> np.ndarray:
    """F4 roots over Q, over D = 2."""
    halves = _signs(np.ones((4, 1), dtype=np.int64))
    return np.concatenate([_coordinate_roots(4, 1), _coordinate_roots(4, 2), halves])


_ROOT_SYSTEM_SIZES = {"H3": 15, "H4": 60, "F4": 24, "E6": 36, "E7": 63, "E8": 120}


@lru_cache(maxsize=None)
def build_coxeter(kind: str, rank: int | None = None) -> ReflectionGroupData:
    """Coxeter groups by type; A/B/D/I2 delegate to the series builder."""
    kind = kind.upper()
    if kind == "A":
        if rank is None or not 1 <= rank <= 9:
            raise Refused("type A needs a rank between 1 and 9")
        g = build_series(1, 1, rank + 1)
    elif kind == "B":
        if rank is None or not 2 <= rank <= 9:
            raise Refused("type B needs a rank between 2 and 9")
        g = build_series(2, 1, rank)
    elif kind == "D":
        if rank is None or not 3 <= rank <= 9:
            raise Refused("type D needs a rank between 3 and 9")
        g = build_series(2, 2, rank)
    elif kind == "I2":
        if rank is None or rank < 3:
            raise Refused("type I2 needs e >= 3")
        g = build_series(rank, rank, 2)
    elif kind in ("H3", "H4"):
        if rank is not None:
            raise Refused(f"type {kind} takes no rank")
        n = 3 if kind == "H3" else 4
        return _assemble(kind, n, 5, _h_series_roots(n), _ROOT_SYSTEM_SIZES[kind])
    elif kind in ("F4", "E6", "E7", "E8"):
        if rank is not None:
            raise Refused(f"type {kind} takes no rank")
        roots = _f4_roots() if kind == "F4" else _e_series_roots(kind)
        n = 4 if kind == "F4" else 8
        return _assemble(kind, n, 1, roots, _ROOT_SYSTEM_SIZES[kind])
    else:
        raise Refused(f"unsupported type {kind!r}")
    return g.renamed(f"{kind}{rank}" if kind != "I2" else f"I2({rank})")


def _quaternion_roots(field: CyclotomicField, pure: Iterable[Vec]) -> list[Vec]:
    """Root lines of i M(q) for the pure unit quaternions q = b i + c j + d k,
    given as (b, c, d), where M(q) = [[b i, c + d i], [-c + d i, -b i]]."""
    i = field.zeta(field.n // 4)
    zero, one = field.zero(), field.one()
    return [(1 + b, i * c + d) if b != -1 else (zero, one) for b, c, d in pure]


def _pure_octahedral(field: CyclotomicField, with_2t: bool) -> list[Vec]:
    """The pure elements of 2O minus 2T, the long F4 roots over sqrt 2; with
    the short roots, 2T, those of 2O."""
    inv_sqrt2 = 1 / (field.zeta(1) - field.zeta(3))
    out = []
    for a, *q in _f4_roots()[..., 0].tolist():
        if a:
            continue
        q = [field.from_rational(Fraction(x, 2)) for x in q]
        if sum(1 for x in q if x) == 2:
            out.append(tuple(inv_sqrt2 * x for x in q))
        elif with_2t:
            out.append(tuple(q))
    return out


def _pure_icosians(field: CyclotomicField) -> list[Vec]:
    """The pure elements of 2I: the H4 roots with second coordinate 0, in
    Q(zeta_20).  Reading that coordinate as the real part swaps two
    coordinates, which undoes the mirror image `_h_series_roots` builds."""
    pad = (0,) * (field.n // 5 - 1)

    def lift(x: list[int]) -> CycNum:
        # zeta_5 = zeta_n^(n/5), and the H4 roots are over D = 2
        return CycNum(field, field.reduce([c for k in x for c in (k, *pad)]), 2)

    return [tuple(map(lift, (a, c, d))) for a, b, c, d in _h_series_roots(4).tolist() if not any(b)]


def _klein_roots(field: CyclotomicField) -> list[Vec]:
    """The 21 root lines of G24: the orbit of the root of Klein's involution
    s = (1/sqrt(-7)) [[a, b, c], [b, c, a], [c, a, b]] under
    (x, y, z) -> (zeta^4 x, zeta^2 y, zeta z) and the cyclic shift."""
    z = field.zeta
    a, b, c = z(1) - z(6), z(2) - z(5), z(4) - z(3)
    # the matrix has trace a + b + c = sqrt(-7), so s has trace 1, and the
    # first column of sqrt(-7) (s - I) is (a - (a + b + c), b, c)
    root = (-b - c, b, c)
    roots = []
    for k in range(7):
        v = (z(4 * k) * root[0], z(2 * k) * root[1], z(k) * root[2])
        roots.extend(v[j:] + v[:j] for j in range(3))
    return roots


# name: rank, conductor, reflection count and root lines
EXCEPTIONAL: dict[str, tuple[int, int, int, Callable[[CyclotomicField], list[Vec]]]] = {
    "G12": (2, 8, 12, lambda f: _quaternion_roots(f, _pure_octahedral(f, False))),
    "G13": (2, 8, 18, lambda f: _quaternion_roots(f, _pure_octahedral(f, True))),
    "G22": (2, 20, 30, lambda f: _quaternion_roots(f, _pure_icosians(f))),
    "G24": (3, 7, 21, _klein_roots),
}


def _root_array(roots: Sequence[Vec]) -> np.ndarray:
    """Roots given as field elements, as the integer coefficient array that
    `_assemble` takes: each root over the common denominator of all."""
    den = lcm(*(e.den for a in roots for e in a))
    return np.array([[[c * (den // e.den) for c in e.num] for e in a] for a in roots])


@lru_cache(maxsize=None)
def build_exceptional(name: str) -> ReflectionGroupData:
    """An exceptional unitary group of EXCEPTIONAL from its root lines."""
    if name not in EXCEPTIONAL:
        raise Refused(f"no construction for {name}")
    rank, conductor, count, roots = EXCEPTIONAL[name]
    field = cyclotomic_field(conductor)
    return _assemble(name, rank, conductor, _root_array(roots(field)), count)


def data_dir() -> Path:
    return Path(__file__).parent / "data"


def alpha(g: ReflectionGroupData, s: int, u: int) -> int:
    """Number of reflections y with y u y = s; defined off the diagonal."""
    if s == u:
        raise ValueError("alpha is defined for distinct reflections only")
    return g.alpha[s][u]


def class_stats(g: ReflectionGroupData, c: int) -> tuple[int, int]:
    """(N, C): row sum of the class form, and commuting reflection count."""
    members = g.classes[c]
    s = members[0]
    n_val = 1 + sum(g.alpha[s][u] for u in members if u != s)
    c_val = sum(1 for u in range(g.size) if g.commutes(s, u))
    return n_val, c_val


def k_c(g: ReflectionGroupData, c: int, s: int) -> int:
    """Half the number of class members not commuting with s."""
    count = sum(1 for u in g.classes[c] if not g.commutes(s, u))
    if count % 2:
        raise AssertionError("non-commuting count is odd")
    return count // 2
