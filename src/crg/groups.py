"""Reflection group construction: infinite series, Coxeter root systems and
the exceptional groups G12, G13, G22 and G24, with conjugation tables and
class statistics.

Every group is built one way.  An order-2 reflection
s = I - 2 a (x) phi / (phi . a) is keyed by its root line and its coform
line: a and phi scaled so that their first nonzero coordinate is 1.  The key
of y s y is (y a, phi y), so a few generating reflections act on the keys by
matrix-vector products, and every other row of the conjugation table follows
from sigma_{g y g} = sigma_g sigma_y sigma_g, which is integer work."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .cyclotomic import CycNum, CyclotomicField, cyclotomic_field
from .matrices import ExactMatrix

Vec = tuple[CycNum, ...]
# (root line, coform line) of one order-2 reflection
Key = tuple[Vec, Vec]


def _line(v: Sequence[CycNum]) -> Vec:
    """v scaled so that its first nonzero coordinate is 1."""
    inv = 1 / next(c for c in v if c)
    return tuple(c * inv for c in v)


def _dot(u: Sequence[CycNum], v: Sequence[CycNum]) -> CycNum:
    acc = u[0].field.zero()
    for x, y in zip(u, v):
        if x and y:
            acc = acc + x * y
    return acc


def _axpy(x: CycNum, a: Vec, b: Vec) -> list[CycNum]:
    """a - x b."""
    return [u - x * v if v else u for u, v in zip(a, b)]


def _conjugator(g: Key) -> Callable[[Key], Key]:
    """The map key(s) -> key(g s g): g a for the root, phi g for the coform."""
    a_g, phi_g = g
    c = 2 / _dot(phi_g, a_g)
    # a real reflection (phi = a) maps real reflections to real reflections
    real = a_g == phi_g

    def act(key: Key) -> Key:
        a, phi = key
        x = c * _dot(phi_g, a)
        root = _line(_axpy(x, a, a_g)) if x else a
        if real and a == phi:
            return root, root
        y = c * _dot(phi, a_g)
        return root, _line(_axpy(y, phi, phi_g)) if y else phi

    return act


def _reflection_matrix(key: Key) -> ExactMatrix:
    """I - 2 a (x) phi / (phi . a)."""
    a, phi = key
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


def _packed(m: ExactMatrix) -> tuple:
    """Least common denominator and integer coefficients of m; reflections
    are indexed in the sorted order of these keys."""
    den = lcm(*(e.den for e in m.entries))
    return den, tuple(tuple(c * (den // e.den) for c in e.num) for e in m.entries)


class Reflection:
    """One order-2 reflection with its root line and defining linear form."""

    def __init__(self, index: int, matrix: ExactMatrix, root: Vec, coform: Vec) -> None:
        self.index = index
        self.matrix = matrix
        self.root = root
        self.coform = coform

    def __repr__(self) -> str:
        return f"Reflection({self.index})"


class ReflectionGroupData:
    """Immutable bundle of reflections, conjugation table and class data."""

    def __init__(
        self,
        name: str,
        rank: int,
        conductor: int,
        reflections: tuple[Reflection, ...],
        conj_table: tuple[tuple[int, ...], ...],
    ) -> None:
        self.name = name
        self.rank = rank
        self.conductor = conductor
        self.field = cyclotomic_field(conductor)
        self.reflections = reflections
        self.conj_table = conj_table

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
                for y in range(n):
                    t = conj_table[y][s]
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

    def commutes(self, s: int, u: int) -> bool:
        return self.conj_table[u][s] == s

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Reflections that generate W, taken greedily in index order.

        The closure of a set of reflections under conjugation by its own
        members lies in the group they generate, so a set whose closure is
        all of R generates W."""
        gens: list[int] = []
        reached: set[int] = set()
        for cand in range(self.size):
            if cand not in reached:
                gens.append(cand)
                new = {cand}
                while new:
                    reached |= new
                    new = {self.conj_table[w][y] for y in reached for w in gens} - reached
        return tuple(gens)

    def __repr__(self) -> str:
        return f"ReflectionGroupData({self.name}: {self.size} reflections)"


def _assemble(
    name: str, rank: int, conductor: int, keys: set[Key], expected: int
) -> ReflectionGroupData:
    """Index the reflections by their sorted packed matrices and build the
    conjugation table from the rows of a few generators."""
    if len(keys) != expected:
        raise ValueError(f"{name}: built {len(keys)} reflections, expected {expected}")
    mats = {k: _reflection_matrix(k) for k in keys}
    ordered = sorted(keys, key=lambda k: _packed(mats[k]))
    index = {k: i for i, k in enumerate(ordered)}
    n = len(ordered)
    rows: dict[int, tuple[int, ...]] = {}
    gens: list[int] = []
    for cand in range(n):
        if cand in rows:
            continue
        act = _conjugator(ordered[cand])
        row = tuple(index.get(act(k), -1) for k in ordered)
        if -1 in row:
            raise ValueError(f"{name}: reflection set is not conjugation-closed")
        rows[cand] = row
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
    reflections = tuple(
        Reflection(i, mats[k], k[0], k[1]) for i, k in enumerate(ordered)
    )
    conj = tuple(rows[y] for y in range(n))
    return ReflectionGroupData(name, rank, conductor, reflections, conj)


def _root_of_unity(field: CyclotomicField, m_param: int, k: int) -> CycNum:
    """zeta_{m_param}^k in field."""
    if field.n == m_param:
        return field.zeta(k)
    # conductor 1 hosts m_param = 2
    return field.from_rational(-1 if k % 2 else 1)


@lru_cache(maxsize=None)
def build_series(m_param: int, p: int, r: int) -> ReflectionGroupData:
    """The order-2 reflections of G(m_param, p, r) on C^r."""
    if m_param < 1 or p < 1 or r < 1:
        raise ValueError("series parameters must be positive")
    if m_param % p:
        raise ValueError(f"G({m_param},{p},{r}): p must divide m")
    if m_param // p not in (1, 2):
        raise ValueError("unsupported pseudo-reflection series")
    conductor = m_param if m_param > 2 else 1
    field = cyclotomic_field(conductor)
    zero = field.zero()
    one = field.one()

    def vec(entries: dict[int, CycNum]) -> Vec:
        return tuple(entries.get(b, zero) for b in range(r))

    keys: set[Key] = set()
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(m_param):
                # zeta^k at (i, j) and zeta^-k at (j, i)
                root = vec({i: one, j: -_root_of_unity(field, m_param, -k)})
                coform = vec({i: one, j: -_root_of_unity(field, m_param, k)})
                keys.add((root, coform))
    if m_param // p == 2:
        for i in range(r):
            keys.add((vec({i: one}), vec({i: one})))
    expected = m_param * r * (r - 1) // 2 + (r if m_param // p == 2 else 0)
    return _assemble(f"G({m_param},{p},{r})", r, conductor, keys, expected)


def _root_keys(roots: Iterable[Vec]) -> set[Key]:
    """Keys of the reflections I - 2 a a* / (a* a), one per root line: the
    coform line is the complex conjugate of the root line, and equals it for
    a real root."""
    return {(line, tuple(x.conj() for x in line)) for line in map(_line, roots)}


def _h_series_roots(rank: int) -> list[tuple]:
    """Icosahedral root systems over Q(zeta_5)."""
    f = cyclotomic_field(5)
    one = f.one()
    zero = f.zero()
    tau = -f.zeta(2) - f.zeta(3)
    itau = tau - 1  # 1/tau
    half = f.from_rational(Fraction(1, 2))
    roots = []
    if rank == 3:
        for pos in range(3):
            for sgn in (one, -one):
                v = [zero, zero, zero]
                v[pos] = sgn
                roots.append(tuple(v))
        for shift in range(3):  # cyclic permutations only
            for s0 in (1, -1):
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        base = [s0 * tau * half, s1 * half, s2 * itau * half]
                        roots.append(tuple(base[(i - shift) % 3] for i in range(3)))
    else:
        for pos in range(4):
            for sgn in (one, -one):
                v = [zero] * 4
                v[pos] = sgn
                roots.append(tuple(v))
        for signs in range(16):
            roots.append(
                tuple(half if signs >> i & 1 else -half for i in range(4))
            )
        for s0 in (1, -1):
            for s1 in (1, -1):
                for s2 in (1, -1):
                    base = (s0 * tau * half, s1 * half, s2 * itau * half, zero)
                    for perm in _even_permutations(4):
                        roots.append(tuple(base[perm[i]] for i in range(4)))
    return roots


def _even_permutations(n: int) -> list[tuple[int, ...]]:
    from itertools import permutations

    out = []
    for perm in permutations(range(n)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        if inv % 2 == 0:
            out.append(perm)
    return out


def _e_series_roots(kind: str) -> list[tuple]:
    """E8 roots over Q, with E7 and E6 cut out by orthogonality to roots."""
    f = cyclotomic_field(1)
    half = f.from_rational(Fraction(1, 2))
    one = f.one()
    zero = f.zero()
    roots: list[tuple] = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (one, -one):
                for sj in (one, -one):
                    v = [zero] * 8
                    v[i] = si
                    v[j] = sj
                    roots.append(tuple(v))
    for signs in range(256):
        if bin(signs).count("1") % 2 == 0:
            roots.append(
                tuple(-half if signs >> i & 1 else half for i in range(8))
            )
    if kind == "E8":
        return roots

    e7_axis = [zero] * 8
    e7_axis[6] = one
    e7_axis[7] = one
    cut = [tuple(e7_axis)]
    if kind == "E6":
        e6_axis = [zero] * 8
        e6_axis[5] = one
        e6_axis[6] = one
        cut.append(tuple(e6_axis))
    return [r for r in roots if all(_dot(r, ax).is_zero() for ax in cut)]


def _f4_roots() -> list[tuple]:
    f = cyclotomic_field(1)
    one = f.one()
    zero = f.zero()
    half = f.from_rational(Fraction(1, 2))
    roots: list[tuple] = []
    for i in range(4):
        for sgn in (one, -one):
            v = [zero] * 4
            v[i] = sgn
            roots.append(tuple(v))
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (one, -one):
                for sj in (one, -one):
                    v = [zero] * 4
                    v[i] = si
                    v[j] = sj
                    roots.append(tuple(v))
    for signs in range(16):
        roots.append(tuple(-half if signs >> i & 1 else half for i in range(4)))
    return roots


_ROOT_SYSTEM_SIZES = {"H3": 15, "H4": 60, "F4": 24, "E6": 36, "E7": 63, "E8": 120}


@lru_cache(maxsize=None)
def build_coxeter(kind: str, rank: int | None = None) -> ReflectionGroupData:
    """Coxeter groups by type; A/B/D/I2 delegate to the series builder."""
    kind = kind.upper()
    if kind == "A":
        if rank is None or not 1 <= rank <= 9:
            raise ValueError("type A needs a rank between 1 and 9")
        g = build_series(1, 1, rank + 1)
    elif kind == "B":
        if rank is None or not 2 <= rank <= 9:
            raise ValueError("type B needs a rank between 2 and 9")
        g = build_series(2, 1, rank)
    elif kind == "D":
        if rank is None or not 3 <= rank <= 9:
            raise ValueError("type D needs a rank between 3 and 9")
        g = build_series(2, 2, rank)
    elif kind == "I2":
        if rank is None or rank < 3:
            raise ValueError("type I2 needs e >= 3")
        g = build_series(rank, rank, 2)
    elif kind in ("H3", "H4"):
        if rank is not None:
            raise ValueError(f"type {kind} takes no rank")
        n = 3 if kind == "H3" else 4
        keys = _root_keys(_h_series_roots(n))
        return _assemble(kind, n, 5, keys, _ROOT_SYSTEM_SIZES[kind])
    elif kind in ("F4", "E6", "E7", "E8"):
        if rank is not None:
            raise ValueError(f"type {kind} takes no rank")
        roots = _f4_roots() if kind == "F4" else _e_series_roots(kind)
        n = 4 if kind == "F4" else 8
        return _assemble(kind, n, 1, _root_keys(roots), _ROOT_SYSTEM_SIZES[kind])
    else:
        raise ValueError(f"unsupported type {kind!r}")
    label = f"{kind}{rank}" if kind != "I2" else f"I2({rank})"
    return ReflectionGroupData(label, g.rank, g.conductor, g.reflections, g.conj_table)


def _lift(x: CycNum, field: CyclotomicField) -> CycNum:
    """x in Q(zeta_k) as an element of Q(zeta_n), k | n, zeta_k = zeta_n^(n/k)."""
    step = field.n // x.field.n
    coeffs = [0] * ((x.field.degree - 1) * step + 1)
    coeffs[::step] = x.coeffs
    return field.from_fractions(coeffs)


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
    for a, *q in _f4_roots():
        if a:
            continue
        q = [_lift(x, field) for x in q]
        if sum(1 for x in q if x) == 2:
            out.append(tuple(inv_sqrt2 * x for x in q))
        elif with_2t:
            out.append(tuple(q))
    return out


def _pure_icosians(field: CyclotomicField) -> list[Vec]:
    """The pure elements of 2I: the H4 roots with second coordinate 0, in
    Q(zeta_20).  Reading that coordinate as the real part swaps two
    coordinates, which undoes the mirror image `_h_series_roots` builds."""
    return [
        tuple(_lift(x, field) for x in (a, c, d))
        for a, b, c, d in _h_series_roots(4)
        if not b
    ]


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


@lru_cache(maxsize=None)
def build_exceptional(name: str) -> ReflectionGroupData:
    """An exceptional unitary group of EXCEPTIONAL from its root lines."""
    if name not in EXCEPTIONAL:
        raise ValueError(f"no generator data for {name}")
    rank, conductor, count, roots = EXCEPTIONAL[name]
    keys = _root_keys(roots(cyclotomic_field(conductor)))
    return _assemble(name, rank, conductor, keys, count)


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
