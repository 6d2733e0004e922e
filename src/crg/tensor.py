"""Tensor-square operators and Burnside irreducibility by algebra closure."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .groups import ReflectionGroupData
from .matrices import ExactMatrix
from .quadratic import discriminant
from .rep import RepBundle

# Small enough that dot products of length up to 2**14 fit in int64.
_PRIMES = (16777213, 16777199)

_TENSOR_CLASS_LIMIT = 12
_EXCLUDED_POINTS = {
    Fraction(-3),
    Fraction(-1),
    Fraction(0),
    Fraction(1),
    Fraction(3),
}


class _ModSpan:
    """Row space mod p in reduced echelon form, rows kept mutually reduced."""

    def __init__(self, width: int, p: int) -> None:
        self.p = p
        self.rows = np.zeros((0, width), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def residual(self, vec: np.ndarray) -> np.ndarray:
        if self.pivots:
            coeffs = vec[self.pivots]
            vec = (vec - coeffs @ self.rows) % self.p
        return vec

    def add(self, vec: np.ndarray) -> bool:
        vec = self.residual(vec % self.p)
        nonzero = np.nonzero(vec)[0]
        if nonzero.size == 0:
            return False
        piv = int(nonzero[0])
        vec = (vec * pow(int(vec[piv]), self.p - 2, self.p)) % self.p
        if self.pivots:
            coeffs = self.rows[:, piv].copy()
            self.rows = (self.rows - np.outer(coeffs, vec)) % self.p
        self.rows = np.vstack([self.rows, vec[None, :]])
        self.pivots.append(piv)
        return True


def _to_mod(mat: ExactMatrix, p: int) -> np.ndarray:
    n = mat.rows
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            value = Fraction(mat[i, j])
            out[i, j] = value.numerator * pow(value.denominator, p - 2, p) % p
    return out


def _mod_span_dimension(mats: list[ExactMatrix], p: int) -> int:
    n = mats[0].rows
    gens = [_to_mod(m, p) for m in mats]
    return _grow_mod_span(gens, n, p).dim


def _primitive(vec: list[int]) -> list[int]:
    g = 0
    for x in vec:
        g = gcd(g, x)
        if g == 1:
            return vec
    return [x // g for x in vec] if g else vec


def _exact_span_dimension(mats: list[ExactMatrix]) -> int:
    n = mats[0].rows
    rows: dict[int, list[int]] = {}

    def insert(mat: ExactMatrix) -> bool:
        flat = [mat[i, j] for i in range(n) for j in range(n)]
        den = 1
        for x in flat:
            den = den * x.denominator // gcd(den, x.denominator)
        vec = [int(x * den) for x in flat]
        for piv in sorted(rows):
            if vec[piv]:
                other = rows[piv]
                a, b = vec[piv], other[piv]
                g = gcd(a, b)
                ma, mb = b // g, a // g
                vec = [ma * x - mb * y for x, y in zip(vec, other)]
        for idx, x in enumerate(vec):
            if x:
                rows[idx] = _primitive(vec)
                return True
        return False

    eye = ExactMatrix.identity(n, Fraction(1))
    insert(eye)
    frontier = [eye]
    while frontier:
        nxt = []
        for word in frontier:
            for gen in mats:
                prod = word * gen
                if insert(prod):
                    nxt.append(prod)
        frontier = nxt
    return len(rows)


def algebra_dimension(mats) -> int:
    """Dimension of the unital matrix algebra generated by exact matrices.

    A full mod-p span is a certificate for dimension n^2 (the mod-p rank
    never exceeds the rational rank); anything less falls back to exact
    integer elimination.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one generator")
    n = mats[0].rows
    if any(m.rows != n or m.cols != n for m in mats):
        raise ValueError("generators must be square of equal size")
    if _mod_span_dimension(mats, _PRIMES[0]) == n * n:
        return n * n
    return _exact_span_dimension(mats)


class TensorOps:
    """The six commuting operators attached to one reflection on V_c (x) V_c, at m0."""

    def __init__(self, bundle: RepBundle, c: int, s: int, m0, force: bool = False) -> None:
        g = bundle.group
        members = g.classes[c]
        if s not in members:
            raise ValueError("reflection must belong to the class")
        if len(members) > _TENSOR_CLASS_LIMIT and not force:
            raise ValueError(
                f"tensor operators limited to classes of size <= {_TENSOR_CLASS_LIMIT}"
            )
        self.members = members
        eye = ExactMatrix.identity(len(members), 1)
        t = bundle.t_block(s, members, m0)
        s_block = bundle.s_block(s, members)
        p_block = s_block - t
        self.t_op = t.kron(eye) + eye.kron(t)
        self.s_op = s_block.kron(s_block)
        self.delta_op = s_block.kron(eye) + eye.kron(s_block)
        self.p_op = p_block.kron(eye) + eye.kron(p_block)
        self.q_op = p_block.kron(p_block)
        self.r_op = p_block.kron(s_block) + s_block.kron(p_block)


def ds_table_check(bundle: RepBundle, s: int, c: int) -> bool:
    """All fifteen products of the commutative operator table, plus the three
    cleared power identities expressing P, S + 1, Q through powers of T."""
    # every side has degree <= 7 in m: m = 0..7 prove it.
    return all(_ds_table_at(bundle, s, c, m) for m in range(8))


def _ds_table_at(bundle: RepBundle, s: int, c: int, m: int) -> bool:
    ops = TensorOps(bundle, c, s, m)
    eye = ExactMatrix.identity(len(ops.members) ** 2, 1)
    one_minus_m = 1 - m
    delta, p, q, r, s_op = ops.delta_op, ops.p_op, ops.q_op, ops.r_op, ops.s_op
    table = [
        (delta * delta, 2 * eye + 2 * s_op),
        (delta * p, p + r),
        (delta * q, 2 * q),
        (delta * r, r + p),
        (delta * s_op, delta),
        (p * p, one_minus_m * p + 2 * q),
        (p * q, (2 * one_minus_m) * q),
        (p * r, one_minus_m * r + 2 * q),
        (p * s_op, r),
        (q * q, (one_minus_m * one_minus_m) * q),
        (q * r, (2 * one_minus_m) * q),
        (q * s_op, q),
        (r * r, one_minus_m * p + 2 * q),
        (r * s_op, p),
        (s_op * s_op, eye),
    ]
    if any(left != right for left, right in table):
        return False
    t = ops.t_op
    t2 = t * t
    t3 = t2 * t
    t4 = t3 * t
    t5 = t4 * t
    power_identities = [
        (
            (4 * m * (m + 3) * (m - 3) * (m + 1)) * p,
            (4 * (25 * m * m - 9)) * t
            + (-120 * m) * t2
            + (45 - 25 * m * m) * t3
            + (30 * m) * t4
            + (-9) * t5,
        ),
        (
            (4 * m * (m + 1) * (m + 1) * (m - 3)) * (s_op + eye),
            (4 * (m + 1) * (5 * m + 3) * (m - 1)) * t
            + (2 * m * (m * m * m - m * m - 13 * m - 19)) * t2
            + (-(5 * m * m * m + 3 * m * m - 9 * m - 15)) * t3
            + (4 * m * (m + 2)) * t4
            + (-(m + 3)) * t5,
        ),
        (
            (8 * m * (m + 1) * (m + 1)) * q,
            (4 * (1 - m * m)) * t
            + (8 * m) * t2
            + (m * m - 5) * t3
            + (-2 * m) * t4
            + t5,
        ),
    ]
    return all(left == right for left, right in power_identities)


def _excluded(bundle: RepBundle, c: int, m0: Fraction) -> bool:
    if m0 in _EXCLUDED_POINTS:
        return True
    disc = discriminant(bundle.group, c)
    return any(m0 == root for root, _ in disc.factors)


def _wedge_and_sym(op: ExactMatrix, d: int) -> tuple[ExactMatrix, ExactMatrix]:
    """Compress a d^2 operator to the alternating and symmetric bases."""
    wedge_pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    sym_pairs = [(i, j) for i in range(d) for j in range(i, d)]
    windex = {pair: k for k, pair in enumerate(wedge_pairs)}
    sindex = {pair: k for k, pair in enumerate(sym_pairs)}
    zero = Fraction(0)
    wedge = [[zero] * len(wedge_pairs) for _ in wedge_pairs]
    sym = [[zero] * len(sym_pairs) for _ in sym_pairs]
    for (k, l), colw in windex.items():
        for i in range(d):
            for j in range(d):
                value = op[i * d + j, k * d + l] - op[i * d + j, l * d + k]
                if value and i < j:
                    wedge[windex[(i, j)]][colw] += value
    for (k, l), cols in sindex.items():
        for i in range(d):
            for j in range(d):
                value = op[i * d + j, k * d + l]
                if k != l:
                    value = value + op[i * d + j, l * d + k]
                if value and i <= j:
                    sym[sindex[(i, j)]][cols] += value
    return ExactMatrix.from_rows(wedge), ExactMatrix.from_rows(sym)


def tensor_square_check(bundle: RepBundle, c: int, m0) -> dict:
    """Burnside closure on the alternating and symmetric squares of V_c."""
    m0 = Fraction(m0)
    if _excluded(bundle, c, m0):
        raise ValueError("excluded evaluation point")
    members = bundle.group.classes[c]
    d = len(members)
    if d == 1:
        return {"class_size": 1, "skipped": True, "ok": True}
    if d > _TENSOR_CLASS_LIMIT:
        raise ValueError(
            f"tensor operators limited to classes of size <= {_TENSOR_CLASS_LIMIT}"
        )
    eye = ExactMatrix.identity(d, Fraction(1))
    wedge_ops = []
    sym_ops = []
    for x in members:
        t_x = bundle.t_block(x, members, m0)
        big = t_x.kron(eye) + eye.kron(t_x)
        wedge, sym = _wedge_and_sym(big, d)
        wedge_ops.append(wedge)
        sym_ops.append(sym)
    wedge_dim = d * (d - 1) // 2
    sym_dim = d * (d + 1) // 2
    wedge_algebra = algebra_dimension(wedge_ops)
    sym_algebra = algebra_dimension(sym_ops)
    return {
        "class_size": d,
        "skipped": False,
        "wedge_dim": wedge_dim,
        "wedge_algebra": wedge_algebra,
        "sym_dim": sym_dim,
        "sym_algebra": sym_algebra,
        "ok": wedge_algebra == wedge_dim**2 and sym_algebra == sym_dim**2,
    }


class _SpanGrowth:
    """Resumable BFS closure of a matrix algebra span mod p."""

    def __init__(self, gens: list[np.ndarray], n: int, p: int) -> None:
        self.gens = gens
        self.p = p
        self.span = _ModSpan(n * n, p)
        eye = np.eye(n, dtype=np.int64)
        self.span.add(eye.ravel())
        self.frontier = [eye]

    def _advance(self) -> bool:
        if not self.frontier:
            return False
        nxt = []
        for word in self.frontier:
            for gen in self.gens:
                prod = word @ gen % self.p
                if self.span.add(prod.ravel().copy()):
                    nxt.append(prod)
        self.frontier = nxt
        return True

    def contains(self, vec: np.ndarray) -> bool:
        while True:
            if not np.any(self.span.residual(vec % self.p)):
                return True
            if not self._advance():
                return False


def _grow_mod_span(gens: list[np.ndarray], n: int, p: int) -> _ModSpan:
    growth = _SpanGrowth(gens, n, p)
    while growth._advance():
        pass
    return growth.span


def _tensor_algebra_span(bundle: RepBundle, c: int, m0: Fraction, p: int) -> _SpanGrowth:
    """Mod-p span of the algebra of all T_x on V_c (x) V_c, cached on the bundle."""
    cache = getattr(bundle, "_tensor_spans", None)
    if cache is None:
        cache = bundle._tensor_spans = {}
    key = (c, m0, p)
    if key not in cache:
        members = bundle.group.classes[c]
        d = len(members)
        eye = ExactMatrix.identity(d, Fraction(1))
        gens = []
        for x in members:
            t_x = bundle.t_block(x, members, m0)
            gens.append(_to_mod(t_x.kron(eye) + eye.kron(t_x), p))
        cache[key] = _SpanGrowth(gens, d * d, p)
    return cache[key]


def psu_membership_check(bundle: RepBundle, c: int, s: int, u: int, m0) -> bool:
    """Is p_s (x) p_u + p_u (x) p_s inside the algebra generated by the T_x?

    Membership is certified modulo two independent 24-bit primes; a nonzero
    residual modulo either prime refutes it.
    """
    if s == u:
        raise ValueError("need two distinct reflections")
    m0 = Fraction(m0)
    if m0 in _EXCLUDED_POINTS:
        raise ValueError("excluded evaluation point")
    g = bundle.group
    members = g.classes[c]
    if s not in members or u not in members:
        raise ValueError("reflections must belong to the class")

    def p_block(x: int) -> ExactMatrix:
        return bundle.s_block(x, members) - bundle.t_block(x, members, m0)

    ps, pu = p_block(s), p_block(u)
    target = ps.kron(pu) + pu.kron(ps)
    for p in _PRIMES:
        span = _tensor_algebra_span(bundle, c, m0, p)
        if not span.contains(_to_mod(target, p).ravel()):
            return False
    return True
