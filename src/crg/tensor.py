"""Tensor-square operators and Burnside irreducibility by algebra closure."""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm

import numpy as np

from .matrices import ExactMatrix
from .quadratic import discriminant
from .rep import RepBundle, Sparse, _block, _scaled_t, _sparse_mul, _sparse_sum

# Spans are kept mod a prime p < 2**24 in float64, which holds every integer
# below 2**53 exactly.  `_mulmod` splits its left factor into 12-bit limbs, so
# each product of a limb and an entry is below 2**12 * 2**24 = 2**36, and a dot
# product of at most 2**17 such terms is below 2**53: every partial sum that
# BLAS forms is an exact integer.  A span wider than 2**17 is refused.
_P = 16777213
_LIMB = 4096
_MAX_WIDTH = 2**17
# Rows reduced against a span, or checked against an annihilator, by one product.
_BLOCK = 64

_TENSOR_CLASS_LIMIT = 12
_EXCLUDED_POINTS = {
    Fraction(-3),
    Fraction(-1),
    Fraction(0),
    Fraction(1),
    Fraction(3),
}


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for float64 integers with |x| + p <= 2**53."""
    q = np.floor(x * (1.0 / p))
    q *= p
    x -= q
    # the rounded quotient is off by at most one either way
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)
    return x


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for float64 integers in [0, p), with at most 2**17 terms per sum."""
    hi = np.floor(a * (1.0 / _LIMB))
    lo = a - hi * _LIMB
    out = _mod(hi @ b, p)
    out *= _LIMB
    # below 2**36 + 2**17 * (2**12 - 1) * (2**24 - 1) < 2**53 - 2**40
    out += lo @ b
    return _mod(out, p)


def _reduce_by(vecs: np.ndarray, rows: np.ndarray, pivots, p: int) -> np.ndarray:
    """`vecs` with their entries in the pivot columns of `rows` cleared, mod p."""
    out = _mulmod(vecs[:, pivots], rows, p)
    np.subtract(vecs, out, out=out)
    np.add(out, p, out=out, where=out < 0)
    return out


def _echelon(block: np.ndarray, p: int) -> tuple[list[int], np.ndarray, list[int]]:
    """The rows of `block` independent of the rows before them, in order.

    Returns their indices, the rows in reduced echelon form and their pivots.
    The second half is reduced against the first by one product, so the
    elimination runs in matrix products.
    """
    if len(block) == 1:
        nonzero = np.flatnonzero(block[0])
        if nonzero.size == 0:
            return [], block[:0], []
        piv = int(nonzero[0])
        return [0], _mod(block * pow(int(block[0, piv]), -1, p), p), [piv]
    half = len(block) // 2
    kept, rows, pivots = _echelon(block[:half], p)
    rest = _reduce_by(block[half:], rows, pivots, p) if kept else block[half:]
    kept_rest, rows_rest, pivots_rest = _echelon(rest, p)
    if kept and kept_rest:
        rows = _reduce_by(rows, rows_rest, pivots_rest, p)
    return (
        kept + [half + i for i in kept_rest],
        np.concatenate([rows, rows_rest]),
        pivots + pivots_rest,
    )


class _ModSpan:
    """Row space mod p in reduced echelon form.

    Rows are float64 integers in [0, p) in one buffer that doubles when full.
    Vectors join a level at a time: `add_block` keeps each row of a block that
    is independent of the span and of the rows kept before it, which are the
    rows one-at-a-time insertion keeps.  Rows added during a level are reduced
    against the older rows at once, the older rows against them at `end_level`.
    """

    def __init__(self, width: int, p: int) -> None:
        if width > _MAX_WIDTH:
            raise ValueError(
                f"span width {width} exceeds {_MAX_WIDTH}, the bound for exact products"
            )
        self.p = p
        self.width = width
        self.dim = 0
        self._settled = 0
        self._rows = np.zeros((min(16, width), width))
        self._pivots = np.zeros(len(self._rows), dtype=np.intp)

    def residual(self, vecs: np.ndarray) -> np.ndarray:
        """Residuals of the rows of `vecs`, integers in [0, p), against the span."""
        vecs = np.asarray(vecs, dtype=np.float64).reshape(-1, self.width)
        for start, stop in ((0, self._settled), (self._settled, self.dim)):
            if stop > start:
                vecs = _reduce_by(vecs, self._rows[start:stop], self._pivots[start:stop], self.p)
        return vecs

    def add_block(self, block: np.ndarray) -> list[int]:
        """Add the new rows of `block`, in order; return their indices."""
        block = self.residual(block)
        live = np.flatnonzero(block.any(axis=1))
        if not live.size:
            return []
        kept, new, pivots = _echelon(block[live], self.p)
        if kept:
            if self.dim > self._settled:
                pending = self._rows[self._settled:self.dim]
                pending[:] = _reduce_by(pending, new, pivots, self.p)
            self._append(new, pivots)
        return live[kept].tolist()

    def end_level(self) -> None:
        """Reduce the older rows against the rows added since the last call."""
        start, stop = self._settled, self.dim
        if start and stop > start:
            old = self._rows[:start]
            old[:] = _reduce_by(old, self._rows[start:stop], self._pivots[start:stop], self.p)
        self._settled = stop

    def _append(self, rows: np.ndarray, pivots: list[int]) -> None:
        stop = self.dim + len(rows)
        if stop > len(self._rows):
            size = min(max(stop, 2 * len(self._rows)), self.width)
            grown = np.zeros((size, self.width))
            grown[: self.dim] = self._rows[: self.dim]
            self._rows = grown
            self._pivots = np.resize(self._pivots, size)
        self._rows[self.dim:stop] = rows
        self._pivots[self.dim:stop] = pivots
        self.dim = stop


def _integer_matrix(mat: ExactMatrix) -> np.ndarray:
    """`mat` times the lcm of its denominators, as an array of Python ints."""
    entries = [Fraction(x) for x in mat.entries]
    den = lcm(*(x.denominator for x in entries))
    ints = [x.numerator * (den // x.denominator) for x in entries]
    return np.array(ints, dtype=object).reshape(mat.rows, mat.cols)


def _primitive(word: np.ndarray) -> np.ndarray:
    """`word` divided by the gcd of its entries."""
    g = 0
    for x in word.flat:
        g = gcd(g, x)
        if g == 1:
            return word
    return word // g if g else word


class _ExactSpan:
    """Row space over Q of integer vectors, in fraction-free reduced echelon form.

    The rows are Python ints with rows[:, pivots] = den * I.  Each entry is a
    minor of the vectors added so far (Bareiss), so the entries grow no larger
    than those minors, and every division below is exact.
    """

    def __init__(self, width: int) -> None:
        self.rows = np.zeros((0, width), dtype=object)
        self.pivots: list[int] = []
        self.den = 1

    def add(self, vec: np.ndarray) -> bool:
        coeffs = vec[self.pivots]
        hit = np.flatnonzero(coeffs)
        vec = self.den * vec
        if hit.size:
            vec -= coeffs[hit] @ self.rows[hit]
        nonzero = np.flatnonzero(vec)
        if not nonzero.size:
            return False
        piv = int(nonzero[0])
        den = vec[piv]
        rows = (den * self.rows - np.outer(self.rows[:, piv], vec)) // self.den
        self.rows = np.vstack([rows, vec])
        self.pivots.append(piv)
        self.den = den
        return True


def _exact_annihilator(gens: list[np.ndarray]) -> np.ndarray:
    """Y of `_annihilator` by fraction-free elimination: the span rows have
    rows[:, pivots] = den * I, so y_f = den e_f - sum_i rows[i, f] e_{piv_i}."""
    n = len(gens[0])
    # dividing a word by its content leaves the span of words unchanged
    span = _ExactSpan(n * n)
    eye = np.eye(n, dtype=object)
    span.add(eye.ravel())
    frontier = [eye]
    while frontier:
        nxt = []
        for word in frontier:
            for gen in gens:
                prod = _primitive(word @ gen)
                if span.add(prod.ravel()):
                    nxt.append(prod)
        frontier = nxt
    free = np.setdiff1d(np.arange(n * n), span.pivots)
    y = np.zeros((len(free), n * n), dtype=object)
    y[np.arange(len(free)), free] = span.den
    y[:, span.pivots] = -span.rows[:, free].T
    return y


def algebra_dimension(mats) -> int:
    """Dimension of the unital matrix algebra generated by rational matrices.

    Each generator is scaled to an integer matrix once. A nonzero scalar on a
    generator scales each of its words by a nonzero scalar, so the algebra is
    unchanged.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one generator")
    n = mats[0].rows
    if any(m.rows != n or m.cols != n for m in mats):
        raise ValueError("generators must be square of equal size")
    return n * n - len(_annihilator([_integer_matrix(m) for m in mats]))


def _annihilator(gens: list[np.ndarray]) -> np.ndarray:
    """Integer rows Y, one per non-pivot column, with ker Y exactly the unital
    algebra A generated by square Python-int matrices; no rows if A is full.

    The span grows mod p from the integer words, with no inverse taken mod p.
    Its k words are integer matrices that are independent mod p, so they are
    independent over Q: dim A >= k.  If k = n^2, A is full.

    Below full, Y is read off the span's reduced echelon rows R, with pivots
    piv: for each non-pivot column f, y_f = e_f - sum_i R[i, f] e_{piv_i} mod
    p.  Each entry is lifted to Q by rational reconstruction and each row is
    scaled by its denominators.  On the non-pivot columns Y is a scaled
    identity, so its n^2 - k rows are independent and
    K = ker Y = {X : <X, y_f> = 0 for all f} has dimension exactly k, where
    <X, Y> = tr(X^T Y).  Exact integer checks then show:

    (a) tr(y_f) = 0 for every f, so I lies in K;
    (b) y_f g^T lies in the row span of Y for every generator g and row f.

    Since <X g, y_f> = <X, y_f g^T>, (b) makes K closed under X -> X g: for
    X in K, X g is orthogonal to every y_f g^T, so to every y_f.  A subspace
    that holds I and is closed under right multiplication by every generator
    holds every word, so it holds A, and dim A <= dim K = k.  So A = K.  The
    lift only proposes Y: the checks decide, so a wrong lift can only make
    the certificate fail.

    If a lift or a check fails, Y comes from exact fraction-free elimination
    (`_exact_annihilator`).  That case includes a bad prime, where the words
    mod p have a lower rank than over Q.
    """
    n = len(gens[0])
    span = _grow_mod_span([g % _P for g in gens], n, _P)
    if span.dim == n * n:
        return np.zeros((0, n * n), dtype=object)
    pivots = span._pivots[: span.dim]
    y = _lifted_annihilator(span)
    del span  # the checks need only Y: release the mod-p rows first
    if y is not None and _annihilates_algebra(gens, y, pivots):
        return y
    return _exact_annihilator(gens)


def _lifted_annihilator(span: _ModSpan) -> np.ndarray | None:
    """Integer rows y_f = den_f (e_f - sum_i R[i, f] e_{piv_i}) lifted from mod p.

    Row j belongs to the j-th non-pivot column f, and each row is scaled by
    the lcm den_f of its denominators.  None if an entry has no lift.
    """
    p, k = span.p, span.dim
    pivots = span._pivots[:k]
    free = np.setdiff1d(np.arange(span.width), pivots)
    block = span._rows[:k, free].T
    rows, cols = np.nonzero(block)
    values, inverse = np.unique(block[rows, cols], return_inverse=True)
    lifts = [_rational_lift(-int(x) % p, p) for x in values]
    if None in lifts:
        return None
    nums, dens = np.array(lifts, dtype=object).reshape(-1, 2)[inverse].T
    row_dens = np.ones(len(free), dtype=object)
    np.lcm.at(row_dens, rows, dens)
    y = np.zeros((len(free), span.width), dtype=object)
    y[np.arange(len(free)), free] = row_dens
    y[rows, pivots[cols]] = nums * (row_dens[rows] // dens)
    return y


def _rational_lift(u: int, p: int) -> tuple[int, int] | None:
    """(a, b) with a = b u mod p, |a| <= B and 0 < b <= B for B = isqrt(p // 2).

    Rational reconstruction: the extended Euclidean algorithm on (p, u),
    stopped at the first remainder <= B.  Since 2 B^2 < p, at most one such
    fraction exists.  None if the cofactor passes B.
    """
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _annihilates_algebra(gens: list[np.ndarray], y: np.ndarray, pivots) -> bool:
    """Checks (a) and (b) of `_annihilator` on integer annihilator rows `y`.

    Row j of y is den_j times e_{f_j} on the non-pivot columns.  Scaled to a
    common denominator L, row j becomes z_j = (L / den_j) y_j, and a vector v
    lies in the row span of y exactly when L v = sum_j v[f_j] z_j, which needs
    comparing only on the pivot columns.

    With every |y| <= M and every |g| <= G, every product and partial sum
    below is at most len(free) * n * M^2 * G * L: below 2^53 the checks run
    in float64, which BLAS computes exactly, and in Python ints otherwise.
    """
    n = len(gens[0])
    if y[:, :: n + 1].sum(axis=1).any():  # (a): the trace of each y_f
        return False
    free = np.setdiff1d(np.arange(n * n), pivots)
    dens = y[np.arange(len(free)), free]
    common = lcm(*dens)
    most = max(int(abs(g).max()) for g in gens)
    top = max(y.max(initial=0), -y.min(initial=0))
    dtype = np.float64 if len(free) * n * top**2 * most * common < 2**53 else object
    gens = [g.astype(dtype) for g in gens]
    z = (y[:, pivots] * (common // dens)[:, None]).astype(dtype)
    for start in range(0, len(y), _BLOCK):
        cubes = y[start:start + _BLOCK].astype(dtype).reshape(-1, n, n)
        for gen in gens:
            prods = (cubes @ gen.T).reshape(len(cubes), n * n)
            if not np.array_equal(common * prods[:, pivots], prods[:, free] @ z):
                return False
    return True


def _check_class_size(members) -> None:
    if len(members) > _TENSOR_CLASS_LIMIT:
        raise ValueError(
            f"tensor operators limited to classes of size <= {_TENSOR_CLASS_LIMIT}"
        )


def ds_table_check(bundle: RepBundle, s: int, c: int) -> bool:
    """All fifteen products of the commutative operator table on V_c (x) V_c,
    plus the three cleared power identities expressing P, S + 1, Q through
    powers of T.

    The operators are built from s and p = s - t_s on the class block V_c, so
    the table is an identity in A (x) A, where A = span{1, s, p}:

    - s^2 = 1, s p = p s = p and p^2 = (1 - m) p on the class block make
      1 -> I, s -> s_b, p -> p_b a homomorphism A -> End(V_c). Each relation
      has degree <= 2 in m, so m = 0, 1, 2 prove it, in sparse integers.
    - A is spanned by 1, s and p, and I, L_s and L_p are independent, so the
      regular representation L of A on that basis is faithful, and so is
      L (x) L on A (x) A.
    - So every identity that holds on L (x) L holds on V_c (x) V_c.
    - Every entry of the table on L (x) L has degree <= 7 in m, so m = 0..7
      prove it for all m.
    """
    members = bundle.group.classes[c]
    if s not in members:
        raise ValueError("reflection must belong to the class")
    return all(_block_relations(bundle, s, members, m) for m in range(3)) and all(
        _ds_table_at(m) for m in range(8)
    )


def _block_relations(bundle: RepBundle, s: int, members, m: int) -> bool:
    """s^2 = 1, s p = p s = p and p^2 = (1 - m) p on the class block at m."""
    # column u of s or t_s has its rows among sus and s, both in the class
    s_b = {u: col for u, col in bundle.s_cols(s).items() if u in members}
    t_b = {u: col for u, col in bundle.t_at(s, m).items() if u in members}
    p_b = _sparse_sum((s_b, _times(t_b, -1)))
    return (
        _sparse_mul(s_b, s_b) == {u: {u: 1} for u in members}
        and _sparse_mul(s_b, p_b) == p_b
        and _sparse_mul(p_b, s_b) == p_b
        and _sparse_mul(p_b, p_b) == _times(p_b, 1 - m)
    )


def _times(cols: Sparse, c: int) -> Sparse:
    return {u: {row: c * val for row, val in col.items()} for u, col in cols.items()} if c else {}


def _regular_rep(m: int) -> tuple[np.ndarray, np.ndarray]:
    """L_s and L_p: A acting on itself in the basis 1, s, p, at m."""
    l_s = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=object)
    l_p = np.array([[0, 0, 0], [0, 0, 0], [1, 1, 1 - m]], dtype=object)
    return l_s, l_p


@cache
def _ds_table_at(m: int) -> bool:
    one = np.identity(3, dtype=object)
    eye = np.identity(9, dtype=object)
    l_s, l_p = _regular_rep(m)
    delta = np.kron(l_s, one) + np.kron(one, l_s)
    p = np.kron(l_p, one) + np.kron(one, l_p)
    q = np.kron(l_p, l_p)
    r = np.kron(l_p, l_s) + np.kron(l_s, l_p)
    s_op = np.kron(l_s, l_s)
    one_minus_m = 1 - m
    table = [
        (delta @ delta, 2 * eye + 2 * s_op),
        (delta @ p, p + r),
        (delta @ q, 2 * q),
        (delta @ r, r + p),
        (delta @ s_op, delta),
        (p @ p, one_minus_m * p + 2 * q),
        (p @ q, (2 * one_minus_m) * q),
        (p @ r, one_minus_m * r + 2 * q),
        (p @ s_op, r),
        (q @ q, (one_minus_m * one_minus_m) * q),
        (q @ r, (2 * one_minus_m) * q),
        (q @ s_op, q),
        (r @ r, one_minus_m * p + 2 * q),
        (r @ s_op, p),
        (s_op @ s_op, eye),
    ]
    if not all(np.array_equal(left, right) for left, right in table):
        return False
    t = delta - p
    t2 = t @ t
    t3 = t2 @ t
    t4 = t3 @ t
    t5 = t4 @ t
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
    return all(np.array_equal(left, right) for left, right in power_identities)


def _excluded(bundle: RepBundle, c: int, m0: Fraction) -> bool:
    if m0 in _EXCLUDED_POINTS:
        return True
    roots = bundle.memo(
        ("roots", c),
        lambda: frozenset(root for root, _ in discriminant(bundle.group, c).factors),
    )
    return m0 in roots


def _int_blocks(bundle: RepBundle, members, m0: Fraction) -> list[np.ndarray]:
    """Python ints b t_x(m0) = b N_x + a E_xx on the class block, m0 = a/b."""
    a, b = m0.numerator, m0.denominator
    return [np.array(_block(_scaled_t(bundle, x, a, b), members, 0), dtype=object) for x in members]


def _square_blocks(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t (x) 1 + 1 (x) t on the alternating and symmetric squares of integer t.

    The bases are e_k ^ e_l = e_k (x) e_l - e_l (x) e_k for k < l, and
    e_k e_l = e_k (x) e_l + e_l (x) e_k for k < l with e_k (x) e_k for k = l.
    A vector's coordinate on the basis vector (i, j) is its (i, j) entry.
    """
    d = len(t)
    eye = np.identity(d, dtype=object)
    big = np.kron(t, eye) + np.kron(eye, t)
    out = []
    for i, j, sign in ((*np.triu_indices(d, 1), -1), (*np.triu_indices(d), 1)):
        pairs = i * d + j
        swapped = big[np.ix_(pairs, j * d + i)]
        swapped[:, i == j] = 0
        out.append(big[np.ix_(pairs, pairs)] + sign * swapped)
    return out[0], out[1]


def tensor_square_check(bundle: RepBundle, c: int, m0) -> dict:
    """Burnside closure on the alternating and symmetric squares of V_c.

    The closure runs once per bundle, class and point; each call returns a
    fresh copy of its report.
    """
    m0 = Fraction(m0)
    if _excluded(bundle, c, m0):
        raise ValueError("excluded evaluation point")
    return dict(bundle.memo(("square", c, m0), lambda: _square_report(bundle, c, m0)))


def _square_report(bundle: RepBundle, c: int, m0: Fraction) -> dict:
    members = bundle.group.classes[c]
    d = len(members)
    if d == 1:
        return {"class_size": 1, "skipped": True, "ok": True}
    _check_class_size(members)
    blocks = [_square_blocks(t) for t in _int_blocks(bundle, members, m0)]
    wedge_dim = d * (d - 1) // 2
    sym_dim = d * (d + 1) // 2
    wedge_algebra = wedge_dim**2 - len(_annihilator([wedge for wedge, _ in blocks]))
    sym_algebra = sym_dim**2 - len(_annihilator([sym for _, sym in blocks]))
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
    """BFS closure of a matrix algebra span mod p, one level of words per `_advance`."""

    def __init__(self, gens: list[np.ndarray], n: int, p: int) -> None:
        self.n = n
        self.p = p
        self.count = len(gens)
        # word @ [g_1 | ... | g_k] holds the products word * g_i side by side
        self.gens = np.hstack(gens).astype(np.float64)
        self.span = _ModSpan(n * n, p)
        eye = np.eye(n)
        self.span.add_block(eye.reshape(1, -1))
        self.span.end_level()
        self.frontier = eye[None]

    def _advance(self) -> bool:
        if not len(self.frontier):
            return False
        n, k = self.n, self.count
        step = max(1, _BLOCK // k)
        taken = [np.zeros((0, n * n))]
        for start in range(0, len(self.frontier), step):
            if self.span.dim == n * n:  # full: no later word can join
                break
            words = self.frontier[start:start + step]
            prods = _mulmod(words.reshape(-1, n), self.gens, self.p)
            # word-major, generator-minor: the order of one-at-a-time insertion
            prods = prods.reshape(len(words), n, k, n).swapaxes(1, 2).reshape(-1, n * n)
            taken.append(prods[self.span.add_block(prods)])
        self.span.end_level()
        self.frontier = np.concatenate(taken).reshape(-1, n, n)
        return True


def _grow_mod_span(gens: list[np.ndarray], n: int, p: int) -> _ModSpan:
    growth = _SpanGrowth(gens, n, p)
    while growth._advance():
        pass
    return growth.span


def psu_membership_check(bundle: RepBundle, c: int, s: int, u: int, m0) -> bool:
    """Is p_s (x) p_u + p_u (x) p_s inside the algebra A generated by the T_x?

    Away from the roots of the class discriminant, a passing
    `tensor_square_check` proves membership exactly.  Every T_x commutes with
    the swap of V (x) V, so A lies in End(Λ²) ⊕ End(S²).  The square check
    proves that A maps onto each factor: a full mod-p span bounds the rational
    rank from below.  Λ² and S² differ in dimension, so they are not
    isomorphic A-modules, and by the density theorem A is the whole product.
    The target commutes with the swap, so it lies in A.

    Elsewhere (a root, or squares that are not full) A = ker Y for the exact
    annihilator Y of `_annihilator` on V (x) V, so the target lies in A
    exactly when Y kills it.
    """
    if s == u:
        raise ValueError("need two distinct reflections")
    m0 = Fraction(m0)
    if m0 in _EXCLUDED_POINTS:
        raise ValueError("excluded evaluation point")
    members = bundle.group.classes[c]
    if s not in members or u not in members:
        raise ValueError("reflections must belong to the class")
    _check_class_size(members)
    if not _excluded(bundle, c, m0) and tensor_square_check(bundle, c, m0)["ok"]:
        return True

    # for m0 = a/b, A is generated by b T_x and the target is scaled by b^2
    blocks = _int_blocks(bundle, members, m0)

    def scaled_p(x: int) -> np.ndarray:  # b p_x = b s_x - b t_x(m0)
        s_x = np.array(_block(bundle.s_cols(x), members, 0), dtype=object)
        return m0.denominator * s_x - blocks[members.index(x)]

    ps, pu = scaled_p(s), scaled_p(u)
    target = np.kron(ps, pu) + np.kron(pu, ps)
    eye = np.identity(len(members), dtype=object)
    y = bundle.memo(
        ("annihilator", c, m0),
        lambda: _annihilator([np.kron(t, eye) + np.kron(eye, t) for t in blocks]),
    )
    return not (y @ target.ravel()).any()
