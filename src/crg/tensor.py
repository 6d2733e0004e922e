"""Tensor-square operators, and Burnside irreducibility of the squares by
Norton's test, with algebra closure as the fallback."""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from random import Random

import numpy as np

from .groups import Refused, _blas_dtype
from .matrices import ExactMatrix
from .modp import (
    _BLOCK,
    _MAX_WIDTH,
    _NORTON_SEED,
    _P,
    _P2,
    _combination,
    _grow_mod_span,
    _ModSpan,
    _norton,
)
from .quadratic import discriminant
from .rep import RepBundle

# Norton's test decides the squares of every fixture class of up to 36
# reflections, E6's in about 1.4 s, and holds only a few D x D matrices.  With
# the limit raised, G(13,13,3)'s class of 39 took 1.8 s at 93 MB peak RSS and
# H4's class of 60 took 13 s at 397 MB (2-vCPU host).  Membership at a root of
# the discriminant closes all of V (x) V, d^4 wide, so it keeps 12.
_SQUARE_CLASS_LIMIT = 36
_ROOT_CLASS_LIMIT = 12
_EXCLUDED_POINTS = {
    Fraction(-3),
    Fraction(-1),
    Fraction(0),
    Fraction(1),
    Fraction(3),
}


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

    If a lift or a check fails, as at a bad prime, where the words mod p
    have a lower rank than over Q, the span, lift and checks run again at
    the second prime `_P2`.  If they fail there too, Y comes from exact
    fraction-free elimination (`_exact_annihilator`).
    """
    n = len(gens[0])
    for p in (_P, _P2):
        span = _grow_mod_span([g % p for g in gens], n, p)
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
    dtype = _blas_dtype(len(free) * n * top**2 * most * common)
    gens = [g.astype(dtype) for g in gens]
    z = (y[:, pivots] * (common // dens)[:, None]).astype(dtype)
    for start in range(0, len(y), _BLOCK):
        cubes = y[start:start + _BLOCK].astype(dtype).reshape(-1, n, n)
        for gen in gens:
            prods = (cubes @ gen.T).reshape(len(cubes), n * n)
            if not np.array_equal(common * prods[:, pivots], prods[:, free] @ z):
                return False
    return True


def _check_class_size(members, limit: int) -> None:
    if len(members) > limit:
        raise Refused(f"tensor operators limited to classes of size <= {limit}")


def ds_table_check(bundle: RepBundle, s: int, c: int) -> bool:
    """All fifteen products of the commutative operator table on V_c (x) V_c,
    plus the three cleared power identities expressing P, S + 1, Q through
    powers of T.

    The operators are built from s and p = s - t_s on the class block V_c, so
    the table is an identity in A (x) A, where A = span{1, s, p}:

    - s^2 = 1, s p = p s = p and p^2 = (1 - m) p on the class block make
      1 -> I, s -> s_b, p -> p_b a homomorphism A -> End(V_c). Each relation
      has degree <= 2 in m, so m = 0, 1, 2 prove it, on integer arrays.
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


def _block_relations(bundle: RepBundle, s: int, members, m) -> bool:
    """s^2 = 1, s p = p s = p and p^2 = (1 - m) p on the class block at m.

    At m = a/b they are taken on b p = b P_s - b t_s(a/b) = e_s (b rho_s -
    a e_s)^T, where p^2 = (1 - m) p reads (b p)^2 = (b - a) b p.  Every
    entry of b p is at most E + b, with E = `bundle.bound(a, b)`, so every
    entry and partial sum of each product is at most d (E + b)^2.
    """
    m = Fraction(m)
    a, b = m.numerator, m.denominator
    dtype = _blas_dtype(len(members) * (bundle.bound(a, b) + b) ** 2)
    # column u of s or t_s has its rows among sus and s, both in the class
    s_b, p_b = bundle.blocks(s, members, a, b, dtype)
    return (
        np.array_equal(s_b @ s_b, np.identity(len(members)))
        and np.array_equal(s_b @ p_b, p_b)
        and np.array_equal(p_b @ s_b, p_b)
        and np.array_equal(p_b @ p_b, (b - a) * p_b)
    )


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
    """Python ints b t_x(m0) = b P_x - e_x (b rho_x - a e_x)^T on the class block, m0 = a/b."""
    a, b = m0.numerator, m0.denominator
    return [b * perm - p for perm, p in (bundle.blocks(x, members, a, b, object) for x in members)]


def _square_block(t: np.ndarray, sign: int) -> np.ndarray:
    """t (x) 1 + 1 (x) t on the alternating (sign -1) or symmetric (sign 1) square of t.

    The bases are e_k ^ e_l = e_k (x) e_l - e_l (x) e_k for k < l, and
    e_k e_l = e_k (x) e_l + e_l (x) e_k for k < l with e_k (x) e_k for k = l.
    A vector's coordinate on the basis vector (i, j) is its (i, j) entry.
    """
    d = len(t)
    eye = np.identity(d, dtype=t.dtype)
    big = np.kron(t, eye) + np.kron(eye, t)
    i, j = np.triu_indices(d, 1 if sign < 0 else 0)
    pairs = i * d + j
    swapped = big[np.ix_(pairs, j * d + i)]
    swapped[:, i == j] = 0
    return big[np.ix_(pairs, pairs)] + sign * swapped


def tensor_square_check(bundle: RepBundle, c: int, m0) -> dict:
    """Is the algebra of the T_x full on the alternating and symmetric squares of V_c?

    Each square is decided by Norton's test with a rank-one element of the
    algebra (`_square_norton`) when it passes, and by the closure of
    `_annihilator` otherwise, as on a class whose operator table fails or at
    a point where a scalar of the test vanishes mod p.  The closure is D^2
    wide, so it backs S^2 up to classes of 26 and Λ^2 up to 27
    (`_MAX_WIDTH`); a miss above that is refused.  A full algebra mod p is
    spanned by the integer words mod p, so D^2 of them are independent mod
    p, hence over Q, and the rational algebra is full.  The report gives each
    square's dimension D, the dimension of its algebra (D^2 when full) and
    the route that decided it, "norton" or "closure".  The squares are
    decided once per bundle, class and point; each call returns a fresh copy
    of the report.
    """
    m0 = Fraction(m0)
    if _excluded(bundle, c, m0):
        raise Refused("excluded evaluation point")
    return dict(bundle.memo(("square", c, m0), lambda: _square_report(bundle, c, m0)))


def _square_report(bundle: RepBundle, c: int, m0: Fraction) -> dict:
    members = bundle.group.classes[c]
    d = len(members)
    if d == 1:
        return {"class_size": 1, "skipped": True, "ok": True}
    _check_class_size(members, _SQUARE_CLASS_LIMIT)
    ints = _int_blocks(bundle, members, m0)
    # Norton's test takes the class blocks mod p; the integer squares only on a fallback
    blocks = np.array([t % _P for t in ints], dtype=np.float64)
    a, b = m0.numerator, m0.denominator
    # the scalars of the power identities and of the Λ^2 identity are units mod p
    rank_one = (
        a * b * (b - a) * (a + b) * (a + 3 * b) * (a - 3 * b) % _P != 0
        and ds_table_check(bundle, members[0], c)
        and ds_table_check(bundle, members[1], c)
    )
    report = {"class_size": d, "skipped": False}
    for sign, name, dim in ((-1, "wedge", d * (d - 1) // 2), (1, "sym", d * (d + 1) // 2)):
        if rank_one and _square_norton(ints, blocks, b, sign, _P):
            route, algebra = "norton", dim**2
        elif dim**2 > _MAX_WIDTH:
            raise Refused(
                f"Norton's test missed the {name} square of a class of {d}, whose"
                f" closure would be {dim**2} wide, above the limit of {_MAX_WIDTH}"
            )
        else:
            gens = [_square_block(t, sign) for t in ints]
            route, algebra = "closure", dim**2 - len(_annihilator(gens))
        report |= {f"{name}_dim": dim, f"{name}_algebra": algebra, f"{name}_route": route}
    report["ok"] = all(report[f"{x}_algebra"] == report[f"{x}_dim"] ** 2 for x in ("wedge", "sym"))
    return report


def _norton_pair(blocks: np.ndarray, sign: int, p: int) -> list[np.ndarray]:
    """Two seeded random elements sum_x c_x b T_x, as the squares of sum_x c_x b t_x mod p."""
    rng = Random(_NORTON_SEED)
    return [_square_block(_combination(blocks, rng, p), sign) % p for _ in range(2)]


def _square_norton(ints: list[np.ndarray], blocks: np.ndarray, b: int, sign: int, p: int) -> bool:
    """Norton's test on the alternating (sign -1) or symmetric (sign 1) square
    with a rank-one theta = x (x) phi of A, where x is basis vector 0.

    On the class block p_x = s_x - t_x = e_x (x) r_x, with r_x[x] = 1 - m
    and r_x[y] = alpha(x, y).  Let s and u be the first two members, so that
    e_s e_s and e_s ^ e_u are basis vector 0 of S^2 and Λ^2, and let P_x =
    p_x (x) 1 + 1 (x) p_x and Q_s = p_s (x) p_s.

    - S^2: Q_s = (e_s e_s) (x) phi, with phi(e_k e_l) = (2 - delta_kl)
      r_s[k] r_s[l].  Q_s lies in A by the third power identity of
      `ds_table_check`, whose scalar is 8 m (m + 1)^2.
    - Λ^2: (1 - m) psu = P_s P_u P_s - alpha(s, u) alpha(u, s) P_s, where
      psu = (e_s ^ e_u) (x) phi and phi(e_k ^ e_l) = r_s[k] r_u[l] - r_s[l]
      r_u[k].  Indeed P_s(v ^ w) = e_s ^ y with y = r_s(v) w - r_s(w) v,
      and P_s is 1 - m on e_s ^ V.  So P_s P_u P_s(v ^ w) = alpha(s, u)
      alpha(u, s) e_s ^ y + ((1 - m) r_u(y) - alpha(u, s) r_s(y)) e_s ^ e_u,
      where r_s(y) = 0 and r_u(y) = phi(v ^ w).  P_s and P_u lie in A by
      the first power identity, whose scalar is 4 m (m + 3) (m - 3) (m + 1).

    The caller checks `ds_table_check` for s and u, and that every scalar is
    a unit mod p at m0 = a/b.  ints[x] is b t_x(m0), so b r_x is row x of
    b e_x - ints[x], and phi is taken b^2 times, in Python ints; no D x D
    theta is built.
    """
    r_s, r_u = -ints[0][0], -ints[1][1]
    r_s[0] += b
    r_u[1] += b
    i, j = np.triu_indices(len(r_s), 1 if sign < 0 else 0)
    if sign < 0:
        phi = r_s[i] * r_u[j] - r_s[j] * r_u[i]
    else:
        phi = (2 - (i == j)) * r_s[i] * r_s[j]
    x = np.zeros(len(phi))
    x[0] = 1
    return _norton(x, (phi % p).astype(np.float64), _norton_pair(blocks, sign, p), p)


def psu_membership_check(bundle: RepBundle, c: int, s: int, u: int, m0) -> bool:
    """Is p_s (x) p_u + p_u (x) p_s inside the algebra A generated by the T_x?

    Away from the roots of the class discriminant, a passing
    `tensor_square_check` proves membership exactly.  Every T_x commutes with
    the swap of V (x) V, so A lies in End(Λ²) ⊕ End(S²).  The square check
    proves that A maps onto each factor, by Norton's test or by a full mod-p
    closure: either way D^2 integer words are independent mod p, so over Q.
    Λ² and S² differ in dimension, so they are not isomorphic A-modules, and
    by the density theorem A is the whole product.  The target commutes with
    the swap, so it lies in A.  This route takes classes of up to
    `_SQUARE_CLASS_LIMIT` reflections.

    Elsewhere (a root, or squares that are not full) A = ker Y for the exact
    annihilator Y of `_annihilator` on V (x) V, so the target lies in A
    exactly when Y kills it.  That closure is d^4 wide, so it takes classes
    of up to `_ROOT_CLASS_LIMIT` reflections.
    """
    if s == u:
        raise ValueError("need two distinct reflections")
    m0 = Fraction(m0)
    if m0 in _EXCLUDED_POINTS:
        raise Refused("excluded evaluation point")
    members = bundle.group.classes[c]
    if s not in members or u not in members:
        raise ValueError("reflections must belong to the class")
    _check_class_size(members, _SQUARE_CLASS_LIMIT)
    if not _excluded(bundle, c, m0) and tensor_square_check(bundle, c, m0)["ok"]:
        return True
    _check_class_size(members, _ROOT_CLASS_LIMIT)

    # for m0 = a/b, A is generated by b T_x and the target is scaled by b^2
    blocks = _int_blocks(bundle, members, m0)

    ps, pu = (bundle.blocks(x, members, m0.numerator, m0.denominator, object)[1] for x in (s, u))
    target = np.kron(ps, pu) + np.kron(pu, ps)
    eye = np.identity(len(members), dtype=object)
    y = bundle.memo(
        ("annihilator", c, m0),
        lambda: _annihilator([np.kron(t, eye) + np.kron(eye, t) for t in blocks]),
    )
    return not (y @ target.ravel()).any()
