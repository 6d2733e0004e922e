"""The infinitesimal representation on the span of the reflections.

Matrices act on basis vectors v_u indexed by reflections:
t_s.v_u = v_{sus} - alpha(s,u) v_s for u != s, and t_s.v_s = m v_s.
So t_s = N_s + m E_ss with N_s an integer matrix and E_ss a matrix unit:
every entry has degree at most 1 in m. A product of k such matrices has
degree at most k, and a nonzero polynomial of degree d has at most d
roots, so an identity of degree at most d in m holds for all m once it
holds exactly at the d + 1 integer points m = 0..d.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .arrangement import FlatTable, codim2_flats, parabolic_reflections
from .groups import ReflectionGroupData, Refused, build_series, class_stats, k_c
from .matrices import ExactMatrix
from .quadratic import kernel_at

Column = dict[int, int]
Sparse = dict[int, Column]


class CheckResult:
    """Boolean with an attached witness for the first failure, and the route
    the check took where it has more than one."""

    def __init__(self, ok: bool, detail=None, route: str | None = None) -> None:
        self.ok = ok
        self.detail = detail
        self.route = route

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"CheckResult({self.ok}, detail={self.detail!r})"


class RepBundle:
    """Sparse integer columns of N_s = t_s at m = 0, one dict per reflection."""

    def __init__(self, group: ReflectionGroupData, alpha=None) -> None:
        self.group = group
        self.alpha = group.alpha if alpha is None else alpha
        n = group.size
        conj = group.conj_table
        n_cols: list[Sparse] = []
        for s in range(n):
            cols: Sparse = {}
            for u in range(n):
                if u == s:
                    continue
                # sus != s for u != s, so the two entries never share a row
                col: Column = {conj[s][u]: 1}
                a = self.alpha[s][u]
                if a:
                    col[s] = -a
                cols[u] = col
            n_cols.append(cols)
        self.n_cols = tuple(n_cols)
        self._memo: dict = {}

    def memo(self, key: tuple, compute):
        """compute(), run once per bundle and key; the bundle's one cache.
        A refusal is cached too, and raised again."""
        if key not in self._memo:
            try:
                self._memo[key] = compute()
            except Refused as refusal:  # kept without the frames it was raised in
                self._memo[key] = refusal.with_traceback(None)
        if isinstance(self._memo[key], Refused):
            raise self._memo[key]
        return self._memo[key]

    @property
    def size(self) -> int:
        return self.group.size

    def s_cols(self, s: int) -> Sparse:
        conj = self.group.conj_table[s]
        return {u: {conj[u]: 1} for u in range(self.size)}

    def t_at(self, s: int, m0) -> Sparse:
        """Sparse columns of t_s(m0) = N_s + m0 E_ss."""
        if not m0:
            return self.n_cols[s]
        cols = dict(self.n_cols[s])
        cols[s] = {s: m0}
        return cols

    def t_block(self, s: int, members, m0) -> ExactMatrix:
        """Restriction of t_s(m0) to the span of v_u, u in members.

        Entries lie in the ring of m0: all Fractions for a Fraction m0, all
        ints for an int m0, so later products never mix the two types.
        """
        return ExactMatrix.from_rows(_block(self.t_at(s, m0), members, m0 * 0))


def _block(cols: Sparse, members, zero) -> list[list]:
    pos = {u: i for i, u in enumerate(members)}
    rows = [[zero] * len(pos) for _ in pos]
    for u, col in cols.items():
        if u not in pos:
            continue
        for row, val in col.items():
            if row in pos:
                rows[pos[row]][pos[u]] = zero + val
    return rows


def build_rep(g: ReflectionGroupData, alpha=None) -> RepBundle:
    """Assemble the representation; alpha may be overridden for mutation tests."""
    return RepBundle(g, alpha)


def _sparse_mul(a: Sparse, b: Sparse) -> Sparse:
    out: Sparse = {}
    for u, bcol in b.items():
        acc: Column = {}
        for k, bval in bcol.items():
            for row, aval in a.get(k, {}).items():
                cur = acc.get(row, 0) + aval * bval
                if cur:
                    acc[row] = cur
                else:
                    acc.pop(row, None)
        if acc:
            out[u] = acc
    return out


def _sparse_sum(parts) -> Sparse:
    out: Sparse = {}
    for cols in parts:
        for u, col in cols.items():
            acc = out.setdefault(u, {})
            for row, val in col.items():
                cur = acc.get(row, 0) + val
                if cur:
                    acc[row] = cur
                else:
                    acc.pop(row, None)
    return {u: col for u, col in out.items() if col}


def _scaled_t(bundle: RepBundle, s: int, a: int, b: int) -> Sparse:
    """Sparse integer columns of b t_s(a/b) = b N_s + a E_ss."""
    if b == 1:
        return bundle.t_at(s, a)
    cols = {u: {row: b * val for row, val in col.items()} for u, col in bundle.n_cols[s].items()}
    if a:
        cols[s] = {s: a}
    return cols


def check_integrability(bundle: RepBundle, m0: Fraction | None = None) -> CheckResult:
    """Commutators [sum_{y in Z} t_y, t_x] vanish on every codimension-2 flat.

    With m0 given only that point is checked; None proves it for all m.
    Once equivariance holds, conjugating by w sends the commutator of (Z, x)
    to that of (wZ, wxw), so one (flat, x) pair per W-orbit is checked (route
    "orbits"); otherwise every pair is (route "all flats"). Each orbit is
    checked at its first pair in scan order, and the orbits are met in scan
    order, so both routes return the same first failing (flat_index, x).
    """
    # [sum_{y in Z} t_y, t_x] has degree <= 2 in m: m = 0, 1, 2 prove it.
    # At m0 = a/b the integer matrices b t_y = b N_y + a E_yy scale the
    # commutator by b^2 != 0, so they give the same verdict and witness.
    if m0 is None:
        points = ((0, 1), (1, 1), (2, 1))
    else:
        m0 = Fraction(m0)
        points = ((m0.numerator, m0.denominator),)
    scaled = [[_scaled_t(bundle, y, a, b) for y in range(bundle.size)] for a, b in points]
    g = bundle.group
    table = codim2_flats(g)
    route = "orbits" if check_equivariance(bundle) else "all flats"
    done: set[tuple[int, int]] = set()
    for idx, flat in enumerate(table.flats):
        if all((idx, x) in done for x in flat.members):
            continue
        totals = [_sparse_sum(at_m[y] for y in flat.members) for at_m in scaled]
        for x in flat.members:
            if (idx, x) in done:
                continue
            for total, at_m in zip(totals, scaled):
                t_x = at_m[x]
                if _sparse_mul(total, t_x) != _sparse_mul(t_x, total):
                    return CheckResult(False, (idx, x), route)
            if route == "orbits":
                done |= _orbit(g, table, idx, x)
    return CheckResult(True, route=route)


def _orbit(g: ReflectionGroupData, table: FlatTable, idx: int, x: int) -> set[tuple[int, int]]:
    """The W-orbit of (flat index, x) under the generators' conjugation rows."""
    orbit = {(idx, x)}
    frontier = [(idx, x)]
    while frontier:
        fresh = []
        for f, y in frontier:
            a, b = table.flats[f].members[:2]
            for w in g.generators:
                row = g.conj_table[w]
                image = (table.index_of_pair(row[a], row[b]), row[y])
                if image not in orbit:
                    orbit.add(image)
                    fresh.append(image)
        frontier = fresh
    return orbit


def check_equivariance(bundle: RepBundle) -> CheckResult:
    """Conjugating t_s by the permutation action of w gives t_{wsw}, for all w.

    The m E_ss term moves to m E_{wsw,wsw} by construction, so comparing the
    N_s alone proves it for all m. Both sides respect products of w, so the
    generators of W prove it; on a failure the scan of all pairs, which
    contains a failing generator, returns the first witness (w, s). The
    result is kept on the bundle, which integrability consults too.
    """
    return bundle.memo(("equivariance",), lambda: _equivariance(bundle))


def _equivariance(bundle: RepBundle) -> CheckResult:
    """The check on integer arrays: C, the conjugation table (C[s, u] = sus),
    and alpha, with pi = C[w].

    Column u != s of N_s holds 1 at row C[s, u] and -alpha(s, u) at row s,
    and these rows differ because C[s] is a permutation that fixes s; column
    s is zero. The permutation action of w sends entry (i, u) to (pi(i),
    pi(u)), so it carries N_s to N_{pi(s)} exactly when, for every u != s,

        pi(C[s, u]) = C[pi(s), pi(u)]   and   alpha(s, u) = alpha(pi(s), pi(u)),

    that is pi o C = C[pi, pi] and alpha = alpha[pi, pi] off the diagonal,
    compared row s by row s.
    """
    n = bundle.size
    conj = np.array(bundle.group.conj_table)
    alpha = np.array(bundle.alpha)
    alpha[range(n), range(n)] = 0  # pi maps the diagonal onto itself

    def failing(w: int) -> np.ndarray:
        pi = conj[w]
        moved = (pi[conj] != conj[pi][:, pi]) | (alpha != alpha[pi][:, pi])
        return moved.any(1)

    if not any(failing(w).any() for w in bundle.group.generators):
        return CheckResult(True)
    for w in range(n):  # reached only on a failure, which a generator shows
        failed = failing(w)
        if failed.any():
            return CheckResult(False, (w, int(failed.argmax())))


def check_T_scalar(bundle: RepBundle, c: int) -> bool:
    """sum_s t_s acts on the class block as the scalar m - 1 + C(c)."""
    g = bundle.group
    members = g.classes[c]
    _, c_val = class_stats(g, c)
    # both sides have degree <= 1 in m: m = 0, 1 prove it.
    for m0 in (0, 1):
        total = _sparse_sum(bundle.t_at(s, m0) for s in range(g.size))
        value = m0 + c_val - 1
        for u in members:
            if total.get(u, {}) != ({u: value} if value else {}):
                return False
    return True


def _shift(cols: Sparse, c: int, n: int) -> Sparse:
    """Sparse columns of cols + c I on n basis vectors."""
    return _sparse_sum((cols, {u: {u: c} for u in range(n)}))


def _trace(cols: Sparse, members) -> int:
    return sum(cols.get(u, {}).get(u, 0) for u in members)


def spectrum_check(bundle: RepBundle, s: int, m0=None) -> bool:
    """t_s has eigenvalues m, -1, 1 with multiplicities 1, k, n - 1 - k, on V
    and on the class block of s, and Ker(t_s + 1) = Ker(s + 1).

    Proven for all m != +-1 unless m0 = -1, where m and -1 collide: there the
    multiplicities k + 1 and n - 1 - k of -1 and 1 are checked at that point.
    m0 = 1, where t_s is not semisimple, is refused.
    """
    m0 = None if m0 is None else Fraction(m0)
    if m0 == 1:
        raise Refused("not semisimple")
    g = bundle.group
    n = g.size
    c = g.class_of[s]
    k = sum(k_c(g, d, s) for d in range(len(g.classes)))
    # s permutes the basis by u -> sus. Its 2-cycles are the non-commuting
    # pairs that k_c counts, so dim Ker(s + 1) = k and dim Ker(s - 1) = n - k.
    s_plus = _shift(bundle.s_cols(s), 1, n)
    s_minus = _shift(bundle.s_cols(s), -1, n)
    # Each identity has degree <= 3 in m, so m = 0..3 prove it. For m != +-1
    # the cubic (t - m)(t - 1)(t + 1) = 0 makes t diagonalizable with
    # eigenvalues in {m, 1, -1}, on V and on the t-invariant class block (sus
    # lies in the class); tr t and tr t^2 fix the multiplicities (Vandermonde),
    # and (s + 1)(t - m)(t - 1) = 0 and (s - 1)(t + 1) = 0 then make the kernel
    # containments equalities by dimension. At m = -1, (t + 1)(t - 1) = 0 and
    # tr t fix the spectrum.
    for m in (-1,) if m0 == -1 else range(4):
        t = bundle.t_at(s, m)
        t_plus = _shift(t, 1, n)
        q = _sparse_mul(_shift(t, -m, n), _shift(t, -1, n))
        if m0 == -1:
            zeros = (q,)
        else:
            zeros = (_sparse_mul(q, t_plus), _sparse_mul(s_plus, q), _sparse_mul(s_minus, t_plus))
        if any(zeros):
            return False
        t_sq = _sparse_mul(t, t)
        for block, kb in ((range(n), k), (g.classes[c], k_c(g, c, s))):
            if _trace(t, block) != m + len(block) - 1 - 2 * kb:
                return False
            if _trace(t_sq, block) != m * m + len(block) - 1:
                return False
    return True


def parabolic_restriction_check(bundle: RepBundle, seed) -> bool:
    """Restriction to a parabolic matches its own rebuilt action; the
    quotient is the bare conjugation permutation.

    The m E_ss term, s inside, restricts to itself, so the N_s alone prove
    it for all m.
    """
    g = bundle.group
    inside = set(parabolic_reflections(g, seed))
    if not inside or len(inside) == g.size:
        raise Refused("improper seed")
    conj = g.conj_table
    for s in inside:
        for u in range(g.size):
            col = bundle.n_cols[s].get(u, {})
            if u in inside:
                if any(row not in inside for row in col):
                    return False
                sub_alpha = sum(1 for y in inside if conj[y][s] == u)
                expected: Column = {} if u == s else {conj[s][u]: 1}
                if u != s and sub_alpha:
                    expected[s] = -sub_alpha
                if col != expected:
                    return False
            else:
                residual = {row: val for row, val in col.items() if row not in inside}
                if residual != {conj[s][u]: 1}:
                    return False
    return True


DIHEDRAL_CHARACTER_NOTE = (
    "two-dimensional dihedral characters are evaluated on the explicit "
    "matrix model: trace 0 on reflections, zeta^k + zeta^-k on rotations"
)


def dihedral_m0_check(e: int) -> bool:
    """At m = 0 the odd dihedral representation restricted to the zero-sum
    hyperplane is the permutation action, with character sum chi_U = sum chi_k."""
    if e % 2 == 0 or e < 3:
        raise Refused("e must be odd and at least 3")
    g = build_series(e, e, 2)
    bundle = build_rep(g)
    n = g.size
    # (i) the kernel of the class form at m = 0 is the zero-sum hyperplane
    kernel = kernel_at(g, 0, 0)
    if len(kernel) != n - 1 or any(sum(v) != 0 for v in kernel):
        return False
    # (ii) t_s at m = 0 agrees with the permutation action on that hyperplane,
    # which the e_u - e_0 span: columns u and 0 of N_s - s are equal
    for s in range(n):
        minus_s = {u: {v: -1} for u, v in enumerate(g.conj_table[s])}
        diff = _sparse_sum((bundle.n_cols[s], minus_s))
        if any(diff.get(u) != diff.get(0) for u in range(1, n)):
            return False
    # (iii) chi_U(w) = #commuting reflections - 1 equals the character sum.
    # The group acts on the e root lines by the conjugation-table rows, and
    # for odd e faithfully (its centre is trivial), so its 2e elements are
    # the closure of those permutations, and w commutes with s_u exactly
    # when w fixes u.  Line u is (1, -zeta^-k(u)), read off coordinate 1 of
    # the root array; the rotation diag(zeta^a, zeta^-a) moves every k by 2a,
    # a reflection sends k to c - k for a constant c.
    field, lines = g.field, g.lines
    label = {tuple(-lines.den * c for c in field.power_rows[-k % e]): k for k in range(e)}
    k_of = [label[tuple(c)] for c in lines.x[:, 1].tolist()]
    elements = frontier = {tuple(range(n))}
    while frontier and len(elements) <= 2 * e:
        frontier = {tuple(w[u] for u in row) for w in frontier for row in g.conj_table} - elements
        elements = elements | frontier
    if len(elements) != 2 * e:
        return False
    for w in elements:
        chi_u = sum(1 for u in range(n) if w[u] == u) - 1
        shifts = {(k_of[w[u]] - k_of[u]) % e for u in range(n)}
        if len(shifts) == 1:
            a = shifts.pop() * (e + 1) // 2 % e
            total = sum(
                (
                    field.zeta((k * a) % e) + field.zeta((-k * a) % e)
                    for k in range(1, (e - 1) // 2 + 1)
                ),
                field.zero(),
            )
        elif len({(k_of[w[u]] + k_of[u]) % e for u in range(n)}) == 1:
            total = field.zero()
        else:
            return False
        if total != chi_u:
            return False
    return True
