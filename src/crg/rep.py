"""The infinitesimal representation on the span of the reflections.

Matrices act on basis vectors v_u indexed by reflections:
t_s.v_u = v_{sus} - alpha(s,u) v_s for u != s, and t_s.v_s = m v_s.
So t_s(m) = P_s - e_s rho_s(m)^T, where P_s is the permutation matrix of
u -> sus, row s of the conjugation table C, which fixes s, and rho_s(m) is
row s of alpha with 1 - m at s. The representation is stored as the two
integer arrays C and rho = alpha with 1 on the diagonal, and each t_s is
read from them as a dense array when a check needs it.

Every entry of t_s has degree at most 1 in m. A product of k such matrices
has degree at most k, and a nonzero polynomial of degree d has at most d
roots, so an identity of degree at most d in m holds for all m once it
holds exactly at the d + 1 integer points m = 0..d. At a rational point
m = a/b the integer matrix b t_s(a/b) = b P_s - e_s (b rho_s - a e_s)^T
stands in for t_s.

Each check bounds, in Python ints, every entry and partial sum of its
matrix products. Below 2^53 the products run in float64, which BLAS sums
exactly (`groups._blas_dtype`), and on Python ints otherwise.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .arrangement import FlatTable, codim2_flats, parabolic_reflections
from .groups import ReflectionGroupData, Refused, _blas_dtype, build_series, class_stats, k_c
from .matrices import ExactMatrix


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
    """The conjugation table C and rho = alpha with 1 on the diagonal, as
    integer arrays; P_s and b t_s(a/b) are read from them on demand."""

    def __init__(self, group: ReflectionGroupData, alpha=None) -> None:
        self.group = group
        self.alpha = group.alpha if alpha is None else alpha
        self.conj = np.array(group.conj_table)
        try:
            rho = np.array(self.alpha, dtype=np.int64)
        except OverflowError:  # an alpha beyond int64 stays in Python ints
            rho = np.array(self.alpha, dtype=object)
        rho[np.diag_indices(len(rho))] = 1
        self.rho = rho
        self.top = max(int(rho.max()), -int(rho.min()))
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

    def bound(self, a: int, b: int) -> int:
        """A bound on every |entry| of every b t_s(a/b): they are b, b alpha(s, u) and a."""
        return max(abs(a), abs(b) * self.top)

    def scaled_sum(self, ys, a, b: int, dtype) -> np.ndarray:
        """sum_{y in ys} b t_y(a/b) = sum_y (b P_y - e_y (b rho_y - a e_y)^T)."""
        n = self.size
        ys = list(ys)
        out = np.zeros((n, n), dtype)
        cols = np.arange(n)
        for y in ys:
            out[self.conj[y], cols] += b
        out[ys] -= self.rho[ys].astype(dtype) * b
        out[ys, ys] += a
        return out

    def blocks(self, s: int, members, a, b: int, dtype) -> tuple[np.ndarray, np.ndarray]:
        """P_s and b p_s(a/b) = e_s (b rho_s - a e_s)^T on the span of v_u, u
        in members, so that b t_s(a/b) = b P_s - b p_s there."""
        idx = np.asarray(members)
        perm = np.zeros((len(idx), len(idx)), dtype)
        perm[idx[:, None] == self.conj[s, idx]] = 1
        p = np.zeros_like(perm)
        at_s = idx == s
        p[at_s] = self.rho[s, idx].astype(dtype) * b
        p[at_s, at_s] -= a
        return perm, p

    def t_block(self, s: int, members, m0) -> ExactMatrix:
        """Restriction of t_s(m0) = P_s - e_s rho_s^T + m0 E_ss to the span
        of v_u, u in members.

        The integer part is built in rho's dtype; its (s, s) entry is 1 - 1
        = 0, where m0 alone is added. Entries lie in the ring of m0: all
        Fractions for a Fraction m0, all ints for an int m0, so later
        products never mix the two types.
        """
        idx = np.asarray(members)
        block = (idx[:, None] == self.conj[s, idx]).astype(self.rho.dtype)
        at_s = idx == s
        block[at_s] -= self.rho[s, idx]
        entries = block.ravel().tolist()
        n = len(idx)
        for k in np.flatnonzero(at_s).tolist():
            entries[k * (n + 1)] += m0
        zero = m0 * 0
        ring = type(zero)
        return ExactMatrix(n, n, [ring(x) if x else zero for x in entries])


def build_rep(g: ReflectionGroupData, alpha=None) -> RepBundle:
    """Assemble the representation; alpha may be overridden for mutation tests."""
    return RepBundle(g, alpha)


def check_integrability(bundle: RepBundle, m0: Fraction | None = None) -> CheckResult:
    """Commutators [sum_{y in Z} t_y, t_x] vanish on every codimension-2 flat.

    With m0 given only that point is checked; None proves it for all m.
    Once equivariance holds, conjugating by w sends the commutator of (Z, x)
    to that of (wZ, wxw), so one (flat, x) pair per W-orbit is checked (route
    "orbits"); otherwise every pair is (route "all flats"). Each orbit is
    checked at its first pair in scan order (`_representative_pairs`), and
    the orbits are met in scan order, so both routes return the same first
    failing (flat_index, x).

    Every entry of b t_y(a/b) is at most E = `bundle.bound(a, b)`, and of
    the sum over Z at most |Z| E, so every entry and partial sum of the two
    products is at most n |Z| E^2.
    """
    # [sum_{y in Z} t_y, t_x] has degree <= 2 in m: m = 0, 1, 2 prove it.
    # At m0 = a/b the integer matrices b t_y(a/b) scale the commutator by
    # b^2 != 0, so they give the same verdict and witness.
    if m0 is None:
        points = ((0, 1), (1, 1), (2, 1))
    else:
        m0 = Fraction(m0)
        points = ((m0.numerator, m0.denominator),)
    n = bundle.size
    table = codim2_flats(bundle.group)
    if check_equivariance(bundle):
        route = "orbits"
        pairs = bundle.memo(("representatives",), lambda: _representative_pairs(bundle, table))
    else:
        route, pairs = "all flats", {idx: flat.members for idx, flat in enumerate(table.flats)}
    for idx, xs in pairs.items():
        members = table.flats[idx].members
        sums = []
        for a, b in points:
            dtype = _blas_dtype(n * len(members) * bundle.bound(a, b) ** 2)
            sums.append((a, b, dtype, bundle.scaled_sum(members, a, b, dtype)))
        for x in xs:
            for a, b, dtype, total in sums:
                t_x = bundle.scaled_sum((x,), a, b, dtype)
                if not np.array_equal(total @ t_x, t_x @ total):
                    return CheckResult(False, (idx, x), route)
    return CheckResult(True, route=route)


def _representative_pairs(bundle: RepBundle, table: FlatTable) -> dict[int, list[int]]:
    """The first (flat index, x) pair of each W-orbit, in scan order, as
    {flat index: [x, ...]}.

    The pairs k = (Z, x) are numbered in scan order, and pair_id[x, y]
    numbers the pair of x and the flat through x and y, so a generator w
    sends k to pair_id[C[w, x], C[w, y]] for any other member y of Z. The
    least pair not yet seen is the first of a new orbit, which a walk along
    the generators' images then marks seen.
    """
    flats = table.flats
    if not flats:
        return {}
    sizes = np.array([len(flat.members) for flat in flats])
    x = np.array([u for flat in flats for u in flat.members])
    f = np.repeat(np.arange(len(flats)), sizes)
    start = (np.cumsum(sizes) - sizes)[f]
    y = np.where(x == x[start], x[start + 1], x[start])
    pair_id = np.zeros((bundle.size, bundle.size), np.intp)
    for j in range(sizes.max()):
        k = np.flatnonzero(sizes[f] > j)
        pair_id[x[k], x[start[k] + j]] = k
    images = [pair_id[row[x], row[y]] for row in bundle.conj[list(bundle.group.generators)]]
    seen = np.zeros(len(x), bool)
    heads: dict[int, list[int]] = {}
    while not seen.all():
        k = int(seen.argmin())
        heads.setdefault(int(f[k]), []).append(int(x[k]))
        seen[k] = True
        frontier = np.array([k])
        while frontier.size:
            frontier = np.concatenate([img[frontier] for img in images])
            frontier = frontier[~seen[frontier]]
            seen[frontier] = True
    return heads


def check_equivariance(bundle: RepBundle) -> CheckResult:
    """Conjugating t_s by the permutation action of w gives t_{wsw}, for all w.

    The m E_ss term moves to m E_{wsw,wsw} by construction, so comparing the
    N_s = t_s(0) alone proves it for all m. Both sides respect products of
    w, so the generators of W prove it; on a failure the scan of all pairs,
    which contains a failing generator, returns the first witness (w, s).
    The result is kept on the bundle, which integrability consults too.
    """
    return bundle.memo(("equivariance",), lambda: _equivariance(bundle))


def _equivariance(bundle: RepBundle) -> CheckResult:
    """The check on the integer arrays C (C[s, u] = sus) and rho, with pi = C[w].

    Column u != s of N_s holds 1 at row C[s, u] and -alpha(s, u) at row s,
    and these rows differ because C[s] is a permutation that fixes s; column
    s is zero. The permutation action of w sends entry (i, u) to (pi(i),
    pi(u)), so it carries N_s to N_{pi(s)} exactly when, for every u != s,

        pi(C[s, u]) = C[pi(s), pi(u)]   and   alpha(s, u) = alpha(pi(s), pi(u)),

    that is pi o C = C[pi, pi] and rho = rho[pi, pi], whose diagonal of ones
    pi maps onto itself, compared row s by row s.
    """
    conj, rho = bundle.conj, bundle.rho

    def failing(w: int) -> np.ndarray:
        pi = conj[w]
        moved = (pi[conj] != conj[pi][:, pi]) | (rho != rho[pi][:, pi])
        return moved.any(1)

    if not any(failing(w).any() for w in bundle.group.generators):
        return CheckResult(True)
    for w in range(bundle.size):  # reached only on a failure, which a generator shows
        failed = failing(w)
        if failed.any():
            return CheckResult(False, (w, int(failed.argmax())))


def check_T_scalar(bundle: RepBundle, c: int) -> bool:
    """sum_s t_s acts on the class block as the scalar m - 1 + C(c).

    Summed over s, the rows e_s rho_s(m)^T make rho - m I, so sum_s t_s(m)
    = sum_s P_s - rho + m I. Its m I matches the m of the scalar, so m = 0
    proves the identity for all m, and that sum is taken once per bundle.
    Its entries are at most n + max |rho|, and it takes no product.
    """
    g = bundle.group
    members = g.classes[c]
    _, c_val = class_stats(g, c)
    dtype = _blas_dtype(g.size + bundle.top)
    total = bundle.memo(("T sum",), lambda: bundle.scaled_sum(range(g.size), 0, 1, dtype))
    cols = total[:, members]
    cols[members, np.arange(len(members))] -= c_val - 1
    return not cols.any()


def spectrum_check(bundle: RepBundle, s: int, m0=None) -> bool:
    """t_s has eigenvalues m, -1, 1 with multiplicities 1, k, n - 1 - k, on V
    and on the class block of s, and Ker(t_s + 1) = Ker(s + 1).

    Proven for all m != +-1 unless m0 = -1, where m and -1 collide: there the
    multiplicities k + 1 and n - 1 - k of -1 and 1 are checked at that point.
    m0 = 1, where t_s is not semisimple, is refused.

    Every entry of t_s - m, t_s - 1 and t_s + 1 is at most E + 1, with E =
    `bundle.bound(3, 1)`, so every entry and partial sum of a product of
    three of them is at most n^2 (E + 1)^3, and P_s +- 1 and the traces
    stay below that too.
    """
    m0 = None if m0 is None else Fraction(m0)
    if m0 == 1:
        raise Refused("not semisimple")
    g = bundle.group
    n = g.size
    c = g.class_of[s]
    k = sum(k_c(g, d, s) for d in range(len(g.classes)))
    dtype = _blas_dtype(n * n * (bundle.bound(3, 1) + 1) ** 3)
    eye = np.identity(n, dtype)
    # s permutes the basis by u -> sus. Its 2-cycles are the non-commuting
    # pairs that k_c counts, so dim Ker(s + 1) = k and dim Ker(s - 1) = n - k.
    # C[s] is an involution, so P_s X = X[C[s]].
    perm = bundle.conj[s]
    # Each identity has degree <= 3 in m, so m = 0..3 prove it. For m != +-1
    # the cubic (t - m)(t - 1)(t + 1) = 0 makes t diagonalizable with
    # eigenvalues in {m, 1, -1}, on V and on the t-invariant class block (sus
    # lies in the class); tr t and tr t^2 fix the multiplicities (Vandermonde),
    # and (s + 1)(t - m)(t - 1) = 0 and (s - 1)(t + 1) = 0 then make the kernel
    # containments equalities by dimension. At m = -1, (t + 1)(t - 1) = 0 and
    # tr t fix the spectrum.
    for m in (-1,) if m0 == -1 else range(4):
        t = bundle.scaled_sum((s,), m, 1, dtype)
        t_plus = t + eye
        q = (t - m * eye) @ (t - eye)
        zeros = (q,) if m0 == -1 else (q @ t_plus, q[perm] + q, t_plus[perm] - t_plus)
        if any(z.any() for z in zeros):
            return False
        for block, kb in ((range(n), k), (g.classes[c], k_c(g, c, s))):
            diag = list(block)
            if t[diag, diag].sum() != m + len(diag) - 1 - 2 * kb:
                return False
            if (t[diag] * t[:, diag].T).sum() != m * m + len(diag) - 1:  # tr t^2
                return False
    return True


def parabolic_restriction_check(bundle: RepBundle, seed) -> bool:
    """Restriction to a parabolic matches its own rebuilt action; the
    quotient is the bare conjugation permutation.

    The m E_ss term, s inside, restricts to itself, so the N_s = t_s(0)
    alone prove it for all m. For s inside and u != s, column u of N_s is
    e_{C[s, u]} - alpha(s, u) e_s. So the restriction is closed, and the
    quotient is the permutation, exactly when C[s, u] is inside just when u
    is; it is the parabolic's own action when alpha(s, u) equals the
    parabolic's alpha, sum_{y inside} P_y[s, u], for u inside. Then the sum
    over y inside of N_y = P_y - e_y rho_y^T is zero off the diagonal of the
    inside block. Its entries are at most k + max |rho| for k inside.
    """
    g = bundle.group
    inside = list(parabolic_reflections(g, seed))
    if not inside or len(inside) == g.size:
        raise Refused("improper seed")
    mask = np.zeros(g.size, bool)
    mask[inside] = True
    if (mask[bundle.conj[inside]] != mask).any():
        return False
    total = bundle.scaled_sum(inside, 0, 1, _blas_dtype(len(inside) + bundle.top))
    block = total[np.ix_(inside, inside)]
    block[np.diag_indices(len(inside))] = 0
    return not block.any()


DIHEDRAL_CHARACTER_NOTE = (
    "two-dimensional dihedral characters are evaluated on the explicit "
    "matrix model: trace 0 on reflections, zeta^k + zeta^-k on rotations"
)


def dihedral_m0_check(e: int) -> bool:
    """At m = 0 the odd dihedral representation restricted to the zero-sum
    hyperplane is the permutation action, with character sum chi_U = sum chi_k.

    The kernel of the class form at m = 0 is then the zero-sum hyperplane
    without a check of its own: step (i) finds one class and rho = 1, so the
    form is A_0 = J, whose kernel is exactly the vectors of zero sum, of
    dimension n - 1.
    """
    if e % 2 == 0 or e < 3:
        raise Refused("e must be odd and at least 3")
    g = build_series(e, e, 2)
    bundle = build_rep(g)
    n = g.size
    # (i) t_s at m = 0 agrees with the permutation action on the zero-sum
    # hyperplane, which the e_u - e_0 span: the columns of N_s - P_s = -e_s
    # rho_s(0)^T are equal, so every row of rho is constant, and its diagonal is 1
    if len(g.classes) != 1 or (bundle.rho != 1).any():
        return False
    # (ii) chi_U(w) = #commuting reflections - 1 equals the character sum.
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
