"""Dense exact matrices over Fraction, CycNum or polynomial scalars."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .cyclotomic import CycNum
from .polynomials import ParamPoly


def _zero_like(x):
    return x - x


def _one_like(x):
    if isinstance(x, CycNum):
        return x.field.one()
    return Fraction(1)


class ExactMatrix:
    """Immutable row-major matrix; scalars must share one ring."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        entries = tuple(entries)
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_rows(cls, rowdata: Sequence[Sequence]) -> ExactMatrix:
        rows = len(rowdata)
        cols = len(rowdata[0])
        flat = []
        for row in rowdata:
            if len(row) != cols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(rows, cols, flat)

    @classmethod
    def identity(cls, n: int, one=Fraction(1)) -> ExactMatrix:
        zero = _zero_like(one)
        return cls(n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __add__(self, other: ExactMatrix) -> ExactMatrix:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return ExactMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: ExactMatrix) -> ExactMatrix:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        return ExactMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> ExactMatrix:
        return ExactMatrix(self.rows, self.cols, [-e for e in self.entries])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in multiplication")
            n, k, m = self.rows, self.cols, other.cols
            a, b = self.entries, other.entries
            out = []
            for i in range(n):
                arow = a[i * k : (i + 1) * k]
                for j in range(m):
                    acc = arow[0] * b[j]
                    for t in range(1, k):
                        av = arow[t]
                        if av:
                            acc = acc + av * b[t * m + j]
                    out.append(acc)
            return ExactMatrix(n, m, out)
        return ExactMatrix(self.rows, self.cols, [e * other for e in self.entries])

    def __rmul__(self, other):
        return ExactMatrix(self.rows, self.cols, [other * e for e in self.entries])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(e) for e in self.row(i)) for i in range(min(self.rows, 6))
        )
        tail = " ..." if self.rows > 6 else ""
        return f"ExactMatrix({self.rows}x{self.cols}: {body}{tail})"


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


def rank_and_kernel(M: ExactMatrix) -> tuple[int, list[list]]:
    """Rank and a kernel basis by exact Gauss-Jordan elimination.

    Scalars must form a field (Fraction or CycNum); int entries are taken
    as Fractions. ParamPoly entries are rejected: substitute a number for m
    first.
    """
    for e in M.entries:
        if isinstance(e, ParamPoly):
            raise TypeError("rank over polynomials is undefined; substitute a number for m first")
    rows = [
        [Fraction(x) if isinstance(x, int) else x for x in M.row(i)] for i in range(M.rows)
    ]
    reduced = _rref(rows)
    pivots = [next(c for c, x in enumerate(row) if x) for row in reduced]
    one = _one_like(rows[0][0])
    zero = _zero_like(rows[0][0])
    kernel = []
    for free in range(M.cols):
        if free in pivots:
            continue
        v = [zero] * M.cols
        v[free] = one
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        kernel.append(v)
    return len(reduced), kernel


def _berkowitz(rows: list[list]) -> list:
    """Coefficients of det(xI - A), monic, descending; division-free."""
    n = len(rows)
    poly = [rows[0][0] * 0 + 1, -rows[n - 1][n - 1]]
    for k in range(n - 2, -1, -1):
        m = n - k
        a = rows[k][k]
        R = rows[k][k + 1 :]
        C = [rows[i][k] for i in range(k + 1, n)]
        sub = [rows[i][k + 1 :] for i in range(k + 1, n)]
        t = [poly[0] * 0 + 1, -a]
        v = C
        for step in range(m - 1):
            acc = R[0] * v[0]
            for i in range(1, len(R)):
                acc += R[i] * v[i]
            t.append(-acc)
            if step < m - 2:
                v = [
                    sum(sub[i][j] * v[j] for j in range(len(v)) if sub[i][j])
                    for i in range(len(v))
                ]
        out = []
        for i in range(m + 1):
            acc = None
            lo = max(0, i - m)
            hi = min(i, m - 1)
            for j in range(lo, hi + 1):
                term = t[i - j] * poly[j]
                acc = term if acc is None else acc + term
            out.append(acc)
        poly = out
    return poly


_INT64_LIMIT = 2**63


def _eigenvalue_candidates(a: np.ndarray) -> list[int] | None:
    """Distinct integers near the float64 eigenvalues of symmetric `a`, descending.

    None when some eigenvalue is not within rounding error of an integer.
    """
    lam = np.linalg.eigvalsh(a.astype(np.float64))
    near = np.rint(lam)
    if np.abs(lam - near).max() > 1e-6 * max(1.0, float(np.abs(lam).max())):
        return None
    return sorted({int(r) for r in near}, reverse=True)


def integer_spectrum(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, int], ...] | None:
    """Certified ((eigenvalue, multiplicity), ...) of a square integer matrix, roots descending.

    Floats propose, exact decides. Float64 eigenvalues round to candidates
    r_0 > ... > r_{k-1}, and P_k = 0 is proven in int64, where P_j =
    prod_{l < j} (A - r_l I). Every partial sum of these products is at most
    prod max(||A - r_l I||_inf, 1), which is checked below 2^63 first. A
    squarefree annihilating polynomial makes A diagonalizable, so
    det(xI - A) = prod (x - r_i)^k_i, and the k_i solve the Vandermonde
    system sum_i k_i q_j(r_i) = tr P_j, j < k, written in the Newton basis
    q_j(x) = prod_{l < j} (x - r_l), exactly. Returns None when the
    proposal, the bound or the certificate fails; `char_poly` then decides.
    """
    n = len(rows)
    off = [sum(abs(x) for x in row) - abs(row[i]) for i, row in enumerate(rows)]

    def norm(shift: int) -> int:  # ||A - shift*I||_inf in Python ints
        return max(off[i] + abs(rows[i][i] - shift) for i in range(n))

    if norm(0) >= _INT64_LIMIT:
        return None
    a = np.array(rows, dtype=np.int64)
    roots = _eigenvalue_candidates(a)
    if roots is None:
        return None
    bound = 1
    for r in roots:
        bound *= max(norm(r), 1)
    if bound >= _INT64_LIMIT or max(roots[0], -roots[-1]) >= _INT64_LIMIT:
        return None
    eye = np.eye(n, dtype=np.int64)
    prefix = [eye, a - roots[0] * eye]
    for r in roots[1:]:
        prefix.append(prefix[-1] @ (a - r * eye))
    if prefix[-1].any():
        return None
    # q_j(r_i) = 0 for i < j makes the system triangular: solve from the top;
    # its j = 0 row, q_0 = 1, is sum_i k_i = tr I = n
    traces = [sum(int(x) for x in p.diagonal()) for p in prefix[:-1]]
    mults = [0] * len(roots)
    for j in reversed(range(len(roots))):
        q = [1] * len(roots)  # q_j(r_i)
        for i, r in enumerate(roots):
            for s in roots[:j]:
                q[i] *= r - s
        mult = Fraction(traces[j] - sum(mults[i] * q[i] for i in range(j + 1, len(roots))), q[j])
        if mult.denominator != 1 or mult < 0:
            return None
        mults[j] = int(mult)
    return tuple((r, k) for r, k in zip(roots, mults) if k)


def char_poly(M: ExactMatrix) -> ParamPoly:
    """det(M - m*I) as a polynomial in m, leading coefficient (-1)^dim."""
    if M.rows != M.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    for e in M.entries:
        if not isinstance(e, (int, Fraction)):
            raise TypeError("char_poly expects rational entries")
    n = M.rows
    if all(isinstance(e, int) or e.denominator == 1 for e in M.entries):
        rows = [[int(e) for e in M.row(i)] for i in range(n)]
    else:
        rows = [[Fraction(e) for e in M.row(i)] for i in range(n)]
    asc = list(reversed(_berkowitz(rows)))
    if n % 2:
        asc = [-c for c in asc]
    return ParamPoly(asc)
