"""Linear algebra mod a prime p: row spans in reduced echelon form, closures
and spins of words in matrices, and Norton's irreducibility test."""

from __future__ import annotations

from random import Random

import numpy as np

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

# seeds the random elements that Norton's test draws
_NORTON_SEED = 16
# random splittings of the product of the linear factors of a minimal polynomial
_NORTON_SPLITS = 32


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


class _SpanGrowth:
    """BFS closure mod p of the words seed * g_1 * ... * g_j, one level per `_advance`.

    The seed defaults to the n x n identity, whose words span the matrix
    algebra of the generators.  A seed of one row spins that row vector
    under right multiplication.
    """

    def __init__(
        self, gens: list[np.ndarray], n: int, p: int, seed: np.ndarray | None = None
    ) -> None:
        self.n = n
        self.p = p
        self.count = len(gens)
        # word @ [g_1 | ... | g_k] holds the products word * g_i side by side
        self.gens = np.hstack(gens).astype(np.float64)
        seed = np.eye(n) if seed is None else seed
        self.span = _ModSpan(seed.size, p)
        self.span.add_block(seed.reshape(1, -1))
        self.span.end_level()
        self.frontier = seed[None]

    def _advance(self) -> bool:
        if not len(self.frontier):
            return False
        n, k = self.n, self.count
        rows, width = self.frontier.shape[1], self.span.width
        step = max(1, _BLOCK // k)
        taken = [np.zeros((0, width))]
        for start in range(0, len(self.frontier), step):
            if self.span.dim == width:  # full: no later word can join
                break
            words = self.frontier[start:start + step]
            prods = _mulmod(words.reshape(-1, n), self.gens, self.p)
            # word-major, generator-minor: the order of one-at-a-time insertion
            prods = prods.reshape(len(words), rows, k, n).swapaxes(1, 2).reshape(-1, width)
            taken.append(prods[self.span.add_block(prods)])
        self.span.end_level()
        self.frontier = np.concatenate(taken).reshape(-1, rows, n)
        return True


def _grow_mod_span(
    gens: list[np.ndarray], n: int, p: int, seed: np.ndarray | None = None
) -> _ModSpan:
    growth = _SpanGrowth(gens, n, p, seed)
    while growth._advance():
        pass
    return growth.span


def _norton(theta: np.ndarray, v: np.ndarray, pair: list[np.ndarray], p: int) -> bool:
    """Norton's test mod p: the algebra A that holds theta and both matrices of
    `pair` is all of End(F_p^D).

    v spans ker theta.  The test passes when ker theta^T is one line, spanned
    by w, v spins to F_p^D under the pair and w spins to F_p^D under its
    transposes (Parker 1984; Holt and Rees 1994):

    - Irreducible: let U be a proper nonzero submodule.  If theta is singular
      on U, v lies in U, so A v = F_p^D lies in U.  Otherwise theta maps U
      onto U, so the image of theta holds U, and w, which annihilates that
      image, annihilates U.  The annihilator of U is a proper subspace that
      the transposes keep, so A^T w lies in it.  Either way a spin falls short.
    - Absolutely irreducible: an endomorphism f of the module commutes with
      theta, so f v = c v, and f - c kills A v = F_p^D.  So End_A = F_p,
      and A = End(F_p^D) by Burnside.

    Any algebra that holds theta and the pair, such as that of the caller's
    generators, is then full as well.  A failed test proves nothing: the
    caller falls back to the closure.
    """
    w = _kernel_line(theta.T, p)
    # a row vector times g^T is g times the column
    return w is not None and _spins([g.T for g in pair], v, p) and _spins(pair, w, p)


def _combination(gens: np.ndarray, rng: Random, p: int) -> np.ndarray:
    """sum_x c_x gens[x] mod p, with seeded random c_x, by one product."""
    coeffs = np.array([[rng.randrange(1, p) for _ in gens]], dtype=np.float64)
    return _mulmod(coeffs, gens.reshape(len(gens), -1), p).reshape(gens.shape[1:])


def _kernel_line(mat: np.ndarray, p: int) -> np.ndarray | None:
    """The vector spanning ker `mat` mod p when its nullity is exactly 1, else None.

    With the reduced echelon rows R of mat and its one free column f, the
    kernel is spanned by e_f - sum_i R[i, f] e_{piv_i}.
    """
    n = len(mat)
    _, rows, pivots = _echelon(mat, p)
    if len(pivots) != n - 1:
        return None
    v = np.ones(n)  # 1 on the free column; np.setdiff1d would import numpy.ma
    v[pivots] = -rows[:, n * (n - 1) // 2 - sum(pivots)] % p
    return v


def _spins(gens: list[np.ndarray], vec: np.ndarray, p: int) -> bool:
    """Do the words vec g_1 ... g_j span every row vector, mod p?"""
    return _grow_mod_span(gens, len(vec), p, vec[None]).dim == len(vec)


def _min_poly(theta: np.ndarray, u: np.ndarray, p: int) -> np.ndarray:
    """The monic minimal polynomial of u under theta mod p, lowest coefficient first.

    The Krylov vectors u, theta u, ... are independent up to the first, of
    index j, that depends on those before it.  One elimination of the rows
    (theta^i u | e_i), with e_i in reversed order, reduces row j to (0 | f):
    f(theta) u = 0, and its pivot on e_j makes f monic.
    """
    n = len(u)
    krylov = np.empty((n + 1, n))
    krylov[0] = u
    for i in range(n):  # as rows: (theta u)^T = u^T theta^T
        krylov[i + 1] = _mulmod(krylov[i:i + 1], theta.T, p)
    _, rows, pivots = _echelon(np.hstack([krylov, np.fliplr(np.eye(n + 1))]), p)
    j = next(i for i, piv in enumerate(pivots) if piv >= n)
    return rows[j, n:][::-1][: j + 1].astype(np.int64)


# Polynomials mod p are int64 arrays, lowest coefficient first, with no
# trailing zeros.  A product of two coefficients is below p^2 < 2^48, so a
# convolution of at most 2^15 terms stays below 2^63.


def _a_root(f: np.ndarray, p: int, rng: Random) -> int | None:
    """A root of f in F_p, or None if it has none.

    g = gcd(f, x^p - x) is the product of the distinct x - lam over the roots
    lam of f.  While g is not linear, gcd(g, (x + delta)^((p-1)/2) - 1) for a
    random delta splits it (Cantor and Zassenhaus) with probability about 1/2.
    """
    if len(f) < 2:
        return None
    g = _poly_gcd(f, _poly_rem(_minus(_poly_pow(_X, p, f, p), _X), f, p), p)
    for _ in range(_NORTON_SPLITS):
        if len(g) <= 2:
            break
        half = _poly_pow(np.array([rng.randrange(p), 1]), (p - 1) // 2, g, p)
        h = _poly_gcd(g, _poly_rem(_minus(half, _ONE), g, p), p)
        if len(h) > 1:
            g = h
    return int(-g[0] % p) if len(g) == 2 else None


_ONE = np.array([1], dtype=np.int64)
_X = np.array([0, 1], dtype=np.int64)


def _minus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(max(len(a), len(b)), dtype=np.int64)
    out[: len(a)] += a
    out[: len(b)] -= b
    return out


def _poly_pow(base: np.ndarray, e: int, f: np.ndarray, p: int) -> np.ndarray:
    """base^e mod the monic f, mod p, by square and multiply."""
    out = _ONE
    for bit in bin(e)[2:]:
        out = _poly_rem(np.convolve(out, out), f, p) if len(out) else out
        if bit == "1" and len(out):
            out = _poly_rem(np.convolve(out, base), f, p)
    return out


def _poly_rem(a: np.ndarray, f: np.ndarray, p: int) -> np.ndarray:
    """a mod the monic f, mod p."""
    a = a % p
    k = len(f) - 1
    for i in range(len(a) - 1, k - 1, -1):
        if a[i]:
            a[i - k:i + 1] = (a[i - k:i + 1] - a[i] * f) % p
    nonzero = np.flatnonzero(a[:k])
    return a[: nonzero[-1] + 1 if nonzero.size else 0]


def _poly_gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The monic gcd of a and b mod p; a is nonzero."""
    while len(b):
        a, b = b, _poly_rem(a, _monic(b, p), p)
    return _monic(a, p)


def _monic(a: np.ndarray, p: int) -> np.ndarray:
    return a * pow(int(a[-1]), -1, p) % p
