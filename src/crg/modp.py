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
# the next prime down, where a lift that fails at _P is tried again
_P2 = 16777199
_LIMB = 4096
_MAX_WIDTH = 2**17
# Rows reduced against a span, or checked against an annihilator, by one product.
_BLOCK = 64

# seeds the random elements that Norton's test draws
_NORTON_SEED = 16


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


def _norton(x: np.ndarray, phi: np.ndarray, pair: list[np.ndarray], p: int) -> bool:
    """Norton's test mod p with the rank-one theta = x (x) phi, theta v = phi(v) x:
    the algebra A that holds theta and both matrices of `pair` is all of
    End(F_p^D).

    The test passes when x spins to F_p^D under the pair and the row vector
    phi spins to every row vector under its transposes (Parker 1984; Holt and
    Rees 1994):

    - Irreducible: let U be a nonzero submodule.  If phi(U) != 0, then x lies
      in theta U, which lies in U, so U holds A x = F_p^D.  Otherwise phi a
      vanishes on U for every a in A, since a U lies in U, so the spin of phi
      lies in the annihilator of U.  That spin is every row vector, so U = 0,
      which is not the case.
    - Absolutely irreducible: an endomorphism f of the module commutes with
      theta, so phi(v) f x = phi(f v) x for every v.  phi is not zero, so f
      is a scalar c on x, and f - c kills A x = F_p^D.  So End_A = F_p, and
      A = End(F_p^D) by Burnside.

    Any algebra that holds theta and the pair, such as that of the caller's
    generators, is then full as well.  A failed test proves nothing: the
    caller falls back to the closure.
    """
    # a row vector times g^T is g times the column
    return _spins([g.T for g in pair], x, p) and _spins(pair, phi, p)


def _combination(gens: np.ndarray, rng: Random, p: int) -> np.ndarray:
    """sum_x c_x gens[x] mod p, with seeded random c_x, by one product."""
    coeffs = np.array([[rng.randrange(1, p) for _ in gens]], dtype=np.float64)
    return _mulmod(coeffs, gens.reshape(len(gens), -1), p).reshape(gens.shape[1:])


def _spins(gens: list[np.ndarray], vec: np.ndarray, p: int) -> bool:
    """Do the words vec g_1 ... g_j span every row vector, mod p?"""
    return _grow_mod_span(gens, len(vec), p, vec[None]).dim == len(vec)
