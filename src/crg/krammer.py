"""Type-A Krammer matrices, evaluated at points (q, t).

sigma_k acts on the basis x_ij, 1 <= i < j <= n, by the seven displayed
cases of `KrammerModel.sigma_at`. Every entry is a polynomial of degree at
most n in q and at most 1 in t, so a product of up to three generators has
degree at most 3n in q and 3 in t. The far-commutation and braid identities
are checked at the one point q = X = 2^9, t = X^(3n+1), in Python ints,
which proves them for all q and t:

- In each column of sigma_k the 1-norms of the entries' coefficient vectors
  sum to at most 5 (the seven cases give 1, 3, 3, 3, 3, 5 and 1).
- That column norm is submultiplicative, so each coefficient of a
  difference of two products of at most three generators is at most
  2 * 5^3 = 250 < X/2.
- The coefficient of q^i t^e sits at X^(i + (3n+1) e), and i <= 3n keeps
  these exponents distinct. So the difference's value at the point is a
  balanced base-X number whose digits are its coefficients, and it is zero
  only if every coefficient is.
"""

from __future__ import annotations

from .cyclotomic import cyclotomic_field
from .groups import Refused
from .rep import Sparse, _sparse_mul


class KrammerModel:
    """The braid generators sigma_1..sigma_{n-1} on the x_ij basis."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.pairs = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
        self._index = {pair: col for col, pair in enumerate(self.pairs)}

    @property
    def dimension(self) -> int:
        return len(self.pairs)

    def sigma_at(self, k: int, q, t, one=1) -> Sparse:
        """Sparse columns of sigma_k at (q, t); one is the unit of their ring."""
        cols: Sparse = {}
        for col, (i, j) in enumerate(self.pairs):
            if (i, j) == (k, k + 1):
                entries = {(k, k + 1): t * q * q}
            elif j == k:
                entries = {(i, k): one - q, (i, k + 1): q}
            elif i < k and j == k + 1:
                entries = {(i, k): one, (k, k + 1): t * q ** (k - i + 1) * (q - one)}
            elif i == k and j > k + 1:
                entries = {(k, k + 1): t * q * (q - one), (k + 1, j): q}
            elif i == k + 1:
                entries = {(k, j): one, (k + 1, j): one - q}
            elif i < k and j > k + 1:
                entries = {(i, j): one, (k, k + 1): t * q ** (k - i) * (q - one) * (q - one)}
            else:
                entries = {(i, j): one}
            cols[col] = {self._index[pair]: v for pair, v in entries.items() if v}
        return cols


def build_krammer(n: int) -> KrammerModel:
    if n < 2:
        raise Refused("need at least two strands")
    return KrammerModel(n)


def check_braid_relations(model: KrammerModel) -> bool:
    """Far-commutation and braid identities among the generators, for all q and t."""
    n = model.n
    q = 2**9
    sigma = [model.sigma_at(k, q, q ** (3 * n + 1)) for k in range(1, n)]
    for i, a in enumerate(sigma):
        for b in sigma[i + 2:]:
            if _sparse_mul(a, b) != _sparse_mul(b, a):
                return False
    for a, b in zip(sigma, sigma[1:]):
        ab = _sparse_mul(a, b)
        if _sparse_mul(ab, a) != _sparse_mul(b, ab):
            return False
    return True


def cubic_specialization_check(model: KrammerModel) -> bool:
    """At q = -zeta_3, t = 1 each generator satisfies sigma^3 = 1."""
    field = cyclotomic_field(3)
    one = field.one()
    eye = {u: {u: one} for u in range(model.dimension)}
    for k in range(1, model.n):
        sigma = model.sigma_at(k, -field.zeta(1), one, one)
        if _sparse_mul(sigma, _sparse_mul(sigma, sigma)) != eye:
            return False
    return True
