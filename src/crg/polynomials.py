"""Polynomials in the parameter m over Q, and integer root extraction."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


class ParamPoly:
    """Rational-coefficient polynomial in m, ascending order, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()) -> None:
        c = [Fraction(x) for x in coeffs]
        while c and not c[-1]:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ParamPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _coerce(self, other: object) -> ParamPoly | None:
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly((other,))
        return None

    def __add__(self, other: object) -> ParamPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ParamPoly(out)

    __radd__ = __add__

    def __neg__(self) -> ParamPoly:
        return ParamPoly([-c for c in self.coeffs])

    def __sub__(self, other: object) -> ParamPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> ParamPoly:
        return -(self - other)

    def __mul__(self, other: object) -> ParamPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return ParamPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return ParamPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> ParamPoly:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return ParamPoly([c / other for c in self.coeffs])
        return NotImplemented

    def __pow__(self, k: int) -> ParamPoly:
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = ParamPoly((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, m0):
        """Evaluate by Horner; works over any ring the coefficients embed in."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * m0 + c
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ParamPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ParamPoly((other,)).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            mag = abs(c)
            if i == 0:
                body = f"{mag}"
            else:
                var = "m" if i == 1 else f"m^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


M = ParamPoly((0, 1))


def _int_nth_root(x: int, k: int) -> int:
    """Floor of the k-th root of a non-negative integer."""
    if x < 0 or k < 1:
        raise ValueError("nth root needs x >= 0, k >= 1")
    if x < 2 or k == 1:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r ** k > x:
        r -= 1
    return r


def _root_bound(monic: Sequence[int]) -> int:
    """Fujiwara bound on root magnitude of a monic integer polynomial."""
    n = len(monic) - 1
    best = 0
    for k in range(1, n + 1):
        a = abs(monic[n - k])
        if a:
            best = max(best, _int_nth_root(a, k) + 1)
    return 2 * best


def _deflate(coeffs: list[Fraction], r: int) -> list[Fraction] | None:
    """Synthetic division by (m - r); None when r is not a root."""
    out: list[Fraction] = []
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * r + c
        out.append(acc)
    if acc:
        return None
    out.pop()
    out.reverse()
    return out


_SWEEP_CAP = 100_000


def integer_roots(p: ParamPoly) -> tuple[tuple[tuple[int, int], ...], ParamPoly, int]:
    """Split off all integer roots of p.

    Returns (factors, remainder, sign) with factors sorted by descending
    root, remainder monic without integer roots, and
    p = sign * remainder * prod (m - root)^multiplicity exactly.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.leading == 1:
        sign = 1
        work = list(p.coeffs)
    elif p.leading == -1:
        sign = -1
        work = [-c for c in p.coeffs]
    else:
        raise ValueError("leading coefficient must be 1 or -1")

    mults: dict[int, int] = {}
    while not work[0]:
        work.pop(0)
        mults[0] = mults.get(0, 0) + 1

    if len(work) > 1:
        den = 1
        for c in work:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in work]
        trailing = abs(ints[0])
        # the monic-form bound stays valid when the cleared leading term is den > 1
        bound = _root_bound(ints)

        def candidates():
            for r in range(1, min(bound, _SWEEP_CAP) + 1):
                if trailing % r == 0:
                    yield r
            if bound > _SWEEP_CAP:
                from sympy import divisors

                for r in divisors(trailing):
                    if _SWEEP_CAP < r <= bound:
                        yield r

        for r in candidates():
            if len(work) == 1:
                break
            for root in (r, -r):
                while True:
                    quo = _deflate(work, root)
                    if quo is None:
                        break
                    work = quo
                    mults[root] = mults.get(root, 0) + 1

    factors = tuple(sorted(mults.items(), key=lambda kv: -kv[0]))
    return factors, ParamPoly(work), sign
