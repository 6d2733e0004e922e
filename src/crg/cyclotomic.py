"""Exact arithmetic in the cyclotomic fields Q(zeta_n).

Elements live in the power basis 1, zeta, ..., zeta^(phi(n)-1), reduced
modulo the n-th cyclotomic polynomial.  The canonical form is an integer
coefficient vector over a single positive denominator with overall gcd 1,
so equality and hashing are structural.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence


def totient(n: int) -> int:
    """Euler phi function."""
    if n < 1:
        raise ValueError("totient of non-positive integer")
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _int_poly_div_exact(a: list[int], b: Sequence[int]) -> list[int]:
    """Divide a by monic b in Z[x], both ascending; the division must be exact."""
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("conductor must be positive")
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in range(1, n):
        if n % d == 0:
            num = _int_poly_div_exact(num, cyclotomic_int_coeffs(d))
    return tuple(num)


class CyclotomicField:
    """Reduction tables for one conductor; build through cyclotomic_field()."""

    def __init__(self, n: int) -> None:
        phi = cyclotomic_int_coeffs(n)
        self.n = n
        self.degree = len(phi) - 1
        d = self.degree
        top = max(2 * d - 1, n) + 1
        rows: list[tuple[int, ...]] = [
            tuple(1 if i == k else 0 for i in range(d)) for k in range(d)
        ]
        for _ in range(d, top):
            prev = rows[-1]
            lead = prev[d - 1]
            shifted = (0,) + prev[: d - 1]
            rows.append(tuple(shifted[i] - lead * phi[i] for i in range(d)))
        self.power_rows = tuple(rows)

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Fold integer coefficients of powers zeta^k into the power basis."""
        d = self.degree
        out = list(vec[:d])
        out.extend([0] * (d - len(out)))
        for k in range(d, len(vec)):
            c = vec[k]
            if c:
                row = self.power_rows[k]
                for i in range(d):
                    out[i] += c * row[i]
        return tuple(out)

    def zero(self) -> CycNum:
        return CycNum(self, (0,) * self.degree, 1)

    def one(self) -> CycNum:
        return self.zeta(0)

    def zeta(self, k: int = 1) -> CycNum:
        """The root of unity zeta_n^k as a field element."""
        return CycNum(self, self.power_rows[k % self.n], 1)

    def from_rational(self, value: Fraction | int) -> CycNum:
        q = Fraction(value)
        num = (q.numerator,) + (0,) * (self.degree - 1)
        return CycNum(self, num, q.denominator)

    def __repr__(self) -> str:
        return f"CyclotomicField({self.n})"


@lru_cache(maxsize=None)
def cyclotomic_field(n: int) -> CyclotomicField:
    return CyclotomicField(n)


class CycNum:
    """One element of Q(zeta_n); immutable, hashable, operator-overloaded."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CyclotomicField, num: Sequence[int], den: int = 1) -> None:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = [-c for c in num]
        g = gcd(den, *num) if any(num) else den
        if g > 1:
            den //= g
            num = [c // g for c in num]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CycNum is immutable")

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def _coerce(self, other: object) -> CycNum | None:
        if isinstance(other, CycNum):
            if other.field is not self.field:
                raise ValueError("mixed cyclotomic conductors")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other: object) -> CycNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        num = [a * db + b * da for a, b in zip(self.num, o.num)]
        return CycNum(self.field, num, da * db)

    __radd__ = __add__

    def __neg__(self) -> CycNum:
        return CycNum(self.field, [-c for c in self.num], self.den)

    def __sub__(self, other: object) -> CycNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> CycNum:
        return -(self - other)

    def __mul__(self, other: object) -> CycNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        d = self.field.degree
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return CycNum(self.field, self.field.reduce(conv), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> CycNum:
        """Multiplicative inverse: the product of the other Galois conjugates
        over the field norm, which is rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n = self.field.n
        others = self.field.one()
        for k in range(2, n):
            if gcd(k, n) == 1:
                others = others * self.galois(k)
        return others / (self * others).as_rational()

    def __truediv__(self, other: object) -> CycNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational():
            q = o.as_rational()
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return CycNum(self.field, [c * q.denominator for c in self.num], self.den * q.numerator)
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> CycNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int) -> CycNum:
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def galois(self, k: int) -> CycNum:
        """The field automorphism zeta -> zeta^k, for k prime to n."""
        f = self.field
        out = [0] * f.degree
        for i, c in enumerate(self.num):
            if c:
                row = f.power_rows[i * k % f.n]
                for j in range(f.degree):
                    out[j] += c * row[j]
        return CycNum(f, out, self.den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycNum):
            return (
                self.field is other.field
                and self.num == other.num
                and self.den == other.den
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            # equal to the hash of the int or Fraction this element equals
            if self.den == 1:
                return hash(self.num[0])
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field.n, self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.num):
            if c:
                q = Fraction(c, self.den)
                terms.append(f"{q}" if i == 0 else f"{q}*z{i}" if i > 1 else f"{q}*z")
        body = " + ".join(terms) if terms else "0"
        return f"CycNum({self.field.n}: {body})"
