"""Class bilinear forms, their determinants, and closed-form comparisons."""

from __future__ import annotations

from .groups import ReflectionGroupData, build_series, class_stats
from .matrices import char_poly, integer_spectrum
from .polynomials import M, ParamPoly, integer_roots


class Discriminant:
    """Factored det(A_c - m*I): sign * remainder * prod (m-r)^k."""

    def __init__(self, sign: int, factors: tuple[tuple[int, int], ...], remainder: ParamPoly) -> None:
        self.sign = sign
        self.factors = factors
        self.remainder = remainder

    def poly(self) -> ParamPoly:
        p = ParamPoly((self.sign,)) * self.remainder
        for root, mult in self.factors:
            p = p * (M - root) ** mult
        return p

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Discriminant):
            return NotImplemented
        return (
            self.sign == other.sign
            and self.factors == other.factors
            and self.remainder == other.remainder
        )

    def __hash__(self) -> int:
        return hash((self.sign, self.factors, self.remainder))

    def __repr__(self) -> str:
        return f"Discriminant(sign={self.sign}, factors={self.factors}, remainder={self.remainder!s})"


def _gram_rows(g: ReflectionGroupData, c: int) -> list[list[int]]:
    """A_c: diagonal 1, off-diagonal alpha(s, u), rows and columns in class order."""
    members = g.classes[c]
    return [[1 if s == u else g.alpha[s][u] for u in members] for s in members]


def discriminant(g: ReflectionGroupData, c: int) -> Discriminant:
    return discriminant_of(_gram_rows(g, c))


def discriminant_of(rows: list[list[int]]) -> Discriminant:
    """Factored det(A - m*I) of an integer matrix: its certified integer
    spectrum when there is one, else the Berkowitz characteristic polynomial."""
    factors = integer_spectrum(rows)
    if factors is not None:
        return Discriminant((-1) ** len(rows), factors, ParamPoly((1,)))
    return factor_discriminant(char_poly(rows), len(rows))


def factor_discriminant(poly: ParamPoly, size: int) -> Discriminant:
    """Factor the characteristic polynomial of A_c for a class of `size` members."""
    factors, remainder, sign = integer_roots(poly)
    disc = Discriminant(sign, factors, remainder)
    if poly.degree != size or disc.poly() != poly:
        raise ArithmeticError("factored discriminant does not expand back to its polynomial")
    return disc


def check_n_c(g: ReflectionGroupData, c: int, disc: Discriminant | None = None) -> bool:
    """True when N(c) is a simple root of the determinant dominating all others.

    `disc` is discriminant(g, c) when the caller already has it.
    """
    n_c, _ = class_stats(g, c)
    if disc is None:
        disc = discriminant(g, c)
    mult = dict(disc.factors).get(n_c, 0)
    if mult != 1:
        return False
    if any(root >= n_c for root, _ in disc.factors if root != n_c):
        return False
    if disc.remainder.degree > 0:
        coeffs = disc.remainder.coeffs
        cauchy = 1 + max(abs(a) for a in coeffs[:-1])
        if cauchy >= n_c:
            return False
    return True


_A_FORMULA = "a"
_B_DIAG = "b_diag"
_B_TRANS = "b_trans"
_D_FORMULA = "d"
_I_ODD = "i_odd"
_I_EVEN = "i_even"


def _merge_factors(parts: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    merged: dict[int, int] = {}
    for root, mult in parts:
        if mult:
            merged[root] = merged.get(root, 0) + mult
    return tuple(sorted(merged.items(), key=lambda t: -t[0]))


def _closed_form(kind: str, n: int) -> tuple[tuple[tuple[int, int], ...], int | None]:
    """Expected factor multiset and exact sign (None when only known up to sign)."""
    if kind == _A_FORMULA:
        return _merge_factors([(2 * n - 3, 1), (n - 3, n - 1), (-1, n * (n - 3) // 2)]), None
    if kind == _B_DIAG:
        return _merge_factors([(2 * n - 1, 1), (-1, n - 1)]), (-1) ** n
    if kind == _B_TRANS:
        return _merge_factors([(4 * n - 5, 1), (2 * n - 5, n - 1), (-1, n * (n - 2))]), 1
    if kind == _D_FORMULA:
        return (
            _merge_factors(
                [(4 * n - 7, 1), (1, n * (n - 1) // 2), (-3, n * (n - 3) // 2), (2 * n - 7, n - 1)]
            ),
            None,
        )
    if kind == _I_ODD:
        return _merge_factors([(n, 1), (0, n - 1)]), (-1) ** n
    if kind == _I_EVEN:
        return _merge_factors([(n - 1, 1), (-1, n // 2 - 1)]), (-1) ** (n // 2)
    raise ValueError(f"unknown closed form {kind!r}")


def conjecture_scan(e_max: int, r_max: int, size_cap: int = 90) -> dict:
    """Test the predicted determinant of G(e,e,r), odd e, against computation."""
    cases = []
    for e in range(3, e_max + 1, 2):
        for r in range(3, r_max + 1):
            size = e * r * (r - 1) // 2
            if size > size_cap:
                continue
            expected = _merge_factors(
                [
                    ((2 * r - 3) * e, 1),
                    ((r - 3) * e, r - 1),
                    (0, (e - 1) * r * (r - 1) // 2),
                    (-e, r * (r - 3) // 2),
                ]
            )
            g = build_series(e, e, r)
            assert len(g.classes) == 1, "odd e should give a single reflection class"
            disc = discriminant(g, 0)
            match = disc.factors == expected and disc.remainder.degree == 0
            cases.append(
                {
                    "e": e,
                    "r": r,
                    "reflections": size,
                    "expected_factors": list(expected),
                    "computed_factors": list(disc.factors),
                    "computed_sign": disc.sign,
                    "match": match,
                }
            )
    return {"cases": cases, "all_match": all(case["match"] for case in cases)}
