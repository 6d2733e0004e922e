from math import comb

import pytest

from crg.cyclotomic import cyclotomic_field
from crg.krammer import (
    KrammerModel,
    build_krammer,
    check_braid_relations,
    cubic_specialization_check,
)
from crg.rep import _shift, _sparse_mul

POINTS = ((2, 3), (5, 7))


def entry(model, k, q, t, row, col):
    idx = {p: i for i, p in enumerate(model.pairs)}
    return model.sigma_at(k, q, t)[idx[col]].get(idx[row], 0)


def column_support(model, k, q, t, col):
    idx = {p: i for i, p in enumerate(model.pairs)}
    return {model.pairs[r] for r in model.sigma_at(k, q, t)[idx[col]]}


def test_two_strands_is_the_scalar_tq2():
    model = build_krammer(2)
    assert model.dimension == 1
    assert model.pairs == ((1, 2),)
    for q, t in POINTS:
        assert model.sigma_at(1, q, t) == {0: {0: t * q * q}}


def test_three_strand_columns_match_the_action():
    model = build_krammer(3)
    for q, t in POINTS:
        assert column_support(model, 1, q, t, (1, 2)) == {(1, 2)}
        assert entry(model, 1, q, t, (1, 2), (1, 2)) == t * q * q

        assert entry(model, 1, q, t, (1, 2), (1, 3)) == t * q * (q - 1)
        assert entry(model, 1, q, t, (2, 3), (1, 3)) == q

        assert entry(model, 1, q, t, (1, 3), (2, 3)) == 1
        assert entry(model, 1, q, t, (2, 3), (2, 3)) == 1 - q

        # j == k and i < k, j == k + 1, for sigma_2
        assert entry(model, 2, q, t, (1, 2), (1, 2)) == 1 - q
        assert entry(model, 2, q, t, (1, 3), (1, 2)) == q
        assert entry(model, 2, q, t, (1, 2), (1, 3)) == 1
        assert entry(model, 2, q, t, (2, 3), (1, 3)) == t * q**2 * (q - 1)


def test_four_strand_nested_and_disjoint_cases():
    model = build_krammer(4)
    for q, t in POINTS:
        assert column_support(model, 2, q, t, (1, 4)) == {(1, 4), (2, 3)}
        assert entry(model, 2, q, t, (1, 4), (1, 4)) == 1
        assert entry(model, 2, q, t, (2, 3), (1, 4)) == t * q * (q - 1) ** 2

        assert column_support(model, 3, q, t, (1, 2)) == {(1, 2)}
        assert entry(model, 3, q, t, (1, 2), (1, 2)) == 1


def test_braid_relations_hold_exactly():
    for n in (2, 3, 4, 5):
        assert check_braid_relations(build_krammer(n)) is True


def test_generators_are_invertible():
    # (sigma - tq^2)(sigma - 1)(sigma + q) has degree <= 3n in q and <= 3 in t,
    # so the grid q = 0..3n, t = 0..3 proves it; its constant term -tq^3 is a
    # unit of Z[q^+-1, t^+-1], so each sigma_k is invertible there.
    for n in (3, 4):
        model = build_krammer(n)
        dim = model.dimension
        for q in range(3 * n + 1):
            for t in range(4):
                for k in range(1, n):
                    sigma = model.sigma_at(k, q, t)
                    left = _sparse_mul(_shift(sigma, -t * q * q, dim), _shift(sigma, -1, dim))
                    assert _sparse_mul(left, _shift(sigma, q, dim)) == {}, (n, k, q, t)


def test_cubic_specialization_gives_order_three():
    for n in (3, 4, 5):
        assert cubic_specialization_check(build_krammer(n)) is True


def test_unspecialized_generator_has_infinite_order():
    model = build_krammer(3)
    s1 = model.sigma_at(1, 2, 3)
    eye = {u: {u: 1} for u in range(3)}
    assert _sparse_mul(s1, _sparse_mul(s1, s1)) != eye


def test_cubic_point_specializes_the_scalar_tq2():
    field = cyclotomic_field(3)
    sigma = build_krammer(2).sigma_at(1, -field.zeta(1), field.one(), field.one())
    assert sigma == {0: {0: field.zeta(2)}}


def test_rejects_fewer_than_two_strands():
    with pytest.raises(ValueError):
        build_krammer(1)


def _balanced_digits(value: int, base: int, count: int) -> list[int]:
    """The digits of value in base `base`, each in [-base/2, base/2), lowest first."""
    digits = []
    for _ in range(count):
        digit = (value + base // 2) % base - base // 2
        digits.append(digit)
        value = (value - digit) // base
    assert value == 0
    return digits


def test_entries_have_the_degrees_the_one_point_proof_needs():
    # Degree <= n in q: the (n+1)-th forward difference in q vanishes.
    # Degree <= 1 in t: the second forward difference in t vanishes.
    for n in range(2, 7):
        model = build_krammer(n)
        cells = [(r, c) for c in range(model.dimension) for r in range(model.dimension)]
        for k in range(1, n):
            at = {
                (q, t): model.sigma_at(k, q, t)
                for q in range(3 * n + 2)
                for t in range(5)
            }

            def value(q, t, r, c):
                return at[q, t].get(c, {}).get(r, 0)

            for q0 in range(2 * n + 1):
                for t0 in range(3):
                    for r, c in cells:
                        dq = sum(
                            (-1) ** (n + 1 - j) * comb(n + 1, j) * value(q0 + j, t0, r, c)
                            for j in range(n + 2)
                        )
                        dt = value(q0, t0 + 2, r, c) - 2 * value(q0, t0 + 1, r, c) + value(
                            q0, t0, r, c
                        )
                        assert (dq, dt) == (0, 0), (n, k, q0, t0, r, c)
            # Each entry at q = X = 2^20, t = X^(n+1) is a base-X number whose
            # digit i + (n+1) e is the coefficient of q^i t^e.  The decoded
            # polynomial matches the entry on the grid q = 0..n, t = 0..1, which
            # fixes a polynomial of these degrees, so the digits are the
            # coefficients; their 1-norms sum to at most 5 in each column.
            big = 2**20
            decoded = model.sigma_at(k, big, big ** (n + 1))
            for c in range(model.dimension):
                norm = 0
                for r in range(model.dimension):
                    digits = _balanced_digits(decoded.get(c, {}).get(r, 0), big, 2 * n + 2)
                    for q in range(n + 1):
                        for t in range(2):
                            poly = sum(x * q ** (i % (n + 1)) * t ** (i // (n + 1)) for i, x in enumerate(digits))
                            assert poly == value(q, t, r, c), (n, k, q, t, r, c)
                    norm += sum(abs(x) for x in digits)
                assert norm <= 5, (n, k, c)


class _Tampered(KrammerModel):
    """sigma_k with the entry at row (k, k + 1) or (k + 1, j) of the columns
    of one displayed case multiplied by q once more."""

    def __init__(self, n, case, row):
        super().__init__(n)
        self.case = case
        self.row = row

    def sigma_at(self, k, q, t, one=1):
        cols = super().sigma_at(k, q, t, one)
        for col, (i, j) in enumerate(self.pairs):
            if self.case(i, j, k):
                r = self.pairs.index(self.row(i, j, k))
                cols[col][r] = cols[col].get(r, 0) * q
        return cols


# (braid, cubic) for n = 3, 4, 5, measured on the Laurent-polynomial
# implementation these checks replaced, with each formula edited in its source.
TAMPERED = {
    # nested case: q^(k-i) -> q^(k-i+1)
    "nested": (
        lambda i, j, k: i < k and j > k + 1,
        lambda i, j, k: (k, k + 1),
        [(True, True), (False, True), (False, True)],
    ),
    # adjacent case: q^(k-i+1) -> q^(k-i+2)
    "adjacent": (
        lambda i, j, k: i < k and j == k + 1,
        lambda i, j, k: (k, k + 1),
        [(False, True)] * 3,
    ),
    # i == k case: q -> q^2
    "i_is_k": (
        lambda i, j, k: i == k and j > k + 1,
        lambda i, j, k: (k + 1, j),
        [(False, False)] * 3,
    ),
    # i == k case: tq(q - 1) -> tq^2(q - 1)
    "i_is_k_coupling": (
        lambda i, j, k: i == k and j > k + 1,
        lambda i, j, k: (k, k + 1),
        [(False, True)] * 3,
    ),
}


@pytest.mark.parametrize("name", sorted(TAMPERED))
def test_tampered_formulas_give_the_measured_verdicts(name):
    case, row, expected = TAMPERED[name]
    verdicts = []
    for n in (3, 4, 5):
        model = _Tampered(n, case, row)
        verdicts.append((check_braid_relations(model), cubic_specialization_check(model)))
    assert verdicts == expected
