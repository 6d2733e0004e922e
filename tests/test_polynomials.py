from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crg import M, ParamPoly, integer_roots
from crg.cyclotomic import cyclotomic_int_coeffs


def test_basic_ring_ops_and_degree():
    p = ParamPoly((1, 2, 3))
    q = ParamPoly((0, 1))
    assert p.degree == 2 and q == M
    assert (p + q).coeffs == (1, 3, 3)
    assert (p * 0).is_zero() and ParamPoly().degree == -1
    assert (M - 1) * (M + 1) == M ** 2 - 1
    assert ParamPoly((1, 1)) ** 3 == ParamPoly((1, 3, 3, 1))


def test_trailing_zeros_are_stripped():
    assert ParamPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert ParamPoly((0, 0)).is_zero()


def test_evaluation():
    p = M ** 2 - 1
    assert p(Fraction(3, 2)) == Fraction(5, 4)
    assert (1 - M)(1) == 0
    assert ParamPoly((5,))(123) == 5


def cyclotomic_polynomial(n: int) -> ParamPoly:
    return ParamPoly(cyclotomic_int_coeffs(n))


def test_cyclotomic_polynomial_small_cases():
    assert cyclotomic_polynomial(1) == M - 1
    assert cyclotomic_polynomial(4) == M ** 2 + 1
    assert cyclotomic_polynomial(12) == M ** 4 - M ** 2 + 1


def test_cyclotomic_polynomials_multiply_to_m_pow_n_minus_one():
    # independent oracle: the product over divisors must give m^n - 1
    for n in [1, 2, 6, 12, 24, 30]:
        prod = ParamPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod == M ** n - 1


def test_integer_roots_examples():
    factors, remainder, sign = integer_roots(-(M ** 2) * (M - 3))
    assert sign == -1 and remainder == ParamPoly((1,))
    assert factors == ((3, 1), (0, 2))

    factors, remainder, sign = integer_roots(M ** 2 + 1)
    assert (factors, remainder, sign) == ((), M ** 2 + 1, 1)

    p = (M - 13) * (M - 1) ** 10 * (M + 2) ** 4
    factors, remainder, sign = integer_roots(p)
    assert sign == 1 and remainder == ParamPoly((1,))
    assert factors == ((13, 1), (1, 10), (-2, 4))


def test_integer_roots_rejects_bad_input():
    with pytest.raises(ValueError):
        integer_roots(ParamPoly())
    with pytest.raises(ValueError):
        integer_roots(2 * M + 1)


def test_integer_roots_keeps_irrational_part():
    p = -(M ** 2 - 2) * (M - 4) ** 2
    factors, remainder, sign = integer_roots(p)
    assert sign == -1
    assert factors == ((4, 2),)
    assert remainder == M ** 2 - 2


def test_integer_roots_with_rational_coefficients():
    p = (M - 2) * (M ** 2 + M / 2 + 1)
    factors, remainder, sign = integer_roots(p)
    assert factors == ((2, 1),) and sign == 1
    assert remainder == M ** 2 + M / 2 + 1


def test_integer_roots_large_root_beyond_sweep():
    # root exceeding the direct sweep range must still be found
    big = 10 ** 7 + 19
    factors, remainder, sign = integer_roots((M - big) * (M + 1) ** 2)
    assert factors == ((big, 1), (-1, 2))
    assert remainder == ParamPoly((1,)) and sign == 1


@settings(max_examples=40, deadline=None)
@given(
    roots=st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 4)), max_size=4),
    sign=st.sampled_from([1, -1]),
)
def test_integer_roots_roundtrip(roots, sign):
    dedup = {}
    for r, k in roots:
        dedup[r] = dedup.get(r, 0) + k
    p = ParamPoly((sign,))
    for r, k in dedup.items():
        p = p * (M - r) ** k
    factors, remainder, got_sign = integer_roots(p)
    assert got_sign == sign
    assert remainder == ParamPoly((1,))
    assert dict(factors) == dedup
    assert list(factors) == sorted(factors, key=lambda kv: -kv[0])
    rebuilt = ParamPoly((got_sign,)) * remainder
    for r, k in factors:
        rebuilt = rebuilt * (M - r) ** k
    assert rebuilt == p


def test_str_rendering():
    assert str(M ** 4 - M ** 2 + 1) == "m^4 - m^2 + 1"
    assert str(ParamPoly()) == "0"
    assert str(-2 * M) == "-2*m"
