from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crg import CycNum, cyclotomic_field, totient

CONDUCTORS = [3, 4, 5, 8, 12, 24]


def element(n: int, ints: list[int], den: int = 1) -> CycNum:
    f = cyclotomic_field(n)
    return CycNum(f, f.reduce(ints), den)


def test_totient_small_values():
    assert [totient(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_basis_length_matches_totient():
    for n in CONDUCTORS:
        f = cyclotomic_field(n)
        assert f.degree == totient(n)
        assert len(f.one().num) == f.degree


def test_zeta_power_n_is_one():
    for n in CONDUCTORS + [1, 2, 7, 9, 20]:
        f = cyclotomic_field(n)
        assert f.zeta() ** n == 1


def test_prime_conductor_powers_sum_to_zero():
    for n in [3, 5, 7, 11, 13]:
        f = cyclotomic_field(n)
        total = f.zero()
        for i in range(n):
            total = total + f.zeta(i)
        assert total.is_zero()


def test_reduction_is_idempotent():
    f = cyclotomic_field(12)
    x = element(12, [3, -2, 0, 7], 5)
    again = CycNum(f, f.reduce(x.num), x.den)
    assert again == x and again.num == x.num and again.den == x.den


def test_golden_ratio_in_conductor_five():
    # tau = -z^2 - z^3 satisfies tau^2 = tau + 1
    f = cyclotomic_field(5)
    tau = -f.zeta(2) - f.zeta(3)
    assert tau * tau == tau + 1


def test_conjugation_fixes_rationals_and_inverts_zeta():
    f = cyclotomic_field(8)
    assert f.from_rational(Fraction(3, 7)).galois(-1) == Fraction(3, 7)
    z = f.zeta()
    assert z.galois(-1) == f.zeta(7)
    assert (z * z.galois(-1)) == 1


def test_inverse_of_unit():
    for n in CONDUCTORS:
        x = element(n, list(range(1, totient(n) + 1)), 3)
        assert x * x.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        cyclotomic_field(5).zero().inverse()


def test_division_and_pow():
    f = cyclotomic_field(12)
    z = f.zeta()
    assert (1 / z) == f.zeta(11)
    assert z ** -5 == f.zeta(7)
    x = element(12, [1, 1, 0, -2], 3)
    assert (x / x) == 1


def test_mixed_conductor_arithmetic_is_rejected():
    a = cyclotomic_field(5).zeta()
    b = cyclotomic_field(8).zeta()
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_rational_interop_and_hash():
    f = cyclotomic_field(5)
    half = f.from_rational(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2))
    assert half + Fraction(1, 2) == 1
    assert 2 * half == 1
    assert not f.zeta().is_rational()
    with pytest.raises(ValueError):
        f.zeta().as_rational()


@st.composite
def cyc_elements(draw, n):
    d = totient(n)
    ints = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
    den = draw(st.integers(1, 6))
    return element(n, ints, den)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.sampled_from(CONDUCTORS))
def test_ring_axioms_on_random_triples(data, n):
    a = data.draw(cyc_elements(n))
    b = data.draw(cyc_elements(n))
    c = data.draw(cyc_elements(n))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a
    assert (a - b) + b == a
    if a:
        assert a * a.inverse() == 1


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.sampled_from(CONDUCTORS))
def test_conjugation_is_multiplicative(data, n):
    a = data.draw(cyc_elements(n))
    b = data.draw(cyc_elements(n))
    assert (a * b).galois(-1) == a.galois(-1) * b.galois(-1)
    assert a.galois(-1).galois(-1) == a
