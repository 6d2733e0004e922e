from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crg import (
    ExactMatrix,
    M,
    ParamPoly,
    build_coxeter,
    build_rep,
    char_poly,
    integer_roots,
)
import crg.matrices
import crg.quadratic
from crg.matrices import integer_spectrum
from crg.quadratic import discriminant_of, factor_discriminant
from references import rank

F = Fraction


def ones(n: int) -> list[list[int]]:
    return [[1] * n for _ in range(n)]


def identity(n: int, value: int = 1) -> list[list[int]]:
    return [[value if i == j else 0 for j in range(n)] for i in range(n)]


def shifted(rows: list[list[int]], root: int) -> list[list[int]]:
    """rows - root * I."""
    return [[x - (root if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(rows)]


def test_shape_checks():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        ExactMatrix(0, 1, [])


def test_carrier_is_immutable_with_value_equality():
    a = ExactMatrix(2, 2, [F(1), F(2), F(3), F(4)])
    assert (a.rows, a.cols, a.entries) == (2, 2, (F(1), F(2), F(3), F(4)))
    assert a == ExactMatrix(2, 2, (F(1), F(2), F(3), F(4)))
    assert a != ExactMatrix(1, 4, a.entries)
    assert hash(a) == hash(ExactMatrix(2, 2, a.entries))
    assert repr(a) == "ExactMatrix(2x2: 1 2; 3 4)"
    with pytest.raises(AttributeError):
        a.rows = 3


def test_char_poly_examples():
    assert char_poly([[5]]) == -(M - 5)
    assert char_poly(ones(3)) == -(M ** 2) * (M - 3)
    assert char_poly([[1, 2], [2, 1]]) == (M - 3) * (M + 1)
    with pytest.raises(ValueError):
        char_poly([[0, 0]])
    with pytest.raises(TypeError):
        char_poly([[F(1, 2)]])


def test_char_poly_leading_coefficient_sign():
    for n in (1, 2, 3, 4, 5):
        p = char_poly(identity(n))
        assert p.degree == n
        assert p.leading == (-1) ** n


def test_char_poly_of_large_all_ones_matrix():
    # 70x70 all-ones: eigenvalues 70 and 0, so det(A - mI) = (m-70)m^69
    n = 70
    p = char_poly(ones(n))
    assert p == (M - n) * M ** (n - 1)


def test_char_poly_large_fallback_with_irrational_spectrum():
    # golden-ratio block embedded in an identity: an irreducible quadratic factor
    n = 70
    lst = identity(n)
    lst[0][0], lst[0][1], lst[1][0], lst[1][1] = 0, 1, 1, 1
    p = char_poly(lst)
    assert p == (M ** 2 - M - 1) * (1 - M) ** (n - 2)


def test_char_poly_multiplicity_matches_rank_drop():
    mats = [
        [[2, 0, 0], [0, 2, 0], [0, 0, 5]],
        [[1, 1, 0], [1, 1, 0], [0, 0, 3]],
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    ]
    for rows in mats:
        factors, remainder, _ = integer_roots(char_poly(rows))
        for root, mult in factors:
            assert mult == 3 - rank(shifted(rows, root))


def test_evaluate():
    # t_0 = s_0 - p_0 of A2 as polynomial matrices, evaluated entrywise,
    # against the integer representation N_0 + m0 E_00 at each point
    one, zero = ParamPoly((1,)), ParamPoly()
    t_poly = [[M, -one, -one], [zero, zero, one], [zero, one, zero]]
    p_poly = [[1 - M, one, one], [zero] * 3, [zero] * 3]
    b = build_rep(build_coxeter("A", 2))
    perm = b.blocks(0, range(3), 0, 1, object)[0]
    for m0 in (F(0), F(1), F(-3), F(22, 7)):
        t_at, p_at = (
            np.array([[e(m0) for e in row] for row in x], dtype=object) for x in (t_poly, p_poly)
        )
        assert b.t_block(0, range(3), m0).entries == tuple(t_at.flat)
        assert np.array_equal(t_at, perm - p_at)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=4, max_size=4
    )
)
def test_char_poly_symmetric_multiplicity_property(rows):
    # symmetrize so the matrix is diagonalizable over the rationals
    sym = [[rows[i][j] + rows[j][i] for j in range(4)] for i in range(4)]
    p = char_poly(sym)
    assert p.leading == 1
    factors, _, _ = integer_roots(p)
    for root, mult in factors:
        assert mult == 4 - rank(shifted(sym, root))


def _all_ones_plus_scalar(k: int, a: int, b: int) -> list[list[int]]:
    # a*J_k + b*I has spectrum a*k + b (once) and b (k - 1 times)
    return [[a + (b if i == j else 0) for j in range(k)] for i in range(k)]


def _kron_sum(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    # X (x) I + I (x) Y: every sum of an eigenvalue of X and one of Y
    p, q = len(x), len(y)
    return [
        [
            (x[i][k] if j == l else 0) + (y[j][l] if i == k else 0)
            for k in range(p)
            for l in range(q)
        ]
        for i in range(p)
        for j in range(q)
    ]


blocks = st.builds(
    _all_ones_plus_scalar, st.integers(1, 4), st.integers(-3, 3), st.integers(-3, 3)
)
integer_spectra = st.one_of(blocks, st.builds(_kron_sum, blocks, blocks))


@st.composite
def signed_conjugates(draw):
    rows = draw(integer_spectra)
    n = len(rows)
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    # P A P^T for the signed permutation matrix P with P[i][perm[i]] = signs[i]
    return [
        [signs[i] * signs[j] * rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)
    ]


@st.composite
def symmetric_integer_matrices(draw):
    n = draw(st.integers(1, 6))
    upper = draw(st.lists(st.integers(-5, 5), min_size=n * n, max_size=n * n))
    return [[upper[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]


def _berkowitz_discriminant(rows):
    return factor_discriminant(char_poly(rows), len(rows))


@settings(max_examples=60, deadline=None)
@given(signed_conjugates())
def test_integer_spectrum_is_certified_and_matches_berkowitz(rows):
    assert integer_spectrum(rows) is not None
    assert discriminant_of(rows) == _berkowitz_discriminant(rows)


@settings(max_examples=60, deadline=None)
@given(symmetric_integer_matrices())
def test_discriminant_of_random_symmetric_matrix_matches_berkowitz(rows):
    # most of these spectra are irrational and take the Berkowitz fallback
    assert discriminant_of(rows) == _berkowitz_discriminant(rows)


def _count_fallbacks(monkeypatch) -> list:
    calls = []

    def counting_char_poly(rows):
        calls.append(len(rows))
        return char_poly(rows)

    monkeypatch.setattr(crg.quadratic, "char_poly", counting_char_poly)
    return calls


@pytest.mark.parametrize(
    "rows, shift",
    [
        (_kron_sum(_all_ones_plus_scalar(3, 2, -1), _all_ones_plus_scalar(2, 1, 0)), 1),
        # J_2 has spectrum {2, 0}; the traces alone would accept {1, 0} with
        # multiplicities (2, 0), so only the product rejects this proposal
        ([[1, 1], [1, 1]], -1),
    ],
)
def test_wrong_eigenvalue_proposal_falls_back_to_berkowitz(monkeypatch, rows, shift):
    expected = _berkowitz_discriminant(rows)
    assert integer_spectrum(rows) is not None
    propose = crg.matrices._eigenvalue_candidates

    def shifted(a):
        roots = propose(a)
        return [roots[0] + shift] + roots[1:]

    monkeypatch.setattr(crg.matrices, "_eigenvalue_candidates", shifted)
    assert integer_spectrum(rows) is None
    fallbacks = _count_fallbacks(monkeypatch)
    assert discriminant_of(rows) == expected
    assert fallbacks == [len(rows)]


@pytest.mark.parametrize(
    "rows",
    [
        # ||A - r_i I||_inf products reach 2^82
        [[1, 2**40], [2**40, 1]],
        _all_ones_plus_scalar(3, 2**40, 1),
        # entries beyond int64 itself
        [[1, 2**64], [2**64, 1]],
    ],
)
def test_int64_guard_takes_the_exact_fallback(monkeypatch, rows):
    assert integer_spectrum(rows) is None
    fallbacks = _count_fallbacks(monkeypatch)
    disc = discriminant_of(rows)
    assert fallbacks == [len(rows)]
    assert disc == _berkowitz_discriminant(rows)
    assert disc.remainder.degree == 0


def test_large_scalar_shift_is_certified():
    # A^2 would pass 2^63, but the certificate only multiplies A - r_i I
    rows = _all_ones_plus_scalar(3, 1, 2**40)
    assert integer_spectrum(rows) == ((2**40 + 3, 1), (2**40, 2))
