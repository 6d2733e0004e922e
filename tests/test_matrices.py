from fractions import Fraction

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
    cyclotomic_field,
    rank_and_kernel,
)
import crg.matrices
import crg.quadratic
from crg.matrices import integer_spectrum
from crg.quadratic import discriminant_of, factor_discriminant
from crg.rep import _block

F = Fraction


def ones(n: int) -> ExactMatrix:
    return ExactMatrix(n, n, [F(1)] * (n * n))


def test_shape_checks():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])


def test_matrix_algebra():
    a = ExactMatrix.from_rows([[F(1), F(2)], [F(3), F(4)]])
    b = ExactMatrix.identity(2)
    assert a * b == a and b * a == a
    assert (a + a) == 2 * a
    assert not any((a - a).entries)
    assert a.row(1) == (F(3), F(4))
    with pytest.raises(ValueError):
        a * ExactMatrix(3, 3, [F(0)] * 9)


def test_char_poly_examples():
    assert char_poly(ExactMatrix(1, 1, [F(5)])) == -(M - 5)
    assert char_poly(ones(3)) == -(M ** 2) * (M - 3)
    two = ExactMatrix.from_rows([[F(1), F(2)], [F(2), F(1)]])
    assert char_poly(two) == (M - 3) * (M + 1)
    with pytest.raises(ValueError):
        char_poly(ExactMatrix(1, 2, [F(0), F(0)]))


def test_char_poly_leading_coefficient_sign():
    for n in (1, 2, 3, 4, 5):
        p = char_poly(ExactMatrix.identity(n))
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
    ent = [F(1) if i == j else F(0) for i in range(n) for j in range(n)]
    m = ExactMatrix(n, n, ent)
    lst = [list(m.row(i)) for i in range(n)]
    lst[0][0], lst[0][1], lst[1][0], lst[1][1] = F(0), F(1), F(1), F(1)
    p = char_poly(ExactMatrix.from_rows(lst))
    assert p == (M ** 2 - M - 1) * (1 - M) ** (n - 2)


def test_char_poly_multiplicity_matches_rank_drop():
    mats = [
        [[2, 0, 0], [0, 2, 0], [0, 0, 5]],
        [[1, 1, 0], [1, 1, 0], [0, 0, 3]],
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    ]
    for rows in mats:
        mat = ExactMatrix.from_rows([[F(x) for x in r] for r in rows])
        factors, remainder, _ = integer_roots_of(mat)
        for root, mult in factors:
            shifted = mat - ExactMatrix.identity(3, F(root))
            rank, kernel = rank_and_kernel(shifted)
            assert mult == 3 - rank == len(kernel)


def integer_roots_of(mat):
    from crg import integer_roots

    factors, remainder, sign = integer_roots(char_poly(mat))
    return factors, remainder, sign


def test_rank_and_kernel_examples():
    rank, kernel = rank_and_kernel(ExactMatrix.identity(3))
    assert rank == 3 and kernel == []
    rank, kernel = rank_and_kernel(ones(3))
    assert rank == 1 and len(kernel) == 2
    for v in kernel:
        assert not any((ones(3) * ExactMatrix(3, 1, v)).entries)


def test_rank_and_kernel_over_cyclotomic_scalars():
    f = cyclotomic_field(5)
    z = f.zeta()
    mat = ExactMatrix.from_rows([[z, z ** 2], [z ** 3, z ** 4]])
    rank, kernel = rank_and_kernel(mat)
    assert rank == 1 and len(kernel) == 1
    assert not any((mat * ExactMatrix(2, 1, kernel[0])).entries)


def test_rank_rejects_polynomial_entries():
    with pytest.raises(TypeError):
        rank_and_kernel(ExactMatrix(1, 1, [M]))


def test_evaluate():
    # t_0 = s_0 - p_0 of A2 as polynomial matrices, evaluated entrywise,
    # against the integer representation N_0 + m0 E_00 at each point
    one, zero = ParamPoly((1,)), ParamPoly()
    t_poly = ExactMatrix.from_rows([[M, -one, -one], [zero, zero, one], [zero, one, zero]])
    p_poly = ExactMatrix.from_rows([[1 - M, one, one], [zero] * 3, [zero] * 3])
    b = build_rep(build_coxeter("A", 2))
    for m0 in (F(0), F(1), F(-3), F(22, 7)):
        t_at, p_at = (ExactMatrix(3, 3, [e(m0) for e in x.entries]) for x in (t_poly, p_poly))
        assert t_at == b.t_block(0, range(3), m0)
        assert t_at == ExactMatrix.from_rows(_block(b.s_cols(0), range(3), 0)) - p_at


def test_rank_and_kernel_of_int_matrix_stays_exact():
    rank, kernel = rank_and_kernel(ExactMatrix.from_rows([[3, 1], [6, 2]]))
    assert rank == 1
    assert kernel == [[F(-1, 3), F(1)]]
    assert all(type(x) is Fraction for x in kernel[0])


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=4, max_size=4
    )
)
def test_char_poly_symmetric_multiplicity_property(rows):
    # symmetrize so the matrix is diagonalizable over the rationals
    sym = [[F(rows[i][j] + rows[j][i]) for j in range(4)] for i in range(4)]
    mat = ExactMatrix.from_rows(sym)
    p = char_poly(mat)
    assert p.leading == 1
    factors, _, _ = integer_roots_of(mat)
    for root, mult in factors:
        rank, _ = rank_and_kernel(mat - ExactMatrix.identity(4, F(root)))
        assert mult == 4 - rank


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
    return factor_discriminant(char_poly(ExactMatrix.from_rows(rows)), len(rows))


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

    def counting_char_poly(mat):
        calls.append(mat.rows)
        return char_poly(mat)

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
