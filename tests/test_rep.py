from fractions import Fraction

import pytest

from crg.arrangement import codim2_flats
from crg.groups import build_coxeter, build_series
from crg.matrices import ExactMatrix
from crg.rep import (
    DIHEDRAL_CHARACTER_NOTE,
    bn_model_check,
    build_rep,
    check_T_scalar,
    check_equivariance,
    check_integrability,
    dihedral_m0_check,
    dual_check,
    parabolic_restriction_check,
    spectrum_check,
)

POINTS = (Fraction(0), Fraction(1), Fraction(-3), Fraction(22, 7))


def a2_generator(m0):
    """t_0 of A2 at m0: t_0.v_0 = m0 v_0, t_0.v_u = v_{0u0} - v_0 otherwise."""
    rows = [[m0, -1, -1], [0, 0, 1], [0, 1, 0]]
    return ExactMatrix.from_rows([[Fraction(x) for x in row] for row in rows])


def a2_projection(m0):
    """p_0 of A2 at m0: p_0.v_u = alpha(0,u) v_0 for u != 0, p_0.v_0 = (1 - m0) v_0."""
    rows = [[1 - m0, 1, 1], [0, 0, 0], [0, 0, 0]]
    return ExactMatrix.from_rows([[Fraction(x) for x in row] for row in rows])


def test_triangle_generator_matrix():
    g = build_coxeter("A", 2)
    b = build_rep(g)
    assert [b.alpha[0][u] for u in (1, 2)] == [1, 1]
    for m0 in POINTS:
        t = b.t_block(0, range(3), m0)
        assert t == a2_generator(m0)
        assert t == b.s_block(0, range(3)) - a2_projection(m0)


def test_not_diagonalizable_at_one():
    g = build_coxeter("A", 2)
    b = build_rep(g)
    t0 = b.t_block(0, range(3), Fraction(1))
    eye = ExactMatrix.identity(3, Fraction(1))
    split = (t0 - eye) * (t0 + eye)
    assert not split.is_zero()
    assert ((t0 - eye) * split).is_zero()


def test_integrability_and_equivariance():
    for g in (
        build_coxeter("A", 3),
        build_coxeter("B", 3),
        build_series(3, 3, 3),
        build_coxeter("I2", 7),
        build_coxeter("H3"),
    ):
        b = build_rep(g)
        assert check_integrability(b)
        assert check_equivariance(b)
        assert dual_check(b)


def test_sampled_integrability_at_rational_point():
    g = build_coxeter("F4")
    b = build_rep(g)
    assert check_integrability(b, Fraction(22, 7))


def test_sum_over_class_is_scalar():
    for g in (build_coxeter("A", 3), build_series(6, 3, 2), build_coxeter("H3")):
        b = build_rep(g)
        for c in range(len(g.classes)):
            assert check_T_scalar(b, c)


def test_mutated_multiplicity_table_fails():
    g = build_coxeter("A", 2)
    alpha = [list(row) for row in g.alpha]
    alpha[0][1] += 1
    alpha[1][0] += 1
    b = build_rep(g, alpha)
    assert not check_integrability(b)
    assert not check_equivariance(b)
    idx, x = check_integrability(b).detail
    assert x in codim2_flats(g).flats[idx].members
    # a rational point is checked on b t_s(a/b), in integers: same verdict and witness
    for m0 in (Fraction(22, 7), Fraction(9, 2)):
        result = check_integrability(b, m0)
        assert not result
        assert result.detail == (0, 0)


def test_spectrum_at_generic_integer():
    a2 = build_rep(build_coxeter("A", 2))
    assert spectrum_check(a2, 0, Fraction(5))
    b2g = build_coxeter("B", 2)
    b2 = build_rep(b2g)
    for c in b2g.classes:
        assert spectrum_check(b2, c[0], Fraction(5))
    h3 = build_rep(build_coxeter("H3"))
    assert spectrum_check(h3, 0, Fraction(5))


def test_spectrum_handles_eigenvalue_collision():
    a3 = build_rep(build_coxeter("A", 3))
    assert spectrum_check(a3, 0, Fraction(-1))


def test_spectrum_rejects_one():
    a2 = build_rep(build_coxeter("A", 2))
    with pytest.raises(ValueError):
        spectrum_check(a2, 0, Fraction(1))


def test_parabolic_restriction():
    b3 = build_rep(build_coxeter("B", 3))
    assert parabolic_restriction_check(b3, [1, 2])
    a4 = build_rep(build_coxeter("A", 4))
    assert parabolic_restriction_check(a4, [0, 1, 2])
    with pytest.raises(ValueError):
        parabolic_restriction_check(a4, [])
    with pytest.raises(ValueError):
        parabolic_restriction_check(a4, list(range(a4.size)))


def test_signed_permutation_model():
    for n in (2, 3, 4):
        assert bn_model_check(n)


def test_dihedral_zero_point():
    for e in (3, 5, 7):
        assert dihedral_m0_check(e)
    with pytest.raises(ValueError):
        dihedral_m0_check(4)
    with pytest.raises(ValueError):
        dihedral_m0_check(1)
    assert "rotations" in DIHEDRAL_CHARACTER_NOTE
