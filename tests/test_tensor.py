from fractions import Fraction

import pytest

from crg.groups import build_coxeter, build_series
from crg.matrices import ExactMatrix
from crg.rep import build_rep
from crg.tensor import (
    TensorOps,
    algebra_dimension,
    ds_table_check,
    psu_membership_check,
    tensor_square_check,
)


def test_algebra_dimension_full_vs_degenerate():
    g = build_coxeter("A", 2)
    b = build_rep(g)
    members = g.classes[0]
    at = lambda m0: [b.t_block(s, members, Fraction(m0)) for s in members]
    assert algebra_dimension(at(30)) == 9
    assert algebra_dimension(at(3)) == 7
    assert algebra_dimension(at(0)) == 7


def test_algebra_dimension_dihedral():
    g = build_coxeter("I2", 5)
    b = build_rep(g)
    members = g.classes[0]
    at = lambda m0: [b.t_block(s, members, Fraction(m0)) for s in members]
    assert algebra_dimension(at(7)) == 25
    assert algebra_dimension(at(0)) == 13
    assert algebra_dimension(at(5)) == 21


def test_algebra_dimension_rejects_mismatched_shapes():
    a = ExactMatrix.identity(2, Fraction(1))
    bmat = ExactMatrix.identity(3, Fraction(1))
    with pytest.raises(ValueError):
        algebra_dimension([a, bmat])
    with pytest.raises(ValueError):
        algebra_dimension([])


def test_product_table_and_power_identities():
    for g, s in (
        (build_coxeter("A", 2), 0),
        (build_coxeter("B", 2), 0),
        (build_coxeter("I2", 5), 0),
    ):
        b = build_rep(g)
        c = next(i for i, cl in enumerate(g.classes) if s in cl)
        assert ds_table_check(b, s, c)


def test_tensor_ops_shapes():
    g = build_coxeter("A", 2)
    b = build_rep(g)
    assert g.classes[0] == (0, 1, 2)
    eye3 = ExactMatrix.identity(3, Fraction(1))
    eye = ExactMatrix.identity(9, Fraction(1))
    for m0 in (Fraction(0), Fraction(1), Fraction(-3), Fraction(22, 7)):
        ops = TensorOps(b, 0, 0, m0)
        # the A2 generator t_0 = s_0 - p_0 at m0
        t = [[m0, -1, -1], [0, 0, 1], [0, 1, 0]]
        p = [[1 - m0, 1, 1], [0, 0, 0], [0, 0, 0]]
        t, p = (ExactMatrix.from_rows([[Fraction(x) for x in r] for r in m]) for m in (t, p))
        assert ops.t_op.rows == 9
        assert ops.t_op == t.kron(eye3) + eye3.kron(t)
        assert ops.p_op == p.kron(eye3) + eye3.kron(p)
        assert ops.t_op == ops.delta_op - ops.p_op
        assert ops.s_op * ops.s_op == eye


def test_tensor_ops_refuses_large_class():
    g = build_coxeter("H3")
    b = build_rep(g)
    with pytest.raises(ValueError):
        TensorOps(b, 0, 0, 0)
    ops = TensorOps(b, 0, 0, 0, force=True)
    assert ops.t_op.rows == 15 * 15


def test_square_decomposition_dimensions():
    g = build_coxeter("I2", 5)
    b = build_rep(g)
    report = tensor_square_check(b, 0, Fraction(7))
    assert report["ok"]
    assert (report["wedge_dim"], report["wedge_algebra"]) == (10, 100)
    assert (report["sym_dim"], report["sym_algebra"]) == (15, 225)

    a3 = build_coxeter("A", 3)
    b3 = build_rep(a3)
    report = tensor_square_check(b3, 0, Fraction(7))
    assert report["ok"]
    assert (report["wedge_dim"], report["wedge_algebra"]) == (15, 225)
    assert (report["sym_dim"], report["sym_algebra"]) == (21, 441)


def test_square_decomposition_skips_singletons():
    g = build_series(2, 2, 2)
    b = build_rep(g)
    assert [len(c) for c in g.classes] == [1, 1]
    report = tensor_square_check(b, 0, Fraction(7))
    assert report["skipped"] and report["ok"]


def test_square_decomposition_rejects_excluded_points():
    g = build_coxeter("I2", 5)
    b = build_rep(g)
    for m0 in (-3, -1, 0, 1, 3, 5):
        with pytest.raises(ValueError):
            tensor_square_check(b, 0, Fraction(m0))


def test_projective_unitary_membership():
    g = build_coxeter("A", 3)
    b = build_rep(g)
    members = g.classes[0]
    disjoint = next(
        (s, u)
        for s in members
        for u in members
        if s < u and b.alpha[s][u] == 0
    )
    crossing = next(
        (s, u)
        for s in members
        for u in members
        if s < u and b.alpha[s][u] > 0
    )
    assert psu_membership_check(b, 0, *disjoint, Fraction(7))
    assert psu_membership_check(b, 0, *crossing, Fraction(7))
    with pytest.raises(ValueError):
        psu_membership_check(b, 0, members[0], members[0], Fraction(7))
    with pytest.raises(ValueError):
        psu_membership_check(b, 0, members[0], members[1], Fraction(1))


def test_membership_works_at_discriminant_root():
    g = build_coxeter("I2", 7)
    b = build_rep(g)
    members = g.classes[0]
    assert psu_membership_check(b, 0, members[0], members[1], Fraction(7))
