from fractions import Fraction
from itertools import combinations

import pytest

from crg.arrangement import codim2_flats
from crg import rep
from crg.cli import build_group, parse_group
from crg.groups import ReflectionGroupData, build_coxeter, build_series, k_c
from crg.matrices import ExactMatrix, rank_and_kernel
from crg.rep import (
    DIHEDRAL_CHARACTER_NOTE,
    _block,
    build_rep,
    check_T_scalar,
    check_equivariance,
    check_integrability,
    dihedral_m0_check,
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
        assert t == ExactMatrix.from_rows(_block(b.s_cols(0), range(3), 0)) - a2_projection(m0)


def test_not_diagonalizable_at_one():
    g = build_coxeter("A", 2)
    b = build_rep(g)
    t0 = b.t_block(0, range(3), Fraction(1))
    eye = ExactMatrix.identity(3, Fraction(1))
    split = (t0 - eye) * (t0 + eye)
    assert any(split.entries)
    assert not any(((t0 - eye) * split).entries)


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
        assert _transpose_is_dual(b)


def _transpose_is_dual(bundle) -> bool:
    """N_s^T sends v_u to v_{sus} for u != s, and v_s to -sum_u alpha(s,u) v_u.

    The m E_ss term is its own transpose, so the N_s alone prove it for all m.
    """
    g = bundle.group
    for s in range(g.size):
        expected = {u: {g.conj_table[s][u]: 1} for u in range(g.size) if u != s}
        row_s = {u: -bundle.alpha[s][u] for u in range(g.size) if u != s and bundle.alpha[s][u]}
        if row_s:
            expected[s] = row_s
        transposed = {}
        for u, col in bundle.n_cols[s].items():
            for row, val in col.items():
                transposed.setdefault(row, {})[u] = val
        if transposed != expected:
            return False
    return True


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
    result = check_integrability(b)
    assert result.route == "all flats"
    idx, x = result.detail
    assert x in codim2_flats(g).flats[idx].members
    # a rational point is checked on b t_s(a/b), in integers: same verdict and witness
    for m0 in (Fraction(22, 7), Fraction(9, 2)):
        result = check_integrability(b, m0)
        assert not result
        assert result.detail == (0, 0)


@pytest.mark.parametrize("c, witness", [(0, (9, 0)), (1, (13, 1))])
def test_invariant_tampering_fails_on_the_orbit_route(c, witness):
    # Doubling alpha(s, u) for s, u in class c whose flat has three members
    # is W-invariant, so equivariance holds and one pair per orbit is
    # checked. The scan of every flat gives the same witnesses.
    g = build_coxeter("F4")
    table = codim2_flats(g)
    alpha = [list(row) for row in g.alpha]
    for s in g.classes[c]:
        for u in g.classes[c]:
            if s != u and len(table.flat_of_pair(s, u).members) == 3:
                alpha[s][u] *= 2
    b = build_rep(g, alpha)
    assert check_equivariance(b)
    for m0 in (None, Fraction(22, 7)):
        result = check_integrability(b, m0)
        assert not result
        assert result.route == "orbits"
        assert result.detail == witness


def test_equivariance_fails_on_a_later_generator():
    # Tampering alpha(0, 1) and its image under reflection 0 keeps N_s
    # equivariant under reflection 0 alone; another generator must catch it.
    g = build_coxeter("A", 3)
    conj = g.conj_table[0]
    alpha = [list(row) for row in g.alpha]
    alpha[0][1] += 1
    alpha[conj[0]][conj[1]] += 1
    b = build_rep(g, alpha)
    assert check_equivariance(b).detail == (1, 0)
    result = check_integrability(b)
    assert (result.ok, result.detail, result.route) == (False, (0, 0), "all flats")


def test_equivariance_is_proven_once_per_bundle(monkeypatch):
    calls = []

    def counted(bundle):
        calls.append(bundle)
        return equivariance(bundle)

    equivariance = rep._equivariance
    monkeypatch.setattr(rep, "_equivariance", counted)
    g = build_coxeter("B", 3)
    b = build_rep(g)
    assert check_integrability(b).route == "orbits"
    assert check_equivariance(b)
    assert calls == [b]
    other = build_rep(g)
    assert check_equivariance(other)
    assert calls == [b, other]


def test_clean_tables_take_the_orbit_route():
    for g in (build_coxeter("A", 3), build_series(4, 2, 3), build_coxeter("H3")):
        assert check_integrability(build_rep(g)).route == "orbits"


def test_spectrum_at_generic_integer():
    a2 = build_rep(build_coxeter("A", 2))
    assert spectrum_check(a2, 0, Fraction(5))
    assert spectrum_check(a2, 0) is True
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


def _dense_spectrum(bundle, s, m0) -> bool:
    """Reference for spectrum_check at one point m0 != 1: kernel dimensions of
    t_s - value and of s -+ 1, and eigenvector containments, by dense
    Gauss-Jordan elimination over the rationals."""
    m0 = Fraction(m0)
    g = bundle.group
    n = g.size

    def eye(size, value=1):
        return ExactMatrix.identity(size, Fraction(value))

    def nullity(mat):
        return mat.rows - rank_and_kernel(mat)[0]

    def multiplicities(k, total):
        merged = {}
        for value, mult in ((m0, 1), (Fraction(-1), k), (Fraction(1), total - 1 - k)):
            merged[value] = merged.get(value, 0) + mult
        return merged.items()

    k = sum(k_c(g, c, s) for c in range(len(g.classes)))
    t = bundle.t_block(s, range(n), m0)
    if any(nullity(t - eye(n, value)) != mult for value, mult in multiplicities(k, n)):
        return False
    if m0 != -1:
        s_dense = ExactMatrix.from_rows(_block(bundle.s_cols(s), range(n), 0))
        if nullity(s_dense - eye(n)) != n - k or nullity(s_dense + eye(n)) != k:
            return False
        for value, sign in ((m0, -1), (1, -1), (-1, 1)):
            _, kernel = rank_and_kernel(t - eye(n, value))
            against = s_dense + eye(n, sign)
            if any(any((against * ExactMatrix(n, 1, vec)).entries) for vec in kernel):
                return False
    c = g.class_of[s]
    size = len(g.classes[c])
    block = bundle.t_block(s, g.classes[c], m0)
    return all(
        nullity(block - eye(size, value)) == mult
        for value, mult in multiplicities(k_c(g, c, s), size)
    )


def _tampered_tables(g):
    """Three copies of alpha, each with class representatives' rows changed:
    at one end of a 2-cycle of s, at both ends of one, and at a fixed point."""
    conj = g.conj_table
    reps = [members[0] for members in g.classes]
    tables = []
    for i, where in enumerate(("one end", "both ends", "fixed point")):
        s = reps[i % len(reps)]
        moved = where != "fixed point"
        u = next(u for u in range(g.size) if u != s and (conj[s][u] != u) == moved)
        alpha = [list(row) for row in g.alpha]
        alpha[s][u] += 1
        if where == "both ends":
            alpha[s][conj[s][u]] += 1
        tables.append(alpha)
    return tables


def test_spectrum_matches_dense_reference_on_tampered_tables():
    verdicts = set()
    for name in ("A3", "B3", "H3", "G(4,2,3)"):
        g = build_group(parse_group(name))
        for alpha in _tampered_tables(g):
            b = build_rep(g, alpha)
            for m0 in (5, -1):
                for c, members in enumerate(g.classes):
                    expected = _dense_spectrum(b, members[0], m0)
                    assert spectrum_check(b, members[0], m0) is expected, (name, c, m0)
                    verdicts.add(expected)
    assert verdicts == {True, False}


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
    # on the diagonal class x_1..x_n of B_n: t_i.x_j = x_j - 2 x_i and
    # t_i.x_i = m x_i, and every other reflection permutes the x_j as its
    # matrix permutes the axes
    for n in (2, 3, 4):
        g = build_series(2, 1, n)
        bundle = build_rep(g)
        mats = [g.reflections[s].matrix for s in range(g.size)]
        axis = {
            s: next(i for i in range(n) if mat[i, i] == -1)
            for s, mat in enumerate(mats)
            if all(mat[i, j] == 0 for i in range(n) for j in range(n) if i != j)
        }
        assert sorted(axis.values()) == list(range(n))
        assert len({g.class_of[u] for u in axis}) == 1
        assert len(g.classes[g.class_of[next(iter(axis))]]) == n
        at_axis = {i: u for u, i in axis.items()}
        for s, mat in enumerate(mats):
            for u, i in axis.items():
                col = bundle.n_cols[s].get(u)
                if u == s:
                    assert col is None
                elif s in axis:
                    assert col == {u: 1, s: -2}
                else:
                    j = next(k for k in range(n) if mat[k, i] != 0)
                    assert col == {at_axis[j]: 1}


def test_dihedral_zero_point():
    for e in (3, 5, 7, 9, 11):
        assert dihedral_m0_check(e)
    with pytest.raises(ValueError):
        dihedral_m0_check(4)
    with pytest.raises(ValueError):
        dihedral_m0_check(1)
    assert "rotations" in DIHEDRAL_CHARACTER_NOTE


def _with_swapped_entries(g, cells):
    """g with the conjugation-table entries at two (row, column) cells swapped."""
    table = [list(row) for row in g.conj_table]
    (y1, u1), (y2, u2) = cells
    table[y1][u1], table[y2][u2] = table[y2][u2], table[y1][u1]
    conj = tuple(map(tuple, table))
    return ReflectionGroupData(g.name, g.rank, g.conductor, g.reflections, conj, g.generators)


@pytest.mark.parametrize("e", [5, 7])
def test_dihedral_zero_point_reads_the_conjugation_table(e, monkeypatch):
    g = build_series(e, e, 2)
    # two entries of one row, and two entries of one column: a column swap
    # keeps every alpha, and on many of them the form kernel and N_s - s
    # still pass, so only the group closed from the rows sees those
    swaps = [((y, u), (y, v)) for y in range(e) for u, v in combinations(range(e), 2)]
    swaps += [((y, u), (x, u)) for x, y in combinations(range(e), 2) for u in range(e)]
    for cells in swaps:
        monkeypatch.setattr(rep, "build_series", lambda *args: _with_swapped_entries(g, cells))
        assert dihedral_m0_check(e) is False, cells


def test_dihedral_zero_point_reads_the_form_kernel(monkeypatch):
    def off_hyperplane(g, c, m0):
        kernel = kernel_at(g, c, m0)
        kernel[0] = [Fraction(1)] + [Fraction(0)] * (g.size - 1)
        return kernel

    kernel_at = rep.kernel_at
    monkeypatch.setattr(rep, "kernel_at", off_hyperplane)
    assert dihedral_m0_check(5) is False
