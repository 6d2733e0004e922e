"""Reflection group construction, conjugation tables, and class data."""

import hashlib

import pytest

from crg.cyclotomic import cyclotomic_field
from crg.groups import (
    alpha,
    build_coxeter,
    build_exceptional,
    build_series,
    class_stats,
    k_c,
)


def test_a2_structure():
    g = build_coxeter("A", 2)
    assert g.size == 3
    assert len(g.classes) == 1
    assert class_stats(g, 0) == (3, 1)


def test_b2_structure():
    g = build_coxeter("B", 2)
    assert g.size == 4
    assert sorted(len(c) for c in g.classes) == [2, 2]
    for c in range(2):
        assert class_stats(g, c) == (3, 2)


def test_dihedral_class_split():
    odd = build_coxeter("I2", 5)
    assert odd.size == 5 and len(odd.classes) == 1
    assert class_stats(odd, 0) == (5, 1)
    even = build_coxeter("I2", 6)
    assert even.size == 6
    assert sorted(len(c) for c in even.classes) == [3, 3]


def test_series_counts():
    g = build_series(3, 3, 3)
    assert g.size == 9 and len(g.classes) == 1
    g = build_series(6, 3, 2)
    assert g.size == 8
    assert sorted(len(c) for c in g.classes) == [2, 6]
    g = build_series(2, 2, 4)
    assert g.size == 12 and len(g.classes) == 1


def test_series_rejects_high_order_generators():
    with pytest.raises(ValueError, match="unsupported pseudo-reflection series"):
        build_series(6, 2, 3)


def test_root_systems():
    h3 = build_coxeter("H3")
    assert h3.size == 15
    assert class_stats(h3, 0) == (13, 3)
    f4 = build_coxeter("F4")
    assert f4.size == 24
    assert sorted(len(c) for c in f4.classes) == [12, 12]
    assert {class_stats(f4, c)[0] for c in range(2)} == {15}


def test_reflections_are_involutions():
    from crg.matrices import ExactMatrix

    g = build_coxeter("B", 3)
    eye = ExactMatrix.identity(g.rank, g.field.one())
    for refl in g.reflections:
        m = refl.matrix
        assert m * m == eye


def test_alpha_symmetric_and_diagonal_free():
    g = build_coxeter("B", 3)
    for s in range(g.size):
        assert g.alpha[s][s] == 0
        for u in range(g.size):
            assert g.alpha[s][u] == g.alpha[u][s]
    with pytest.raises(ValueError):
        alpha(g, 0, 0)


def test_alpha_constant_row_sums_per_class():
    for g in [build_coxeter("B", 3), build_series(4, 4, 3), build_coxeter("H3")]:
        for c, members in enumerate(g.classes):
            n_c, _ = class_stats(g, c)
            for s in members:
                assert 1 + sum(g.alpha[s][u] for u in members) == n_c


def test_conjugation_permutes_classes():
    g = build_series(3, 3, 3)
    for y in range(g.size):
        for s in range(g.size):
            t = g.conj_table[y][s]
            assert g.class_of[t] == g.class_of[s]
            assert g.conj_table[y][t] == s


def test_isomorphic_presentations_agree():
    variants = [build_coxeter("A", 2), build_series(1, 1, 3), build_coxeter("I2", 3)]
    stats = {class_stats(v, 0) for v in variants}
    assert stats == {(3, 1)}
    alphas = {
        tuple(sorted(x for row in v.alpha for x in row)) for v in variants
    }
    assert len(alphas) == 1


def test_noncommuting_count_is_even():
    g = build_coxeter("H3")
    assert k_c(g, 0, g.classes[0][0]) == 6


def test_missing_generator_data():
    with pytest.raises(ValueError, match="no construction"):
        build_exceptional("G99")


def test_loaded_generator_groups():
    expected = {
        "G12": (12, [12], [11]),
        "G13": (18, [6, 12], [17, 17]),
        "G22": (30, [30], [29]),
        "G24": (21, [21], [17]),
    }
    for name, (count, sizes, n_values) in expected.items():
        g = build_exceptional(name)
        assert g.name == name
        assert len(g.reflections) == count
        assert sorted(len(m) for m in g.classes) == sizes
        got_n = sorted(class_stats(g, c)[0] for c in range(len(g.classes)))
        assert got_n == sorted(n_values)


def test_loaded_groups_closed_under_conjugation():
    g = build_exceptional("G13")
    for y in range(g.size):
        for s in range(g.size):
            assert g.class_of[g.conj_table[y][s]] == g.class_of[s]


# sha256 of the groups as the generator-matrix route built them: the
# reflection matrices in index order, the conjugation table and the classes
EXCEPTIONAL_SHA256 = {
    "G12": "45bc97fed5940baeff55bf11854b929ab990501907bae24823069bebf83d9acb",
    "G13": "fd85fd56de13a483757a263e05f6c28da637dc49680cb39e27c00d09f9d7a2c0",
    "G22": "75e958caa376bd56f7dcfa631ff7bb0cb31137b05efde3dce32db839e5ce6cf3",
    "G24": "539b77a0c916e3e52c14cef43b63ef82e7f8b32f59d39d860e47567d9f413f8e",
}


@pytest.mark.parametrize("name", sorted(EXCEPTIONAL_SHA256))
def test_exceptional_groups_match_their_generator_matrices(name):
    g = build_exceptional(name)
    blob = repr(
        (
            g.name,
            g.rank,
            g.conductor,
            [r.matrix.entries for r in g.reflections],
            g.conj_table,
            g.classes,
        )
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == EXCEPTIONAL_SHA256[name]


@pytest.mark.parametrize(
    "name", ["A3", "B3", "G(4,2,3)", "G(5,5,3)", "H3", "F4", "G12", "G13", "G22", "G24"]
)
def test_conj_table_matches_matrix_conjugation(name):
    from crg.cli import build_group, parse_group

    g = build_group(parse_group(name))
    mats = [refl.matrix for refl in g.reflections]
    index = {m: i for i, m in enumerate(mats)}
    table = g.conj_table
    for y, my in enumerate(mats):
        row = table[y]
        assert row[y] == y
        for s, ms in enumerate(mats):
            assert row[s] == index[my * ms * my]
            assert row[row[s]] == s
    for y in range(g.size):
        for s in range(g.size):
            ysy = table[table[y][s]]
            assert ysy == tuple(table[y][table[s][table[y][t]]] for t in range(g.size))


def test_assemble_rejects_a_set_not_closed_under_conjugation():
    from crg.groups import _assemble, _root_keys

    q = cyclotomic_field(1)
    roots = [tuple(q.from_rational(x) for x in r) for r in ((1, -1, 0), (0, 1, -1))]
    with pytest.raises(ValueError, match="not conjugation-closed"):
        _assemble("A2 minus one", 3, 1, _root_keys(roots), 2)


def test_assemble_refuses_a_wrong_reflection_count():
    from crg.groups import _assemble, _root_keys

    q = cyclotomic_field(1)
    roots = [
        tuple(q.from_rational(x) for x in r) for r in ((1, -1, 0), (0, 1, -1), (1, 0, -1))
    ]
    with pytest.raises(ValueError, match="A2: built 3 reflections, expected 4"):
        _assemble("A2", 3, 1, _root_keys(roots), 4)
