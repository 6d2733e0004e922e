"""Reflection group construction, conjugation tables, and class data."""

import pytest

from crg.cyclotomic import cyclotomic_field
from crg.groups import (
    alpha,
    build_coxeter,
    build_from_generators,
    build_series,
    class_stats,
    k_c,
    load_generator_group,
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
    with pytest.raises(ValueError, match="no generator data"):
        load_generator_group("G99")


def test_loaded_generator_groups():
    expected = {
        "G12": (12, [12], [11]),
        "G13": (18, [6, 12], [17, 17]),
        "G22": (30, [30], [29]),
        "G24": (21, [21], [17]),
    }
    for name, (count, sizes, n_values) in expected.items():
        g = load_generator_group(name)
        assert g.name == name
        assert len(g.reflections) == count
        assert sorted(len(m) for m in g.classes) == sizes
        got_n = sorted(class_stats(g, c)[0] for c in range(len(g.classes)))
        assert got_n == sorted(n_values)


def test_loaded_groups_closed_under_conjugation():
    g = load_generator_group("G13")
    for y in range(g.size):
        for s in range(g.size):
            assert g.class_of[g.conj_table[y][s]] == g.class_of[s]


def test_data_dir_env_override(tmp_path, monkeypatch):
    import shutil

    from crg.groups import data_dir

    shutil.copy(data_dir() / "G12.json", tmp_path / "G12.json")
    monkeypatch.setenv("CRG_DATA_DIR", str(tmp_path))
    assert data_dir() == tmp_path
    assert len(load_generator_group("G12").reflections) == 12
    with pytest.raises(ValueError, match="no generator data"):
        load_generator_group("G13")


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


def _rational_data(*generators, expected=3):
    """Generator data over Q in rank 2; each generator is four integers."""
    return {
        "name": "T",
        "rank": 2,
        "conductor": 1,
        "expected_reflection_count": expected,
        "generators": [[{"num": [x], "den": 1} for x in g] for g in generators],
    }


# the simple reflections of A2 in the basis of simple roots
S1 = (-1, 1, 0, 1)
S2 = (1, 0, 1, -1)


def test_build_from_generators_closes_a2():
    g = build_from_generators(_rational_data(S1, S2))
    assert g.size == 3 and len(g.classes) == 1


@pytest.mark.parametrize(
    "generators, message",
    [
        ([S1, (1, 1, 0, 1)], "order is not 2"),
        ([S1, (-1, 0, 0, -1)], "rank exceeds 1"),
        ([S1, (1, 0, 0, 1)], "equals the identity"),
    ],
)
def test_build_from_generators_rejects_non_reflections(generators, message):
    with pytest.raises(ValueError, match=f"generator fails the reflection test: {message}"):
        build_from_generators(_rational_data(*generators))


@pytest.mark.parametrize(
    "generators, expected", [([S1], 3), ([S1, S2], 2), ([S1, S2], 4)]
)
def test_build_from_generators_metadata_mismatch(generators, expected):
    data = _rational_data(*generators, expected=expected)
    with pytest.raises(ValueError, match="metadata mismatch"):
        build_from_generators(data)


def test_assemble_rejects_a_set_not_closed_under_conjugation():
    from crg.groups import _assemble, _real_root_keys

    q = cyclotomic_field(1)
    roots = [tuple(q.from_rational(x) for x in r) for r in ((1, -1, 0), (0, 1, -1))]
    with pytest.raises(ValueError, match="not conjugation-closed"):
        _assemble("A2 minus one", 3, 1, _real_root_keys(roots), 2)
