"""Codimension-2 flats, containment queries, and parabolic closures."""

import copy
import time
from math import comb

import pytest

from crg import arrangement
from crg.arrangement import _in_rowspan, _rref, codim2_flats, parabolic_reflections
from crg.cli import build_group, parse_group
from crg.groups import build_coxeter, build_series
from references import reflection_matrix


def is_diagonal(g, s):
    m = reflection_matrix(g.reflections[s])
    return all(m[i, j] == 0 for i in range(g.rank) for j in range(g.rank) if i != j)


def test_a2_single_flat():
    g = build_coxeter("A", 2)
    table = codim2_flats(g)
    assert [f.members for f in table.flats] == [(0, 1, 2)]


def test_b2_single_flat():
    g = build_coxeter("B", 2)
    table = codim2_flats(g)
    assert [f.members for f in table.flats] == [(0, 1, 2, 3)]


def test_a3_flat_census():
    g = build_coxeter("A", 3)
    table = codim2_flats(g)
    sizes = sorted(len(f.members) for f in table.flats)
    assert sizes == [2, 2, 2, 3, 3, 3, 3]


def test_pair_map_total_and_disjoint():
    for g in [
        build_coxeter("A", 3),
        build_coxeter("B", 3),
        build_series(3, 3, 3),
        build_coxeter("H3"),
    ]:
        table = codim2_flats(g)
        n = g.size
        assert len(table.pair_to_flat) == comb(n, 2)
        assert sum(comb(len(f.members), 2) for f in table.flats) == comb(n, 2)
        for s in range(n):
            for u in range(s + 1, n):
                flat = table.flat_of_pair(s, u)
                assert s in flat.members and u in flat.members


def test_disjoint_transpositions_span_their_own_flat():
    g = build_coxeter("A", 3)
    table = codim2_flats(g)
    pairs = [f.members for f in table.flats if len(f.members) == 2]
    assert len(pairs) == 3
    for s, u in pairs:
        assert table.flat_of_pair(s, u).members == (s, u)


def test_single_reflection_has_no_flats():
    g = build_coxeter("A", 1)
    table = codim2_flats(g)
    assert len(table) == 0


def test_parabolic_of_b3_transposition_pair():
    g = build_coxeter("B", 3)
    trans = [s for s in range(g.size) if not is_diagonal(g, s)]
    closures = set()
    for i, s in enumerate(trans):
        for u in trans[i + 1 :]:
            members = parabolic_reflections(g, [s, u])
            if len(members) == 3:
                closures.add(members)
                assert all(x in trans for x in members)
    # The triples inside B3 are copies of the transposition triangle.
    assert closures


def test_parabolic_full_seed_gives_everything():
    g = build_coxeter("A", 3)
    assert parabolic_reflections(g, range(g.size)) == tuple(range(g.size))


def test_parabolic_rejects_empty_seed():
    g = build_coxeter("A", 2)
    with pytest.raises(ValueError):
        parabolic_reflections(g, [])


def test_parabolic_closed_under_mutual_conjugation():
    for g in [build_coxeter("B", 3), build_series(4, 4, 3), build_coxeter("H3")]:
        seeds = [[0, 1], [g.size - 1, g.size // 2]]
        for seed in seeds:
            members = set(parabolic_reflections(g, seed))
            for y in members:
                for x in members:
                    assert g.conj_table[y][x] in members


def test_third_reflection_in_every_nonsplit_pair():
    # If conjugating u by y moves it, y lies in the flat spanned by u and yuy.
    for g in [
        build_coxeter("A", 3),
        build_coxeter("B", 3),
        build_series(3, 3, 3),
        build_coxeter("H3"),
        build_coxeter("F4"),
    ]:
        table = codim2_flats(g)
        for y in range(g.size):
            for u in range(g.size):
                t = g.conj_table[y][u]
                if t != u:
                    assert y in table.flat_of_pair(u, t).members


def test_flats_match_the_parabolic_closure_of_every_pair():
    # Independent exact route: the hyperplanes containing H_s and H_u, one
    # row reduction of coforms per pair and no residues, against the
    # orbit-closed roots and against parabolic_reflections.
    for name in ("A3", "B3", "G(4,2,3)", "G(3,3,4)", "G24"):
        g = build_group(parse_group(name))
        table = codim2_flats(g)
        coforms = [list(refl.coform) for refl in g.reflections]
        for s in range(g.size):
            for u in range(s + 1, g.size):
                span = _rref([coforms[s], coforms[u]])
                reference = tuple(x for x in range(g.size) if _in_rowspan(coforms[x], span))
                members = table.flat_of_pair(s, u).members
                assert members == reference == parabolic_reflections(g, [s, u]), (name, s, u)


def test_a_shared_residue_key_falls_back_to_row_reduction(monkeypatch):
    # Two planes through s0 forced onto one key mod p: the Cramer identity
    # refuses the merge, and exact row reduction finds the same flats.
    g = build_coxeter("A", 3)
    clean = codim2_flats(g)
    assert clean.fallbacks == 0
    s0 = g.classes[0][0]
    u = next(u for u in range(g.size) if u != s0)
    x = next(x for x in range(g.size) if x not in clean.flat_of_pair(s0, u).members)
    residues = arrangement._residues

    def collided(vecs, point):
        res = residues(vecs, point)
        res[x] = res[u]
        return res

    monkeypatch.setattr(arrangement, "_residues", collided)
    bad = copy.copy(g)
    bad.__dict__.pop("_flat_table", None)
    table = codim2_flats(bad)
    assert table.fallbacks == len(g.classes) == 1
    assert [f.members for f in table.flats] == [f.members for f in clean.flats]


def test_parabolic_closure_tests_every_form_when_the_rank_drops_mod_p(monkeypatch):
    g = build_coxeter("B", 3)
    expected = parabolic_reflections(g, [0, 1])
    residues, in_rowspan = arrangement._residues, arrangement._in_rowspan
    tested = []

    def collided(vecs, point):
        res = residues(vecs, point)
        res[1] = res[0]
        return res

    def counted(vec, rows):
        tested.append(vec)
        return in_rowspan(vec, rows)

    monkeypatch.setattr(arrangement, "_residues", collided)
    monkeypatch.setattr(arrangement, "_in_rowspan", counted)
    assert parabolic_reflections(g, [0, 1]) == expected
    assert len(tested) == g.size


@pytest.mark.parametrize("name", ["I2(199)", "G(200,200,2)"])
def test_large_rank_two_groups_have_one_flat(name):
    g = build_group(parse_group(name))
    start = time.perf_counter()
    table = codim2_flats(g)
    assert time.perf_counter() - start < 30
    assert [f.members for f in table.flats] == [tuple(range(g.size))]
    assert table.fallbacks == 0


@pytest.mark.parametrize(
    "name, count", [("E6", 390), ("E7", 1281), ("H4", 722), ("E8", 4900)]
)
def test_flat_counts_of_large_groups(name, count):
    g = build_group(parse_group(name))
    table = codim2_flats(g)
    assert len(table) == count
    assert len(table.pair_to_flat) == comb(g.size, 2)


def test_wrong_generator_row_is_refused():
    g = build_coxeter("A", 3)
    w = g.generators[0]
    bad = copy.copy(g)
    bad.__dict__.pop("_flat_table", None)
    row = list(g.conj_table[w])
    row[0], row[1] = row[1], row[0]
    bad.conj_table = tuple(tuple(row) if y == w else r for y, r in enumerate(g.conj_table))
    with pytest.raises(RuntimeError, match="not a flat"):
        codim2_flats(bad)
