"""Acceptance gate: every shipped table row, identity, and model is
recomputed from scratch and compared exactly (rational arithmetic, no
tolerances). One test per criterion; budgets are wall-clock seconds on a
single core."""

import itertools
import json
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

import crg.tensor as tensor
from crg.cli import build_group, parse_group
from crg.groups import build_coxeter, data_dir
from crg.krammer import build_krammer, check_braid_relations, cubic_specialization_check
from crg.quadratic import check_n_c, closed_form_check, conjecture_scan, discriminant
from crg.rep import (
    build_rep,
    check_T_scalar,
    check_equivariance,
    check_integrability,
    dihedral_m0_check,
    parabolic_restriction_check,
    spectrum_check,
)
from crg.arrangement import parabolic_reflections
from crg.tensor import (
    _excluded,
    algebra_dimension,
    ds_table_check,
    psu_membership_check,
    tensor_square_check,
)

CLOSED_FORM_GROUPS = (
    [f"A{n}" for n in range(2, 7)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(4, 7)]
    + [f"I2({e})" for e in range(3, 15)]
)
SERIES_GROUPS = (
    [f"G({e},{e},3)" for e in range(3, 11)]
    + [f"G({e},{e},4)" for e in range(3, 7)]
    + [f"G({e},{e},5)" for e in range(3, 6)]
)
TWO_PARAM_GROUPS = (
    [f"G({2 * e},{e},2)" for e in range(1, 11)]
    + [f"G({2 * e},{e},3)" for e in range(2, 7)]
    + [f"G({2 * e},{e},4)" for e in range(2, 5)]
)
ROOT_SYSTEM_GROUPS = ["G23", "G28", "G30", "G35", "G36", "G37"]
DATA_GROUPS = ["G12", "G13", "G22", "G24"]
ALL_GROUPS = (
    CLOSED_FORM_GROUPS
    + SERIES_GROUPS
    + TWO_PARAM_GROUPS
    + ROOT_SYSTEM_GROUPS
    + DATA_GROUPS
)


@lru_cache(maxsize=None)
def _group(name: str):
    return build_group(parse_group(name))


@lru_cache(maxsize=None)
def _bundle(name: str):
    return build_rep(_group(name))


@lru_cache(maxsize=None)
def _fixture() -> dict:
    with open(data_dir() / "tables.json") as fh:
        rows = json.load(fh)
    table: dict[str, list] = {}
    for row in rows:
        key = (row["class_size"], row["sign"], tuple(tuple(f) for f in row["factors"]))
        table.setdefault(row["group"], []).append(key)
    return {name: sorted(keys) for name, keys in table.items()}


def _computed_rows(name: str) -> list:
    g = _group(name)
    out = []
    for c, members in enumerate(g.classes):
        d = discriminant(g, c)
        assert d.remainder.degree == 0 and d.remainder.coeffs == (1,), (name, c)
        out.append((len(members), d.sign, d.factors))
    return sorted(out)


def _assert_rows_match(names) -> None:
    fixture = _fixture()
    for name in names:
        assert _computed_rows(name) == fixture[name], name


def test_closed_form_determinants_with_signs_logged():
    start = time.monotonic()
    signs = []
    for name in CLOSED_FORM_GROUPS:
        report = closed_form_check(_group(name))
        assert report["ok"], report
        for case in report["cases"]:
            signs.append((name, case["class_size"], case["computed_sign"]))
    print("computed signs:", signs)
    assert time.monotonic() - start < 30


def test_single_parameter_series_rows():
    start = time.monotonic()
    _assert_rows_match(SERIES_GROUPS)
    assert time.monotonic() - start < 180


def test_two_parameter_series_rows():
    start = time.monotonic()
    _assert_rows_match(TWO_PARAM_GROUPS)
    assert time.monotonic() - start < 180


def test_root_system_rows():
    start = time.monotonic()
    _assert_rows_match(ROOT_SYSTEM_GROUPS)
    assert len(_group("G36").classes[0]) == 63
    assert len(_group("G37").classes[0]) == 120
    assert time.monotonic() - start < 600


def test_shipped_generator_rows():
    start = time.monotonic()
    _assert_rows_match(DATA_GROUPS)
    assert time.monotonic() - start < 120


def test_largest_eigenvalue_is_simple_everywhere():
    for name in ALL_GROUPS:
        g = _group(name)
        for c in range(len(g.classes)):
            assert check_n_c(g, c), (name, c)


def test_integrability_and_equivariance():
    start = time.monotonic()
    for name in ALL_GROUPS:
        bundle = _bundle(name)
        assert check_integrability(bundle).ok, name
        assert check_equivariance(bundle).ok, name
    assert time.monotonic() - start < 60


def test_sum_of_generators_acts_as_scalar():
    for name in ALL_GROUPS:
        bundle = _bundle(name)
        for c in range(len(bundle.group.classes)):
            assert check_T_scalar(bundle, c), (name, c)


def test_spectrum_for_all_m_other_than_one_and_at_minus_one():
    for name in ALL_GROUPS:
        g = _group(name)
        bundle = _bundle(name)
        for c, members in enumerate(g.classes):
            assert spectrum_check(bundle, members[0]), (name, c)
            assert spectrum_check(bundle, members[0], -1), (name, c)
    with pytest.raises(ValueError):
        spectrum_check(_bundle("A2"), 0, 1)


def test_generated_algebra_dimensions(monkeypatch):
    def refuse(gens):
        raise AssertionError("Bareiss fallback reached")

    # every root dimension rests on the annihilator certificate
    monkeypatch.setattr(tensor, "_exact_span_dimension", refuse)
    start = time.monotonic()
    names = ["A2", "A3", "A4", "B2", "B3", "D4", "H3"] + [
        f"I2({e})" for e in range(3, 10)
    ]
    for name in names:
        g = _group(name)
        bundle = _bundle(name)
        for c, members in enumerate(g.classes):
            size = len(members)
            assert size <= 15, (name, c)
            d = discriminant(g, c)
            n_c = max(root for root, _ in d.factors)
            full = algebra_dimension(
                [bundle.t_block(s, members, Fraction(n_c + 2)) for s in members]
            )
            assert full == size * size, (name, c)
            for root, _ in d.factors:
                if root == -1:
                    continue
                degenerate = algebra_dimension(
                    [bundle.t_block(s, members, Fraction(root)) for s in members]
                )
                assert degenerate < size * size, (name, c, root)
    assert time.monotonic() - start < 60


def _square_point(bundle, c: int) -> Fraction:
    m0 = Fraction(7)
    while _excluded(bundle, c, m0):
        m0 += 1
    return m0


def _representative_pairs(g, limit: int = 5):
    per_class = [
        [(c, a, b) for a, b in combinations(members, 2)]
        for c, members in enumerate(g.classes)
    ]
    interleaved = [
        pair
        for chunk in itertools.zip_longest(*per_class)
        for pair in chunk
        if pair is not None
    ]
    return interleaved[:limit]


def test_ds_table_on_every_class():
    start = time.monotonic()
    for name in ALL_GROUPS:
        g = _group(name)
        bundle = _bundle(name)
        for c, members in enumerate(g.classes):
            assert ds_table_check(bundle, members[0], c), (name, c)
    assert time.monotonic() - start < 60


def test_tensor_square_suite():
    start = time.monotonic()
    for name in ("I2(5)", "I2(7)", "A3", "B2"):
        g = _group(name)
        bundle = _bundle(name)
        for c, members in enumerate(g.classes):
            assert ds_table_check(bundle, members[0], c), (name, c)
            report = tensor_square_check(bundle, c, _square_point(bundle, c))
            assert report["ok"], (name, c, report)
        for c, s, u in _representative_pairs(g):
            assert psu_membership_check(bundle, c, s, u, Fraction(7)), (name, c, s, u)
    assert time.monotonic() - start < 600


def _seed_with_closure(g, seed_size: int, closure_size: int):
    for seed in combinations(range(g.size), seed_size):
        if len(parabolic_reflections(g, seed)) == closure_size:
            return seed
    raise AssertionError((g.name, seed_size, closure_size))


def test_parabolic_restrictions():
    for name, seed_size, closure_size in (
        ("B3", 2, 3),
        ("A4", 3, 6),
        ("A4", 2, 2),
        ("D4", 3, 6),
    ):
        g = _group(name)
        seed = _seed_with_closure(g, seed_size, closure_size)
        assert parabolic_restriction_check(_bundle(name), seed), (name, seed)


def test_dihedral_zero_parameter_suite():
    for e in (3, 5, 7, 9):
        assert dihedral_m0_check(e), e


def test_braid_relations_and_cubic_specialization():
    start = time.monotonic()
    for n in range(2, 6):
        assert check_braid_relations(build_krammer(n)), n
    for n in (3, 4, 5):
        assert cubic_specialization_check(build_krammer(n)), n
    assert time.monotonic() - start < 60


def test_conjecture_scan_enumerates_all_cases():
    report = conjecture_scan(9, 5)
    seen = {(case["e"], case["r"]) for case in report["cases"]}
    assert seen == {(e, r) for e in (3, 5, 7, 9) for r in (3, 4, 5)}
    for case in report["cases"]:
        assert case["reflections"] <= 90
        if not case["match"]:
            print("formula mismatch:", case)
    print("all cases match:", report["all_match"])


def test_tampered_alpha_is_detected():
    g = build_coxeter("A", 2)
    alpha = [list(row) for row in g.alpha]
    alpha[0][1] += 1
    mutated = build_rep(g, alpha)
    integrability = check_integrability(mutated)
    broken = not integrability.ok or not check_equivariance(mutated).ok
    assert broken
    assert integrability.route == "all flats"
