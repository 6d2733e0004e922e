"""Class Gram matrices, determinant factorizations, closed forms."""

import json
from fractions import Fraction

import pytest

from crg.groups import build_coxeter, build_series, class_stats
from crg.matrices import ExactMatrix
from crg.polynomials import ParamPoly
from crg.quadratic import (
    _A_FORMULA,
    _B_DIAG,
    _B_TRANS,
    _D_FORMULA,
    _I_EVEN,
    _I_ODD,
    Discriminant,
    _closed_form,
    check_n_c,
    conjecture_scan,
    discriminant,
    gram_matrix,
    kernel_at,
)


def test_gram_matrix_small_cases():
    a2 = gram_matrix(build_coxeter("A", 2), 0)
    assert a2 == ExactMatrix.from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    i5 = gram_matrix(build_coxeter("I2", 5), 0)
    assert i5 == ExactMatrix.from_rows([[1] * 5 for _ in range(5)])
    b2 = build_coxeter("B", 2)
    diag_class = next(
        c
        for c, members in enumerate(b2.classes)
        if all(
            b2.reflections[s].matrix[0, 1] == 0 for s in members
        )
    )
    assert gram_matrix(b2, diag_class) == ExactMatrix.from_rows([[1, 2], [2, 1]])


def test_discriminant_examples():
    cases = [
        (build_series(3, 3, 3), 0, -1, ((9, 1), (0, 8))),
        (build_coxeter("H3"), 0, -1, ((13, 1), (1, 10), (-2, 4))),
        (build_coxeter("A", 4), 0, 1, ((7, 1), (2, 4), (-1, 5))),
        (build_coxeter("I2", 7), 0, -1, ((7, 1), (0, 6))),
    ]
    for g, c, sign, factors in cases:
        disc = discriminant(g, c)
        assert disc.sign == sign
        assert disc.factors == factors
        assert disc.remainder.degree == 0


def test_discriminant_poly_roundtrip():
    g = build_coxeter("B", 3)
    for c in range(len(g.classes)):
        disc = discriminant(g, c)
        members = g.classes[c]
        assert disc.poly().degree == len(members)


def test_n_c_dominates():
    for g in [
        build_coxeter("A", 4),
        build_coxeter("B", 3),
        build_coxeter("D", 4),
        build_series(3, 3, 3),
        build_coxeter("I2", 7),
        build_coxeter("H3"),
        build_coxeter("F4"),
    ]:
        for c in range(len(g.classes)):
            assert check_n_c(g, c)


def test_kernel_at_examples():
    i5 = build_coxeter("I2", 5)
    kernel = kernel_at(i5, 0, 0)
    assert len(kernel) == 4
    assert all(sum(v) == 0 for v in kernel)
    a2 = build_coxeter("A", 2)
    kernel = kernel_at(a2, 0, 3)
    assert kernel == [[Fraction(1), Fraction(1), Fraction(1)]]


def test_kernel_vectors_satisfy_eigen_equation():
    g = build_coxeter("B", 3)
    for c in range(len(g.classes)):
        n_c, _ = class_stats(g, c)
        a_c = gram_matrix(g, c)
        for v in kernel_at(g, c, n_c):
            image = a_c * ExactMatrix(len(v), 1, v)
            assert image == ExactMatrix(len(v), 1, [n_c * x for x in v])


def test_form_is_negative_definite_past_the_top_root():
    for g in [
        build_coxeter("A", 3),
        build_coxeter("B", 3),
        build_series(3, 3, 3),
        build_series(6, 3, 2),
        build_coxeter("I2", 8),
        build_coxeter("H3"),
    ]:
        for c in range(len(g.classes)):
            # A_c is symmetric, so A_c - (n_c + 1) I is negative definite exactly
            # when every eigenvalue, every root of det(A_c - m I), is at most n_c
            n_c, _ = class_stats(g, c)
            disc = discriminant(g, c)
            assert disc.remainder == 1
            assert all(root <= n_c for root, _ in disc.factors)


def test_gram_invariant_under_conjugation():
    for g in [build_coxeter("B", 3), build_series(3, 3, 3)]:
        for members in g.classes:
            for y in range(g.size):
                for s in members:
                    for u in members:
                        if s != u:
                            assert (
                                g.alpha[g.conj_table[y][s]][g.conj_table[y][u]]
                                == g.alpha[s][u]
                            )


def test_closed_forms():
    # every class against its closed formula; a sign the formula leaves open
    # is (-1)^d for a fully factored class of d reflections
    cases = [("A", 3, [(_A_FORMULA, 4)]), ("A", 4, [(_A_FORMULA, 5)])]
    cases += [("B", n, [(_B_DIAG, n), (_B_TRANS, n)]) for n in (2, 3, 4)]
    cases += [("D", n, [(_D_FORMULA, n)]) for n in (4, 5)]
    cases += [("I2", e, [(_I_ODD, e)] if e % 2 else [(_I_EVEN, e)] * 2) for e in (5, 6, 7, 8)]
    for kind, rank, forms in cases:
        g = build_coxeter(kind, rank)
        discs = [discriminant(g, c) for c in range(len(g.classes))]
        assert all(d.remainder.coeffs == (1,) for d in discs), (kind, rank)
        expected = []
        for factors, sign in (_closed_form(*form) for form in forms):
            expected.append((factors, (-1) ** sum(m for _, m in factors) if sign is None else sign))
        assert sorted((d.factors, d.sign) for d in discs) == sorted(expected), (kind, rank)


def test_closed_form_rejects_uncovered_groups():
    with pytest.raises(ValueError, match="unknown closed form 'h3'"):
        _closed_form("h3", 3)


def test_conjecture_scan_enumerates_and_matches():
    report = conjecture_scan(5, 4)
    assert {(case["e"], case["r"]) for case in report["cases"]} == {
        (3, 3),
        (3, 4),
        (5, 3),
        (5, 4),
    }
    assert report["all_match"]


def test_fixture_rows_come_from_certified_spectra(monkeypatch):
    # every shipped row, E8 (G37) included, is decided without Berkowitz
    import crg.quadratic
    from crg.cli import build_group, parse_group
    from crg.groups import data_dir

    def no_char_poly(mat):
        raise AssertionError("Berkowitz fallback taken")

    monkeypatch.setattr(crg.quadratic, "char_poly", no_char_poly)
    with open(data_dir() / "tables.json") as fh:
        rows = json.load(fh)
    fixture: dict[str, list] = {}
    for row in rows:
        key = (row["class_size"], row["sign"], tuple(tuple(f) for f in row["factors"]))
        fixture.setdefault(row["group"], []).append(key)
    checked = set()
    for name, expected in fixture.items():
        try:
            g = build_group(parse_group(name))
        except ValueError:  # no construction ships for this group yet
            continue
        computed = []
        for c, members in enumerate(g.classes):
            disc = discriminant(g, c)
            assert disc.remainder == ParamPoly((1,)), (name, c)
            computed.append((len(members), disc.sign, disc.factors))
        assert sorted(computed) == sorted(expected), name
        checked.add(name)
    assert "G37" in checked
    assert set(fixture) - checked <= {"G27", "G29", "G31", "G33", "G34"}
