import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crg.tensor as tensor
from crg.groups import build_coxeter, build_series
from crg.matrices import ExactMatrix, rank_and_kernel
from crg.rep import _block, build_rep
from crg.tensor import (
    _MAX_WIDTH,
    _PRIMES,
    _ModSpan,
    _SpanGrowth,
    _annihilates_algebra,
    _block_relations,
    _certified_dimension,
    _ds_table_at,
    _exact_span_dimension,
    _grow_mod_span,
    _int_blocks,
    _integer_matrix,
    _lifted_annihilator,
    _mulmod,
    _regular_rep,
    _square_blocks,
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


def test_exact_route_at_degenerate_points():
    g = build_coxeter("A", 4)
    b = build_rep(g)
    members = next(cl for cl in g.classes if len(cl) == 10)
    at = lambda m0: [b.t_block(s, members, Fraction(m0)) for s in members]
    assert algebra_dimension(at(7)) == 91
    assert algebra_dimension(at(2)) == 76
    g = build_coxeter("I2", 6)
    b = build_rep(g)
    for members in g.classes:
        assert algebra_dimension([b.t_block(s, members, Fraction(5)) for s in members]) == 7


def _rational_closure_dimension(gens: list[ExactMatrix]) -> int:
    """Reference: breadth-first words over Fractions, independence by exact rank."""
    n = gens[0].rows
    basis: list[list[Fraction]] = []

    def add(word: ExactMatrix) -> bool:
        rows = basis + [list(word.entries)]
        rank, _ = rank_and_kernel(ExactMatrix.from_rows(rows))
        if rank > len(basis):
            basis.append(list(word.entries))
            return True
        return False

    frontier = [ExactMatrix.identity(n, Fraction(1))]
    add(frontier[0])
    while frontier:
        frontier = [prod for word in frontier for gen in gens if add(prod := word * gen)]
    return len(basis)


_random_generators = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n),
            st.sampled_from((1, 2, 3)),
        ),
        min_size=1,
        max_size=3,
    ).map(
        lambda gens: [
            ExactMatrix(n, n, [Fraction(x, den) for x in entries]) for entries, den in gens
        ]
    )
)


@settings(max_examples=30, deadline=None)
@given(_random_generators)
def test_exact_span_dimension_matches_rational_rank(gens):
    assert _exact_span_dimension([_integer_matrix(g) for g in gens]) == (
        _rational_closure_dimension(gens)
    )


def _certificate(gens: list[np.ndarray]) -> int | None:
    p = _PRIMES[0]
    return _certified_dimension(gens, _grow_mod_span([g % p for g in gens], len(gens[0]), p))


@settings(max_examples=30, deadline=None)
@given(_random_generators)
def test_certified_dimension_is_the_rational_dimension_or_refuses(gens):
    expected = _rational_closure_dimension(gens)
    assert algebra_dimension(gens) == expected
    assert _certificate([_integer_matrix(g) for g in gens]) in (None, expected)


def test_certificate_refuses_a_bad_prime():
    p = _PRIMES[0]
    # congruent to I mod p: one word mod p, two over Q
    gen = ExactMatrix.from_rows([[Fraction(1), Fraction(p)], [Fraction(0), Fraction(1)]])
    assert _certificate([_integer_matrix(gen)]) is None
    assert algebra_dimension([gen]) == 2


def _root_generators(name, rank, m0):
    g = build_coxeter(name, rank)
    b = build_rep(g)
    members = max(g.classes, key=len)
    return [_integer_matrix(b.t_block(s, members, Fraction(m0))) for s in members]


# scaled by 2**62, the generators push the certificate's checks onto Python ints
_CHECK_ROUTES = pytest.mark.parametrize("scale", [1, 2**62], ids=["int64", "python-int"])


@_CHECK_ROUTES
def test_tampered_annihilator_row_fails_closure(scale):
    p = _PRIMES[0]
    for name, rank, m0 in (("A", 2, 0), ("I2", 5, 0), ("A", 4, 2)):
        gens = [scale * g for g in _root_generators(name, rank, m0)]
        n = len(gens[0])
        span = _grow_mod_span([g % p for g in gens], n, p)
        pivots = span._pivots[: span.dim]
        y = _lifted_annihilator(span)
        assert _annihilates_algebra(gens, y, pivots)
        off_diagonal = [col for col in pivots if col % (n + 1)]
        for row in range(len(y)):
            tampered = y.copy()
            tampered[row, off_diagonal[row % len(off_diagonal)]] += 1
            # the trace is unchanged, so check (a) still holds and (b) must fail
            assert not tampered[:, :: n + 1].sum(axis=1).any()
            assert not _annihilates_algebra(gens, tampered, pivots), (name, row)


def test_invariant_subspace_without_identity_fails_the_trace_check():
    e11 = np.array([[1, 0], [0, 0]], dtype=object)
    # the algebra is the diagonal, annihilated by E12 and E21
    assert _annihilates_algebra([e11], np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=object), [0, 3])
    # span{E11, E21} is closed under X -> X E11 but misses I: annihilated by E12 and E22
    assert not _annihilates_algebra(
        [e11], np.array([[0, 1, 0, 0], [0, 0, 0, 1]], dtype=object), [0, 2]
    )


@_CHECK_ROUTES
def test_root_dimensions_are_certified(monkeypatch, scale):
    def refuse(gens):
        raise AssertionError("Bareiss fallback reached")

    monkeypatch.setattr(tensor, "_exact_span_dimension", refuse)
    for name, rank, m0, dim in (("A", 4, 7, 91), ("A", 4, 2, 76), ("I2", 5, 0, 13)):
        gens = [scale * g for g in _root_generators(name, rank, m0)]
        assert _certificate(gens) == dim
        assert tensor._span_dimension(gens) == dim


def test_algebra_dimension_takes_no_inverse_mod_p():
    swap = ExactMatrix.from_rows([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    for den in (3, _PRIMES[0]):
        gen = ExactMatrix.from_rows([[Fraction(1, den), Fraction(1)], [Fraction(0), Fraction(2)]])
        assert algebra_dimension([gen, swap]) == 4


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
    members = g.classes[0]
    assert members == (0, 1, 2)
    eye = ExactMatrix.identity(3, Fraction(1))
    for m0 in (Fraction(0), Fraction(1), Fraction(-3), Fraction(22, 7)):
        # the A2 generator t_0 = s_0 - p_0 at m0
        t = [[m0, -1, -1], [0, 0, 1], [0, 1, 0]]
        p = [[1 - m0, 1, 1], [0, 0, 0], [0, 0, 0]]
        t, p = (ExactMatrix.from_rows([[Fraction(x) for x in r] for r in m]) for m in (t, p))
        s = ExactMatrix.from_rows(_block(b.s_cols(0), members, 0))
        assert b.t_block(0, members, m0) == t
        assert s - t == p
        assert s * s == eye
        assert s * p == p and p * s == p
        assert p * p == (1 - m0) * p
        assert _block_relations(b, 0, members, m0)


def test_regular_representation_models_the_block_relations():
    eye = np.identity(3, dtype=object)
    for m in range(8):
        l_s, l_p = _regular_rep(m)
        assert np.array_equal(l_s @ l_s, eye)
        assert np.array_equal(l_s @ l_p, l_p) and np.array_equal(l_p @ l_s, l_p)
        assert np.array_equal(l_p @ l_p, (1 - m) * l_p)
        # I, L_s, L_p independent: the representation of span{1, s, p} is faithful
        stacked = ExactMatrix.from_rows([x.ravel().tolist() for x in (eye, l_s, l_p)])
        assert rank_and_kernel(stacked)[0] == 3
        assert _ds_table_at(m)


@pytest.mark.parametrize(
    "g", [build_coxeter("A", 3), build_coxeter("B", 3), build_series(3, 3, 3)], ids=lambda g: g.name
)
def test_tampered_alpha_inside_a_class_fails_the_ds_table(g):
    tampered = 0
    for c, members in enumerate(g.classes):
        s = members[0]
        u = next((u for u in members if g.conj_table[s][u] != u), None)
        if u is None:  # every member commutes with s: p s = p survives the change
            continue
        alpha = [list(row) for row in g.alpha]
        alpha[s][u] += 1
        assert ds_table_check(build_rep(g), s, c)
        assert not ds_table_check(build_rep(g, alpha), s, c), c
        tampered += 1
    assert tampered


def test_tensor_ops_refuses_large_class():
    g = build_coxeter("H3")
    b = build_rep(g)
    assert len(g.classes[0]) == 15
    # the operator table has no size limit; the closures keep theirs
    assert ds_table_check(b, 0, 0)
    with pytest.raises(ValueError, match="<= 12"):
        tensor_square_check(b, 0, Fraction(7))
    # 13 is a root of the class discriminant: the gate must hold on the root route too
    for m0 in (Fraction(7), Fraction(13)):
        with pytest.raises(ValueError, match="<= 12"):
            psu_membership_check(b, 0, 0, 1, m0)


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


def test_membership_refuses_a_denominator_divisible_by_its_prime(monkeypatch):
    g = build_coxeter("A", 2)
    b = build_rep(g)
    # squares that are not full send membership to the mod-p route
    monkeypatch.setattr(tensor, "tensor_square_check", lambda *args: {"ok": False})
    with pytest.raises(ValueError, match=f"divisible by the prime {_PRIMES[0]}"):
        psu_membership_check(b, 0, 0, 1, Fraction(1, _PRIMES[0]))


def _insert_one_at_a_time(basis: dict[int, list[int]], vec: list[int], p: int) -> bool:
    """Reference: reduce against a mutually reduced basis in Python ints, then insert."""
    vec = [x % p for x in vec]
    for piv, row in basis.items():
        if vec[piv]:
            c = vec[piv]
            vec = [(x - c * y) % p for x, y in zip(vec, row)]
    nonzero = [i for i, x in enumerate(vec) if x]
    if not nonzero:
        return False
    piv = nonzero[0]
    inv = pow(vec[piv], -1, p)
    vec = [x * inv % p for x in vec]
    for key, row in basis.items():
        if row[piv]:
            c = row[piv]
            basis[key] = [(x - c * y) % p for x, y in zip(row, vec)]
    basis[piv] = vec
    return True


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda width: st.lists(
            st.lists(
                st.lists(st.lists(st.integers(-2, 2), min_size=width, max_size=width), max_size=6),
                max_size=4,
            ),
            max_size=4,
        )
    ),
    st.sampled_from((3, _PRIMES[0])),
)
def test_batched_span_matches_one_at_a_time_insertion(levels, p):
    width = next((len(v) for blocks in levels for b in blocks for v in b), 1)
    span = _ModSpan(width, p)
    basis: dict[int, list[int]] = {}
    for blocks in levels:
        for block in blocks:
            expected = [i for i, v in enumerate(block) if _insert_one_at_a_time(basis, v, p)]
            rows = np.array(block, dtype=np.float64).reshape(-1, width) % p
            assert span.add_block(rows) == expected
            assert span.dim == len(basis)
        span.end_level()
    for vec in basis.values():
        assert not span.residual(np.array(vec, dtype=np.float64)).any()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n),
            min_size=1,
            max_size=3,
        )
    )
)
def test_span_growth_takes_the_words_of_one_at_a_time_insertion(gens):
    p = _PRIMES[0]
    n = len(gens[0])
    growth = _SpanGrowth([np.array(g, dtype=np.float64) % p for g in gens], n, p)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    basis: dict[int, list[int]] = {}
    _insert_one_at_a_time(basis, [x for row in eye for x in row], p)
    frontier = [eye]
    while frontier:
        taken = []
        for word in frontier:
            for gen in gens:
                prod = [
                    [sum(a * b for a, b in zip(row, col)) % p for col in zip(*gen)]
                    for row in word
                ]
                if _insert_one_at_a_time(basis, [x for row in prod for x in row], p):
                    taken.append(prod)
        assert growth._advance()
        assert growth.frontier.tolist() == taken
        assert growth.span.dim == len(basis)
        frontier = taken
    assert not growth._advance()


def test_mulmod_is_exact_at_the_width_bound():
    p = _PRIMES[0]
    # 2**17 terms of (p - 1)**2: the largest sum the bound allows
    top = np.full((1, _MAX_WIDTH), p - 1.0)
    assert _mulmod(top, top.T, p)[0, 0] == (_MAX_WIDTH * (p - 1) ** 2) % p
    rng = np.random.default_rng(0)
    a = rng.integers(0, p, size=(3, 50))
    b = rng.integers(0, p, size=(50, 4))
    expected = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
    assert _mulmod(a.astype(np.float64), b.astype(np.float64), p).tolist() == expected


def test_mod_span_refuses_width_past_exact_bound():
    p = _PRIMES[0]
    assert _MAX_WIDTH == 2**17
    with pytest.raises(ValueError, match="exceeds"):
        _ModSpan(_MAX_WIDTH + 1, p)
    # 363**2 > 2**17: a 363 x 363 algebra is refused before any product
    with pytest.raises(ValueError, match="exceeds"):
        _SpanGrowth([np.zeros((363, 363))], 363, p)


def test_span_growth_refutes_membership_outside_degenerate_algebra():
    g = build_coxeter("A", 2)
    b = build_rep(g)
    members = g.classes[0]
    p = _PRIMES[0]
    gens = [t % p for t in _int_blocks(b, members, Fraction(0))]
    span = _grow_mod_span(gens, 3, p)
    for gen in gens:
        assert not span.residual(gen.ravel()).any()
    units = np.eye(9)
    verdicts = [not span.residual(unit).any() for unit in units]
    assert span.dim == 7
    # a 7-dimensional span holds at most 7 of the 9 matrix units
    assert verdicts.count(False) >= 2
    assert span.residual(units[verdicts.index(False)]).any()


def _wedge_coords(x, y):
    """x ^ y = x (x) y - y (x) x on the basis e_i ^ e_j, i < j."""
    d = len(x)
    return [x[i] * y[j] - x[j] * y[i] for i in range(d) for j in range(i + 1, d)]


def _sym_coords(x, y):
    """x y = x (x) y + y (x) x on the basis e_i e_j (i < j) and e_i (x) e_i."""
    d = len(x)
    return [x[i] * y[j] + x[j] * y[i] for i in range(d) for j in range(i, d)]


@pytest.mark.parametrize(
    "name, rank, m0",
    [("A", 3, 7), ("A", 3, Fraction(22, 7)), ("I2", 5, -2), ("B", 3, Fraction(-5, 3))],
)
def test_square_blocks_act_as_derivations(name, rank, m0):
    g = build_coxeter(name, rank)
    b = build_rep(g)
    den = Fraction(m0).denominator
    for members in g.classes:
        d = len(members)
        for x, t in zip(members, _int_blocks(b, members, Fraction(m0))):
            assert t.flatten().tolist() == list((den * b.t_block(x, members, m0)).entries)
            wedge, sym = _square_blocks(t)
            cols = t.T.tolist()  # cols[k] = b t e_k
            unit = [[int(i == k) for i in range(d)] for k in range(d)]
            pairs = [(k, l) for k in range(d) for l in range(k + 1, d)]
            for col, (k, l) in enumerate(pairs):
                left, right = _wedge_coords(cols[k], unit[l]), _wedge_coords(unit[k], cols[l])
                image = [a + c for a, c in zip(left, right)]
                assert wedge[:, col].tolist() == image
            pairs = [(k, l) for k in range(d) for l in range(k, d)]
            for col, (k, l) in enumerate(pairs):
                left, right = _sym_coords(cols[k], unit[l]), _sym_coords(unit[k], cols[l])
                image = [a + c for a, c in zip(left, right)]
                # e_k e_k is twice the basis vector e_k (x) e_k
                if k == l:
                    image = [v // 2 for v in image]
                assert sym[:, col].tolist() == image
            assert all(type(v) is int for v in [*wedge.flat, *sym.flat])


def test_membership_off_roots_rests_on_the_square_closure(monkeypatch):
    widths = []

    class Recording(_ModSpan):
        def __init__(self, width, p):
            widths.append(width)
            super().__init__(width, p)

    monkeypatch.setattr(tensor, "_ModSpan", Recording)
    for name, rank in (("A", 3), ("I2", 5), ("B", 2)):
        g = build_coxeter(name, rank)
        b = build_rep(g)
        for c, members in enumerate(g.classes):
            d = len(members)
            if d < 2:
                continue
            widths.clear()
            report = tensor_square_check(b, c, Fraction(7))
            assert report["ok"]
            for s, u in list(itertools.combinations(members, 2))[:5]:
                assert psu_membership_check(b, c, s, u, Fraction(7))
            assert tensor_square_check(b, c, Fraction(7)) == report
            # one closure on each square, none on V (x) V
            assert sorted(widths) == [(d * (d - 1) // 2) ** 2, (d * (d + 1) // 2) ** 2]
            assert d**4 not in widths


def test_square_report_is_a_fresh_copy():
    g = build_coxeter("I2", 5)
    b = build_rep(g)
    report = tensor_square_check(b, 0, Fraction(7))
    expected = dict(report)
    report["ok"] = False
    report["sym_algebra"] = 0
    assert tensor_square_check(b, 0, Fraction(7)) == expected
