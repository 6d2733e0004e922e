import itertools
import time
import tracemalloc
from fractions import Fraction
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crg.modp as modp
import crg.tensor as tensor
from crg.groups import build_coxeter, build_series
from crg.matrices import ExactMatrix
from crg.modp import _MAX_WIDTH, _P, _P2, _ModSpan, _SpanGrowth, _grow_mod_span, _mulmod
from crg.quadratic import discriminant
from crg.rep import build_rep
from crg.tensor import (
    _annihilates_algebra,
    _annihilator,
    _block_relations,
    _ds_table_at,
    _exact_annihilator,
    _int_blocks,
    _integer_matrix,
    _lifted_annihilator,
    _regular_rep,
    _square_block,
    algebra_dimension,
    ds_table_check,
    psu_membership_check,
    tensor_square_check,
)
from references import rank


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
    gens = [np.array(gen.entries, dtype=object).reshape(n, n) for gen in gens]
    basis: list[np.ndarray] = []

    def add(word: np.ndarray) -> bool:
        if rank(basis + [word.ravel()]) > len(basis):
            basis.append(word.ravel())
            return True
        return False

    frontier = [np.identity(n, dtype=object)]
    add(frontier[0])
    while frontier:
        frontier = [prod for word in frontier for gen in gens if add(prod := word @ gen)]
    return len(basis)


def _matrix(rows) -> ExactMatrix:
    """The carrier of `rows`, entries as Fractions."""
    return ExactMatrix(len(rows), len(rows[0]), [Fraction(x) for row in rows for x in row])


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
    n = gens[0].rows
    y = _exact_annihilator([_integer_matrix(g) for g in gens])
    assert n * n - len(y) == _rational_closure_dimension(gens)


def _certificate(gens: list[np.ndarray]) -> int | None:
    """n^2 - len(Y) for the lifted Y if it passes both checks, else None."""
    n = len(gens[0])
    span = _grow_mod_span([g % _P for g in gens], n, _P)
    y = _lifted_annihilator(span)
    if y is None or not _annihilates_algebra(gens, y, span._pivots[: span.dim]):
        return None
    return n * n - len(y)


@settings(max_examples=30, deadline=None)
@given(_random_generators)
def test_certified_dimension_is_the_rational_dimension_or_refuses(gens):
    expected = _rational_closure_dimension(gens)
    assert algebra_dimension(gens) == expected
    assert _certificate([_integer_matrix(g) for g in gens]) in (None, expected)


def test_certificate_refuses_a_bad_prime():
    # congruent to I mod p: one word mod p, two over Q
    gen = _matrix([[1, _P], [0, 1]])
    assert _certificate([_integer_matrix(gen)]) is None
    assert algebra_dimension([gen]) == 2


def _root_generators(name, rank, m0):
    g = build_coxeter(name, rank)
    b = build_rep(g)
    members = max(g.classes, key=len)
    return [_integer_matrix(b.t_block(s, members, Fraction(m0))) for s in members]


# scaled by 2**62, the generators push the certificate's checks onto Python ints
_CHECK_ROUTES = pytest.mark.parametrize("scale", [1, 2**62], ids=["float64", "python-int"])


@_CHECK_ROUTES
def test_tampered_annihilator_row_fails_closure(scale):
    for name, rank, m0 in (("A", 2, 0), ("I2", 5, 0), ("A", 4, 2)):
        gens = [scale * g for g in _root_generators(name, rank, m0)]
        n = len(gens[0])
        span = _grow_mod_span([g % _P for g in gens], n, _P)
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

    monkeypatch.setattr(tensor, "_exact_annihilator", refuse)
    for name, rank, m0, dim in (("A", 4, 7, 91), ("A", 4, 2, 76), ("I2", 5, 0, 13)):
        gens = [scale * g for g in _root_generators(name, rank, m0)]
        n = len(gens[0])
        assert _certificate(gens) == dim
        assert n * n - len(_annihilator(gens)) == dim


def test_algebra_dimension_takes_no_inverse_mod_p():
    swap = _matrix([[0, 1], [1, 0]])
    for den in (3, _P):
        gen = _matrix([[Fraction(1, den), 1], [0, 2]])
        assert algebra_dimension([gen, swap]) == 4


def test_algebra_dimension_rejects_mismatched_shapes():
    a = _matrix(np.identity(2, dtype=int).tolist())
    bmat = _matrix(np.identity(3, dtype=int).tolist())
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
    eye = np.identity(3, dtype=object)
    s = b.blocks(0, members, 0, 1, object)[0]
    for m0 in (Fraction(0), Fraction(1), Fraction(-3), Fraction(22, 7)):
        # the A2 generator t_0 = s_0 - p_0 at m0
        t = np.array([[m0, -1, -1], [0, 0, 1], [0, 1, 0]], dtype=object)
        p = np.array([[1 - m0, 1, 1], [0, 0, 0], [0, 0, 0]], dtype=object)
        assert b.t_block(0, members, m0) == _matrix(t)
        assert np.array_equal(s - t, p)
        assert np.array_equal(s @ s, eye)
        assert np.array_equal(s @ p, p) and np.array_equal(p @ s, p)
        assert np.array_equal(p @ p, (1 - m0) * p)
        assert _block_relations(b, 0, members, m0)


def test_regular_representation_models_the_block_relations():
    eye = np.identity(3, dtype=object)
    for m in range(8):
        l_s, l_p = _regular_rep(m)
        assert np.array_equal(l_s @ l_s, eye)
        assert np.array_equal(l_s @ l_p, l_p) and np.array_equal(l_p @ l_s, l_p)
        assert np.array_equal(l_p @ l_p, (1 - m) * l_p)
        # I, L_s, L_p independent: the representation of span{1, s, p} is faithful
        assert rank([x.ravel() for x in (eye, l_s, l_p)]) == 3
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


def _off_root_point(b, c) -> Fraction:
    m0 = Fraction(7)
    while tensor._excluded(b, c, m0):
        m0 += 1
    return m0


def test_tensor_ops_refuses_large_class():
    g = build_series(13, 13, 3)
    b = build_rep(g)
    assert len(g.classes[0]) == 39
    # the operator table has no size limit; the squares keep theirs
    assert ds_table_check(b, 0, 0)
    m0 = _off_root_point(b, 0)
    with pytest.raises(ValueError, match="<= 36"):
        tensor_square_check(b, 0, m0)
    with pytest.raises(ValueError, match="<= 36"):
        psu_membership_check(b, 0, 0, 1, m0)
    # 13 is a root of H3's class discriminant: membership there closes V (x) V,
    # which keeps the limit of 12
    h3 = build_rep(build_coxeter("H3"))
    assert len(h3.group.classes[0]) == 15 and tensor._excluded(h3, 0, Fraction(13))
    with pytest.raises(ValueError, match="<= 12"):
        psu_membership_check(h3, 0, 0, 1, Fraction(13))


def test_squares_and_membership_pass_above_the_root_limit():
    start = time.monotonic()
    g = build_coxeter("H3")
    b = build_rep(g)
    members = g.classes[0]
    assert len(members) == 15
    report = tensor_square_check(b, 0, Fraction(7))
    assert report["ok"] and (report["wedge_route"], report["sym_route"]) == ("norton", "norton")
    assert (report["wedge_algebra"], report["sym_algebra"]) == (105**2, 120**2)
    for s, u in ((members[0], members[1]), (members[3], members[11])):
        assert psu_membership_check(b, 0, s, u, Fraction(7))
    assert time.monotonic() - start < 10


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


def test_membership_at_a_bad_prime_takes_the_exact_route(monkeypatch):
    g = build_coxeter("A", 2)
    b = build_rep(g)
    # squares that are not full send membership to the annihilator route
    monkeypatch.setattr(tensor, "tensor_square_check", lambda *args: {"ok": False})
    calls = []

    def spy(gens):
        calls.append(len(gens[0]))
        return _exact_annihilator(gens)

    monkeypatch.setattr(tensor, "_exact_annihilator", spy)
    # at m0 = 1/p every generator b t_x(m0) = p N_x + E_xx is diagonal mod p,
    # and the second prime certifies the annihilator
    assert psu_membership_check(b, 0, 0, 1, Fraction(1, _P))
    assert calls == []
    # at m0 = 1/(p p2) they are diagonal mod both primes
    assert psu_membership_check(b, 0, 0, 1, Fraction(1, _P * _P2))
    assert calls == [9]


def _kernel_basis(y: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Integer basis of ker y, for y a nonzero diagonal on the columns `free`."""
    dens = y[np.arange(len(free)), free]
    assert np.count_nonzero(y[:, free]) == len(free) and all(dens)
    pivots = np.setdiff1d(np.arange(y.shape[1]), free)
    common = lcm(*dens)
    basis = np.zeros((len(pivots), y.shape[1]), dtype=object)
    basis[np.arange(len(pivots)), pivots] = common
    basis[:, free] = (-y[:, pivots] * (common // dens)[:, None]).T
    return basis


def _square_generators(b, members, m0) -> list[np.ndarray]:
    """b T_x(m0) = b (t_x (x) 1 + 1 (x) t_x) on V (x) V, as membership closes them."""
    eye = np.identity(len(members), dtype=object)
    return [np.kron(t, eye) + np.kron(eye, t) for t in _int_blocks(b, members, m0)]


def test_annihilator_refutes_targets_outside_a_degenerate_algebra():
    g = build_coxeter("I2", 5)
    b = build_rep(g)
    members = g.classes[0]
    m0 = Fraction(5)
    assert tensor._excluded(b, 0, m0)
    d = len(members)
    y = _annihilator(_square_generators(b, members, m0))
    assert d**4 - len(y) == 231
    assert not (y @ np.identity(d * d, dtype=object).ravel()).any()
    # p_s (x) p_u - p_u (x) p_s anticommutes with the swap, which commutes with A
    s_u = [b.blocks(x, members, 0, 1, object)[0] for x in members[:2]]
    ps, pu = (s - t for s, t in zip(s_u, _int_blocks(b, members, m0)))
    assert (y @ (np.kron(ps, pu) - np.kron(pu, ps)).ravel()).any()
    unit = np.zeros(d**4, dtype=object)
    unit[1] = 1
    assert (y @ unit).any()


def test_lifted_and_exact_annihilators_share_their_kernel():
    # at m = 5 the exact route takes about 25 s; m = 0 closes the same width
    g = build_coxeter("I2", 5)
    b = build_rep(g)
    gens = _square_generators(b, g.classes[0], Fraction(0))
    n = len(gens[0])
    span = _grow_mod_span([g % _P for g in gens], n, _P)
    pivots = span._pivots[: span.dim]
    lifted = _lifted_annihilator(span)
    assert _annihilates_algebra(gens, lifted, pivots)
    exact = _exact_annihilator(gens)
    assert exact.shape == lifted.shape == (n * n - 89, n * n)
    free = np.setdiff1d(np.arange(n * n), pivots)
    assert not (lifted @ _kernel_basis(exact, free).T).any()
    assert not (exact @ _kernel_basis(lifted, free).T).any()


def test_membership_verdict_survives_a_refused_lift(monkeypatch):
    g = build_coxeter("B", 3)
    b = build_rep(g)
    c = next(i for i, members in enumerate(g.classes) if len(members) == 3)
    members = g.classes[c]
    assert tensor._excluded(b, c, Fraction(5))
    monkeypatch.setattr(tensor, "_lifted_annihilator", lambda span: None)
    assert psu_membership_check(b, c, members[0], members[1], Fraction(5))


def test_membership_refutes_a_target_outside_the_algebra(monkeypatch):
    g = build_coxeter("B", 3)
    b = build_rep(g)
    members = g.classes[0]
    s, u = members[0], members[1]
    assert tensor._excluded(b, 0, Fraction(5))
    assert psu_membership_check(b, 0, s, u, Fraction(5))
    # t_s(5) + E_ss in place of P_s makes p_s the matrix unit E_ss; t_s is untouched
    blocks = b.blocks

    def tampered(x, members, a, den, dtype):
        perm, p = blocks(x, members, a, den, dtype)
        if x != s:
            return perm, p
        unit = np.zeros_like(p)
        unit[members.index(s), members.index(s)] = 1
        return perm - p + unit, unit

    monkeypatch.setattr(b, "blocks", tampered)
    assert not psu_membership_check(b, 0, s, u, Fraction(5))


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
    st.sampled_from((3, _P)),
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
    p = _P
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
    p = _P
    # 2**17 terms of (p - 1)**2: the largest sum the bound allows
    top = np.full((1, _MAX_WIDTH), p - 1.0)
    assert _mulmod(top, top.T, p)[0, 0] == (_MAX_WIDTH * (p - 1) ** 2) % p
    rng = np.random.default_rng(0)
    a = rng.integers(0, p, size=(3, 50))
    b = rng.integers(0, p, size=(50, 4))
    expected = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
    assert _mulmod(a.astype(np.float64), b.astype(np.float64), p).tolist() == expected


def test_mod_span_refuses_width_past_exact_bound():
    p = _P
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
    p = _P
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
            assert t.flatten().tolist() == [den * e for e in b.t_block(x, members, m0).entries]
            wedge, sym = _square_block(t, -1), _square_block(t, 1)
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


def test_membership_off_roots_rests_on_the_square_verdict(monkeypatch):
    widths = []

    class Recording(_ModSpan):
        def __init__(self, width, p):
            widths.append(width)
            super().__init__(width, p)

    def refuse(gens):
        raise AssertionError("closure reached")

    monkeypatch.setattr(modp, "_ModSpan", Recording)
    monkeypatch.setattr(tensor, "_annihilator", refuse)
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
            assert (report["wedge_route"], report["sym_route"]) == ("norton", "norton")
            for s, u in list(itertools.combinations(members, 2))[:5]:
                assert psu_membership_check(b, c, s, u, Fraction(7))
            assert tensor_square_check(b, c, Fraction(7)) == report
            # spins and kernels only: no span as wide as a square's algebra or V (x) V
            sym_dim = d * (d + 1) // 2
            assert widths and max(widths) <= 2 * sym_dim + 1 < min(sym_dim**2, d**4)


def _square_report_at(b, c, m0) -> dict:
    """The square report at any point, roots included, without the memo."""
    return tensor._square_report(b, c, Fraction(m0))


def test_norton_never_certifies_a_reducible_square():
    # at a root of the class discriminant V_c, and so each square, is reducible
    for name, rank, c, m0 in (("I2", 5, 0, 5), ("A", 3, 0, 5), ("B", 3, 0, 5), ("B", 3, 1, 7)):
        b = build_rep(build_coxeter(name, rank))
        assert m0 in {root for root, _ in discriminant(b.group, c).factors}
        report = _square_report_at(b, c, m0)
        assert (report["wedge_route"], report["sym_route"]) == ("closure", "closure")
        assert report["wedge_algebra"] < report["wedge_dim"] ** 2
        assert report["sym_algebra"] < report["sym_dim"] ** 2
        assert not report["ok"]
    # block upper-triangular class blocks keep U, the span of the first three
    # coordinates, so their squares keep Λ²U and S²U, which hold basis vector 0
    rng = np.random.default_rng(5)
    for n in (5, 8):
        blocks = rng.integers(-3, 4, size=(4, n, n)).astype(object)
        full = np.array(blocks % _P, dtype=np.float64)
        blocks[:, 3:, :3] = 0
        mod_p = np.array(blocks % _P, dtype=np.float64)
        for sign in (-1, 1):
            assert len(_annihilator([_square_block(t, sign) for t in blocks]))
            i, j = np.triu_indices(n, 1 if sign < 0 else 0)
            inside = (i < 3) & (j < 3)
            unit = np.zeros(len(i))
            unit[0] = 1
            phi = rng.integers(1, _P, len(i)).astype(np.float64)
            pair = tensor._norton_pair(mod_p, sign, _P)
            # x in the square of U: its spin falls short, though phi's is full
            assert modp._spins(pair, phi, _P)
            assert not modp._norton(unit, phi, pair, _P)
            # phi vanishing on the square of U: its spin falls short, though x's is full
            assert modp._spins([g.T for g in pair], phi, _P)
            assert not modp._norton(phi, np.where(inside, 0, phi), pair, _P)
            # without the invariant U both spins are full
            assert modp._norton(unit, phi, tensor._norton_pair(full, sign, _P), _P)


def test_norton_builds_no_square_per_generator(monkeypatch):
    # one square mod p per generator would be 18 (153^2 + 171^2) floats,
    # about 7.2 MiB, on G(6,6,3)'s class of 18
    b = build_rep(build_series(6, 6, 3))
    d = len(b.group.classes[0])
    assert d == 18 and not tensor._excluded(b, 0, Fraction(7))
    stacks = d * ((d * (d - 1) // 2) ** 2 + (d * (d + 1) // 2) ** 2) * 8
    spun = []
    spins = modp._spins
    monkeypatch.setattr(modp, "_spins", lambda gens, *args: spun.append(len(gens)) or spins(gens, *args))
    tracemalloc.start()
    try:
        report = tensor_square_check(b, 0, Fraction(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report["wedge_route"], report["sym_route"]) == ("norton", "norton")
    assert peak < stacks
    # v and w of each square spin under the pair alone
    assert spun == [2] * 4


def test_forced_norton_failure_takes_the_closure(monkeypatch):
    b = build_rep(build_coxeter("A", 3))
    norton = _square_report_at(b, 0, 7)
    assert (norton["wedge_route"], norton["sym_route"]) == ("norton", "norton")
    monkeypatch.setattr(tensor, "_norton", lambda *args: False)
    forced = _square_report_at(b, 0, 7)
    assert forced == dict(norton, wedge_route="closure", sym_route="closure")


def test_tampered_operator_table_sends_both_squares_to_the_closure(monkeypatch):
    g = build_coxeter("A", 3)
    s = g.classes[0][0]
    u = next(u for u in g.classes[0] if g.conj_table[s][u] != u)
    alpha = [list(row) for row in g.alpha]
    alpha[s][u] += 1
    b = build_rep(g, alpha)
    assert not ds_table_check(b, s, 0)
    monkeypatch.setattr(tensor, "_norton", lambda *args: pytest.fail("Norton's test reached"))
    report = _square_report_at(b, 0, 7)
    assert (report["wedge_route"], report["sym_route"]) == ("closure", "closure")


def test_a_scalar_that_vanishes_mod_p_sends_both_squares_to_the_closure():
    # at m0 = p the scalar a = p of every power identity vanishes mod p
    b = build_rep(build_coxeter("A", 3))
    report = tensor_square_check(b, 0, _P)
    assert (report["wedge_route"], report["sym_route"]) == ("closure", "closure")
    assert report["ok"]


def _exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for integer float64 arrays, exact: every partial sum is an integer below 2**53."""
    assert np.abs(a).max(axis=0) @ np.abs(b).max(axis=1) < 2**53
    return a @ b


@pytest.mark.parametrize(
    "g",
    [
        build_coxeter("A", 3),
        build_coxeter("B", 3),
        build_coxeter("I2", 5),
        build_series(4, 2, 3),
        build_series(6, 3, 4),
    ],
    ids=lambda g: g.name,
)
def test_rank_one_elements_lie_in_the_algebra(g, monkeypatch):
    """The identities behind `_square_norton`, exact at m0 = a/b = 7 and 22/7,
    for every member s and every pair s, u (s before u) of every class:

    - b p_x = e_x (x) b r_x: only row x of b p_x = b s_x - b t_x is nonzero.
    - 8 a (a + b)^2 b^2 Q_s = sum_k c_k (b T_s)^k, the third power identity,
      on V (x) V and so on S^2.  (b T)^k = sum_j binom(k, j) (b t)^j (x)
      (b t)^(k-j), and kron(A, B) -> vec(A) vec(B)^T is a bijection, so it
      reads V C V^T = 8 a (a + b)^2 vec(b p_s) vec(b p_s)^T for the columns V
      = vec((b t_s)^j).
    - (b - a) b^2 psu = (b P_s)(b P_u)(b P_s) - alpha(s, u) alpha(u, s) b^2
      (b P_s) on Λ², where b^2 psu is b p_s (x) b p_u + b p_u (x) b p_s.  Its
      images are multiples of e_s ^ e_u, and its row there holds the (s, u)
      coordinate of the images of the basis.  b P_s is zero outside its rows
      R_s, so the product is E R_s (b P_u)[:, rows] R_s.

    The phi that the code hands to `_norton` is row 0 of b^2 psu and of b^2 Q_s
    for the first two members, mod p.  Every value is an integer below 2**53,
    which float64 holds exactly, so every product is exact.
    """
    seen = []
    monkeypatch.setattr(tensor, "_norton", lambda x, phi, pair, p: seen.append((x, phi)) or True)
    b = build_rep(g)
    for members in g.classes:
        d = len(members)
        if d < 2:
            continue
        wi, wj = np.triu_indices(d, 1)
        si, sj = np.triu_indices(d, 0)
        for m0 in (Fraction(7), Fraction(22, 7)):
            a, den = m0.numerator, m0.denominator
            ints = _int_blocks(b, members, m0)
            bt = [t.astype(np.float64) for t in ints]
            perms = [b.blocks(x, members, 0, 1, np.float64)[0] for x in members]
            bp = [den * s_x - t for s_x, t in zip(perms, bt)]
            for x, p in enumerate(bp):
                assert not np.delete(p, x, axis=0).any()

            c = [0, 4 * den**2 * (den**2 - a**2), 8 * a * den**2, a * a - 5 * den**2, -2 * a, 1]
            coeffs = np.array(
                [[c[i + j] * comb(i + j, j) if i + j <= 5 else 0 for i in range(6)] for j in range(6)],
                dtype=np.float64,
            )
            for t, p in zip(bt, bp):
                powers = [np.identity(d)]
                for _ in range(5):
                    powers.append(_exact(powers[-1], t))
                vecs = np.array([x.ravel() for x in powers]).T
                right = 8 * a * (a + den) ** 2 * np.outer(p.ravel(), p.ravel())
                assert np.array_equal(_exact(_exact(vecs, coeffs), vecs.T), right), (members, m0)

            wedges = [_square_block(p, -1) for p in bp]
            for n, (i, j) in enumerate(zip(wi.tolist(), wj.tolist())):
                s, u = members[i], members[j]
                # b p_u (x) b p_s has no (s, u) coordinate: b p_u has no row s
                images = np.outer(bp[i][i], bp[j][j])
                psu_row = images[wi, wj] - images[wj, wi]
                rows = np.flatnonzero(wedges[i].any(axis=1))
                r_s = wedges[i][rows]
                right = _exact(_exact(r_s, wedges[j][:, rows]), r_s)
                right -= b.alpha[s][u] * b.alpha[u][s] * den**2 * r_s
                left = np.zeros_like(right)
                assert n in rows
                left[np.searchsorted(rows, n)] = (den - a) * psu_row
                assert np.array_equal(left, right), (members, m0, s, u)
                if n == 0:
                    wedge_phi = psu_row

            images = np.outer(bp[0][0], bp[0][0])
            sym_phi = images[si, sj] + (si != sj) * images[sj, si]
            seen.clear()
            blocks = np.array([t % _P for t in ints], dtype=np.float64)
            for sign in (-1, 1):
                assert tensor._square_norton(ints, blocks, den, sign, _P)
            for (x, phi), row in zip(seen, (wedge_phi, sym_phi)):
                assert x.tolist() == [1] + [0] * (len(row) - 1)
                assert np.array_equal(phi, row % _P)


def test_square_report_is_a_fresh_copy():
    g = build_coxeter("I2", 5)
    b = build_rep(g)
    report = tensor_square_check(b, 0, Fraction(7))
    expected = dict(report)
    report["ok"] = False
    report["sym_algebra"] = 0
    assert tensor_square_check(b, 0, Fraction(7)) == expected
