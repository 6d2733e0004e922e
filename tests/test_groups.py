"""Reflection group construction, conjugation tables, and class data."""

import hashlib
from math import lcm

import numpy as np
import pytest

from crg.cyclotomic import CycNum, cyclotomic_field
from crg.groups import (
    alpha,
    build_coxeter,
    build_exceptional,
    build_series,
    class_stats,
    k_c,
)
from references import entries, reflection_matrix


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
    g = build_coxeter("B", 3)
    eye = np.identity(g.rank, dtype=object)
    for refl in g.reflections:
        m = reflection_matrix(refl)
        assert (m @ m == eye).all()


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
            [entries(r) for r in g.reflections],
            g.conj_table,
            g.classes,
        )
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == EXCEPTIONAL_SHA256[name]


# sha256 of every fixture group with a construction, named as parse_group
# renders it, so the aliases G23, G28, G30 and G35-G37 give H3, F4, H4 and
# E6-E8.  The digest covers the reflection matrices in index order, the
# roots, the coforms, the conjugation table, the classes and the generators,
# so it pins the reflection order (sorted packed matrices, which `_assemble`
# reads from integer keys without building a matrix) and everything read
# from it.
GROUP_SHA256 = {
    "G(3,3,3)": "a386fd5aa0ae1dfc56f28ecf3aa048616993f81fdc984d2c8a2305c2c14e81f8",
    "G(4,4,3)": "4a2bcaeb69ac50028df76735f646f1ba65bf20ee4fde9b2fcc5101dafd08da95",
    "G(5,5,3)": "2bf2c795291b4df693703e06c93817033ece51b5907696a3cb8023959bcfbdfc",
    "G(6,6,3)": "5bd29455cb337a2920ace291e90122644c8c9e60130a921c0be8c9985e9210fb",
    "G(7,7,3)": "705ad844d6d0afbae72243ba284b2bf55e7fb6d39ab3f46abd72373c3a0477f3",
    "G(8,8,3)": "d0c3bfc5910e83694ac10c7d9b1974143ab462c4f25df73d839ef142c2bfdae3",
    "G(9,9,3)": "f67ef09f2cfd7c2e0d3da2db13e9aaf4024ba459cf81ee2c93798fabc08712cf",
    "G(10,10,3)": "e5ea985cdeb7f209abf3b25cc9b0e2ee1a599f87b1d4fe4f995a6a293e21a8c6",
    "G(11,11,3)": "faa0170d868f6c8466d58ee12295a1aade0918e35b3f4c8f75bc6f914f430388",
    "G(12,12,3)": "ca4a9b2182b10c6cd1f866c82dbc87c84d3ff296f4ed8e8f9e242e091bae45f7",
    "G(13,13,3)": "1970d582a90b19cea20dedb3d531ff8e8cae9c56ac1ca0c6dfde6be61c8cdb45",
    "G(14,14,3)": "1cd3f0ed57b28163824a2897c8dd04085199928ee37b647e63aee1bc6a432a5c",
    "G(3,3,4)": "47ed942734e193e41b2f42fc68d2a9b60f84bc5f783759bb6086c72feb462387",
    "G(4,4,4)": "a9a727bbf48bbda3639db5b6105107ed2f47aaec299f91b8b157fefdbb1dd9d1",
    "G(5,5,4)": "ea3c79562a9e7ccf4fa47b80781bb5dad55faeca63425f429f1e2a92324c6f9d",
    "G(6,6,4)": "2aee3e98555201a4daa046ef6bcb504c90672883e6b2e0c19192dde6880c7027",
    "G(3,3,5)": "ca85f16ed0c021114b80a8146c4d2232524b1f2854657e3e4bd4300108ad1d07",
    "G(4,4,5)": "94461027129d2363821cda259591549ee977e5abd2c49993b1c4822249fe1adf",
    "G(5,5,5)": "82686e320cb94f8ebd59f805d198ced647ba8d9687673e9af9813d4255818550",
    "G12": "2a39b6e395954f476eb6a7f8eebd5daa4a523f34f4796e174146dffe055b123e",
    "G13": "959dc587d57e831c36916eb5d8988caaf3183940c4b12c1c7d7f0a40dd45e8f6",
    "G22": "4ed9519debe405f99b2f5063dc9103fd12aa09e63bd5d93b8fcfa657c198a210",
    "H3": "556c09ee8be5a8d7c063e99475b08828bb06b65a829354a8852c81cb41776655",
    "G24": "2b8df07caffac4e0572d3f32cf09b456c4c7942c34117dee81c1e00ea8496c66",
    "F4": "7fe90e93621129d120ec8fe0e9273922661d5c0ce407ca12953e19d7ac747fe4",
    "H4": "f164e01fb99ac843a4925f69f351ab5cfbf6b4dfd8661c45a20d1d15568acc72",
    "E6": "2daf6f94480896caef4fb7d8cb3a252addfb1a4b8d6ac02a7b079e0b17714eb8",
    "E7": "ad3406a1c36e64643e52f97d70b1cb460a82cb14952c3fb212517480724ad643",
    "E8": "c52976d311dbe837cdc0b1ec7646e1b7e665dfec562d9a557a2f368a614126fb",
    "G(2,1,2)": "048e140d1256329bb58cc3a57d8335166bcc527628f2ef16e959b2966108a855",
    "G(4,2,2)": "004022cb75eb451087bbcad522640db48c9f2b4010b1b97e82b0d5df7468e1eb",
    "G(6,3,2)": "50396bdd22a266d1fb8506ee382fcbb6e60137cb9e94845c8381dfd3ad9cad6c",
    "G(8,4,2)": "33ddd6dcde4025b70f40cd0f5fc76b1bc99780798533eb38258c78d8a0339c2b",
    "G(10,5,2)": "e78e1c4ade197360d07b46f56b69adc2f6be291add35bea3508f720a7ec9de8e",
    "G(12,6,2)": "0844232ccb0db799cbbe7f13304a186c5d60cfb8987b8f0bdaa38b278d45c8b5",
    "G(14,7,2)": "1e1e7867a2a6daf54df21621db0a7bad0cc0eaee5ae60209bce9a0956610b2d1",
    "G(16,8,2)": "8b1787c2c0b41f9a6e6b1b0df04bc9aa244e5e0389c269be3a59036654fcf707",
    "G(18,9,2)": "c2002f7184aa8cf4c219e3b099050dfcae046ffee9d9ddbc0f7fab3ef518ba61",
    "G(20,10,2)": "203ecda600481724188e3f7ffe8c0d8e3c2e5f17ca241e77090c0865d27aaae8",
    "G(4,2,3)": "a8f818c7794b6cf0f1be59c9681f9024984935625ca13081798922534ef4681d",
    "G(6,3,3)": "b3bcbe2ddd062c003823db100e3814e70ffbad2acfa671f385319d83a6ef6000",
    "G(8,4,3)": "d110ce2ddaa0a61de2b1d8945a0c0725ed8ae3f08b451a6d748345f81ba4a3ba",
    "G(10,5,3)": "6caa1ef44b7d640cfab14e09f38f4c64ccb034f7e8da67eb65c59e541c4b3ad2",
    "G(12,6,3)": "07048e08190d551689fce5dd2b3fc2f89ca0428e2941191b1b370b7bf5fff0ec",
    "G(4,2,4)": "79fb2036f666d94734abf62b7062f73a7809e390efdcdaa347a0789a87d0ab78",
    "G(6,3,4)": "57929f59b60391987cff5edeab6f8df55d1f2136d98b91ac57bc6f5efb21bbef",
    "G(8,4,4)": "c454fe3ee26b95e1c6816e5790c2b76615a13c21b2e6da5e159e89c8377e9784",
    "A2": "57b491a2e940628b360612faf9c91e3edb5de670c8c014a312227b17da6ec3c0",
    "A3": "937019c50612729bc5a6f2b92b4314ffd94611ff1f135f5404bc325cdce8082a",
    "A4": "58d80c3c521d51a328e8660389bbe50ef420d7d7938bb21a606e6c3d0deb1618",
    "A5": "a4816dc11c7c13203a952b99684959620f1a1b7ab042cce086b768a113d0604c",
    "A6": "ec86c14fd9b4b8b3a3d6bc14900d8fdc6960e1566096df536a24578462a09bbb",
    "B2": "10a13293479f83428f5a74720d7582bc5e1aac30ab4463140faccbd597079ba1",
    "B3": "8727cc788afd2ea8cb91cc277b102f394d8756546ce41aaabbbb6eb2a8cc6bb2",
    "B4": "83606910d0161bbd343adfe1ae89ee14194d6e1c9c92285f36d5065cd0c638cf",
    "B5": "8e815fc25dfbc99083856d3b06f7953a1ebaa5153d0ae3b9a12ec6033d03a30d",
    "B6": "22687585d788f69bfde832b8845f269df4bb01c56700116ed9a64c681410a436",
    "D4": "24831a257a79fcd3423a0c168022a7be99d26495ae6d7f022d83492cc121bffe",
    "D5": "1490e4b85a866924d8beebabf882ba420b3142e8cb78d2d3c39e90802a1505b8",
    "D6": "4b8cef337b44128a55c9649632ba79fcb7ad8ba4ee2cd21045d949a675ded69a",
    "I2(3)": "778d3ed5b3eae8d810cfeb32b2f73221cd9fffc7ef91fe9035e9ac6e39df7f1a",
    "I2(4)": "b74193150e84ecd18ef4e0113f41d9993063b3432887dc1bd4ba184f3a9ba068",
    "I2(5)": "503f66cbbab9db0b65a1b7009a8f81815650a8c8d7c06c42ecb2e1daf5e0bcad",
    "I2(6)": "511d5d61a32088c39571468ab9ea86b3e26266dd9a89e7f89202b1e85b4523a3",
    "I2(7)": "7a7713ef4c9f364abc1528ae857e23910af46bb1890908d58b0dfee0fa8df227",
    "I2(8)": "94fd61e1a5bf1c7e4d861305b54c640c1db3b826d51fd4b116b434828eb156fa",
    "I2(9)": "28cceb28e677cbb260b81addaf1c5e2671c74f5be725ae18b23731bb18f82009",
    "I2(10)": "f52fe7b187b20950f9384eea51644f372b7844a070249d69d4db4907780fd0f3",
    "I2(11)": "eb4a4a3b255a6a9c7d28ad97c172ad5896317abddfd63a07728c1c8003a3a220",
    "I2(12)": "f3fa093573969cf6349cb25a32634b9fd9126e889d6544cf22ed3c7d5a08038d",
    "I2(13)": "18227d720edb9e0f94e67a6e1017523f90a15a9cca0935ce6e4f18025102086b",
    "I2(14)": "1120e4f25bd3c16a652ccfe12b9167331a3c00695640de29b697e7386b2c2e6d",
    # CLI-reachable groups with large conductors that no fixture holds; the
    # reduction rows of Phi_105 reach 2 in absolute value
    "I2(97)": "3efcff3420df0e48153fba617b600961ffd776516f44da8d0015365f80125bb0",
    "I2(199)": "e5964877c032bc4f15993224e66cb70e73a69145400dfcc5655195cea876f82f",
    "G(105,105,2)": "3c548aca37fbb4252b01b1f9c1c9e8b2c5aa76e4f2e159bfe33c0b5c0fc947b3",
    "G(200,200,2)": "2fdf8d724e5f285d72de8da244f994f56f2f63dbbf20f6fa16fd41bc58c01133",
}


def _digest(g):
    blob = repr(
        (
            g.name,
            g.rank,
            g.conductor,
            [entries(r) for r in g.reflections],
            [r.root for r in g.reflections],
            [r.coform for r in g.reflections],
            g.conj_table,
            g.classes,
            g.generators,
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", list(GROUP_SHA256))
def test_group_matches_its_pinned_digest(name):
    from crg.cli import build_group, parse_group

    assert _digest(build_group(parse_group(name))) == GROUP_SHA256[name]


@pytest.mark.parametrize(
    "name", ["A3", "B3", "G(4,2,3)", "G(5,5,3)", "H3", "F4", "G12", "G13", "G22", "G24"]
)
def test_conj_table_matches_matrix_conjugation(name):
    from crg.cli import build_group, parse_group

    g = build_group(parse_group(name))
    mats = [reflection_matrix(refl) for refl in g.reflections]
    index = {tuple(m.flat): i for i, m in enumerate(mats)}
    table = g.conj_table
    for y, my in enumerate(mats):
        row = table[y]
        assert row[y] == y
        for s, ms in enumerate(mats):
            assert row[s] == index[tuple((my @ ms @ my).flat)]
            assert row[row[s]] == s
    for y in range(g.size):
        for s in range(g.size):
            ysy = table[table[y][s]]
            assert ysy == tuple(table[y][table[s][table[y][t]]] for t in range(g.size))


def test_assemble_rejects_a_set_not_closed_under_conjugation():
    from crg.groups import _assemble, _root_array

    q = cyclotomic_field(1)
    roots = [tuple(q.from_rational(x) for x in r) for r in ((1, -1, 0), (0, 1, -1))]
    with pytest.raises(ValueError, match="not conjugation-closed"):
        _assemble("A2 minus one", 3, 1, _root_array(roots), 2)


def test_assemble_refuses_a_wrong_reflection_count():
    from crg.groups import _assemble, _root_array

    q = cyclotomic_field(1)
    roots = [
        tuple(q.from_rational(x) for x in r) for r in ((1, -1, 0), (0, 1, -1), (1, 0, -1))
    ]
    with pytest.raises(ValueError, match="A2: built 3 reflections, expected 4"):
        _assemble("A2", 3, 1, _root_array(roots), 4)


def test_line_keeps_a_vector_whose_lead_is_already_one():
    from crg.groups import _lines, _root_array

    q = cyclotomic_field(4)
    i, zero, two = q.zeta(1), q.zero(), q.from_rational(2)
    rows = np.array(q.power_rows)

    def line(v):
        x, den = _lines(_root_array([v]), q, rows, 2)
        return den, [CycNum(q, c, den) for c in x[0].tolist()]

    v = [zero, q.one(), i, -two]
    # the same coefficients come back over D = 1, so nothing was rescaled,
    # and twice v reduces to the same line over the same least D
    assert line(v) == line([2 * c for c in v]) == (1, v)
    den, scaled = line([zero, two * i, two, i])
    structure = [(c.num, c.den) for c in scaled]
    # 2i scales to 1, 2 to -i and i to 1/2
    assert den == 2
    assert structure == [((0, 0), 1), ((1, 0), 1), ((0, -1), 1), ((1, 0), 2)]


# each group built anew, past the builders' caches, so that a patch of
# `_assemble`'s helpers takes effect
FRESH = {
    "G12": lambda: build_exceptional.__wrapped__("G12"),
    "G13": lambda: build_exceptional.__wrapped__("G13"),
    "G22": lambda: build_exceptional.__wrapped__("G22"),
    "H3": lambda: build_coxeter.__wrapped__("H3"),
    "H4": lambda: build_coxeter.__wrapped__("H4"),
    "G(14,14,3)": lambda: build_series.__wrapped__(14, 14, 3),
    "G(4,2,3)": lambda: build_series.__wrapped__(4, 2, 3),
    "G(6,3,3)": lambda: build_series.__wrapped__(6, 3, 3),
    "G24": lambda: build_exceptional.__wrapped__("G24"),
}


def _packed(refl):
    """Least common denominator and integer coefficients of the reflection
    matrix of `refl`, row by row."""
    m = entries(refl)
    den = lcm(*(e.den for e in m))
    return den, tuple(tuple(c * (den // e.den) for c in e.num) for e in m)


# nu = phi . a is rational for the series groups and irrational for the
# other six, which take the field-inverse route to their integer keys
@pytest.mark.parametrize("name", ["H3", "H4", "G12", "G13", "G22", "G24", "G(6,3,3)"])
def test_reflections_are_indexed_by_their_sorted_packed_matrices(name, monkeypatch):
    from crg import groups

    built = []
    packed_keys = groups._packed_keys

    def recording(*args):
        built.append(packed_keys(*args))
        return built[-1]

    monkeypatch.setattr(groups, "_packed_keys", recording)
    g = FRESH[name]()
    keys = [_packed(r) for r in g.reflections]
    assert sorted(range(g.size), key=keys.__getitem__) == list(range(g.size))
    assert len(set(keys)) == g.size
    # the integer rows `_assemble` sorts are these keys, flattened
    flat = [[den] + [c for entry in entries for c in entry] for den, entries in keys]
    assert sorted(built[0].tolist()) == flat


@pytest.mark.parametrize("name", ["G22", "H4", "G(14,14,3)"])
def test_rows_on_python_ints_keep_the_digest(name, monkeypatch):
    from crg import groups

    dtypes = set()
    ranks = set()
    mul = groups._mul

    def recording(u, v, power_rows):
        dtypes.update((u.dtype, v.dtype, power_rows.dtype))
        out = mul(u, v, power_rows)
        ranks.add(out.ndim)
        return out

    monkeypatch.setattr(groups, "_INT64_MAX", 1)
    monkeypatch.setattr(groups, "_mul", recording)
    assert _digest(FRESH[name]()) == GROUP_SHA256[name]
    assert dtypes == {np.dtype(object)}
    # the sort keys' product C X_i (x) Phi_j is the only one of rank 4
    assert 4 in ranks


@pytest.mark.parametrize("name", ["G(4,2,3)", "H4", "G24"])
def test_a_wrong_proposal_is_mended_by_the_exact_retry(name, monkeypatch):
    from crg import groups

    propose = groups._propose

    def rotated(*args):
        image = propose(*args)
        return image[1:] + image[:1]

    monkeypatch.setattr(groups, "_propose", rotated)
    assert _digest(FRESH[name]()) == GROUP_SHA256[name]


def test_assemble_rejects_a_closed_set_minus_one_line_at_conductor_4():
    from crg.groups import _assemble, _root_array

    roots = [refl.root for refl in build_series(4, 4, 3).reflections][1:]
    with pytest.raises(ValueError, match="not conjugation-closed"):
        _assemble("G(4,4,3) minus one", 3, 4, _root_array(roots), len(roots))


@pytest.mark.parametrize("name", ["G(6,3,3)", "H4", "G22"])
def test_a_fresh_build_reads_no_root_as_field_elements(name):
    g = FRESH[name]()
    assert not any({"root", "coform"} & vars(r).keys() for r in g.reflections)
    # built on first read, from the group's arrays
    assert g.reflections[0].root[0] == 1
    assert "root" in vars(g.reflections[0])


@pytest.mark.parametrize("name", ["H4", "G22"])
def test_a_build_inverts_each_distinct_lead_once(name, monkeypatch):
    from crg import groups
    from crg.groups import EXCEPTIONAL, _h_series_roots, _root_array

    inverted = []
    inverse = CycNum.inverse

    def recording(x):
        inverted.append(x)
        return inverse(x)

    if name == "H4":
        roots = _h_series_roots(4)
    else:
        rank, conductor, count, make = EXCEPTIONAL[name]
        roots = _root_array(make(cyclotomic_field(conductor)))
    monkeypatch.setattr(groups.CycNum, "inverse", recording)
    g = FRESH[name]()
    monkeypatch.undo()
    heads = roots[np.arange(len(roots)), (roots != 0).any(-1).argmax(-1)]
    leads = {tuple(h) for h in heads.tolist() if any(h[1:])}
    nus = {sum((x * y for x, y in zip(r.coform, r.root)), g.field.zero()) for r in g.reflections}
    # one inverse per distinct irrational lead, and one per distinct nu
    assert len(set(inverted)) == len(inverted) <= len(leads) + len(nus)
    assert len(leads) > 1


def _operand_pairs(field, rng):
    """Operand pairs for `_mul`: dense, one operand nonzero only in its
    constant coefficient, a constant operand broadcast against the other,
    and a pair whose products have no power zeta^k with k >= d."""
    d = field.degree
    dense = rng.integers(-50, 51, size=(6, 3, d))
    rational = np.zeros((6, 3, d), dtype=np.int64)
    rational[..., 0] = rng.integers(-50, 51, size=(6, 3))
    low = np.zeros((6, 3, d), dtype=np.int64)
    low[..., : (d + 1) // 2] = rng.integers(-50, 51, size=(6, 3, (d + 1) // 2))
    return [
        (dense, rng.integers(-50, 51, size=(6, 3, d))),
        (rational, dense),
        (dense, rational),
        (dense[2, 1], dense),
        (dense, dense[:, :1]),
        (low, low[::-1]),
    ]


@pytest.mark.parametrize("n", [1, 20, 105])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_batched_product_matches_cycnum_multiplication(n, dtype):
    from crg.cyclotomic import CycNum
    from crg.groups import _mul

    field = cyclotomic_field(n)
    rng = np.random.default_rng(n)
    rows = np.array(field.power_rows, dtype=dtype)
    for u, v in _operand_pairs(field, rng):
        got = _mul(u.astype(dtype), v.astype(dtype), rows)
        u, v = np.broadcast_arrays(u, v)
        assert got.shape == u.shape and got.dtype == np.dtype(dtype)
        for i in np.ndindex(got.shape[:-1]):
            want = CycNum(field, u[i].tolist()) * CycNum(field, v[i].tolist())
            assert want.den == 1
            assert tuple(got[i].tolist()) == want.num
