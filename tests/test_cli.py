"""Group-spec parsing, output formats, and exit codes of the command line."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crg import cli, groups, rep, tensor
from crg.groups import Refused
from crg.cli import (
    ALIASES,
    Coxeter,
    Exceptional,
    Series,
    build_group,
    main,
    parse_group,
)

series_specs = st.builds(
    Series,
    m=st.integers(min_value=1, max_value=40).map(lambda e: e),
    p=st.just(0),
    r=st.integers(min_value=1, max_value=9),
).flatmap(
    lambda s: st.sampled_from([1, 2]).map(
        lambda q: Series(s.m * q, s.m, s.r)
    )
)

coxeter_specs = st.one_of(
    st.builds(Coxeter, kind=st.sampled_from("ABD"), rank=st.integers(1, 12)),
    st.builds(Coxeter, kind=st.just("I2"), rank=st.integers(2, 40)),
    st.sampled_from([Coxeter(k) for k in ("H3", "H4", "F4", "E6", "E7", "E8")]),
)

exceptional_specs = st.sampled_from(
    [Exceptional(k) for k in (12, 13, 22, 24)]
)

group_specs = st.one_of(series_specs, coxeter_specs, exceptional_specs)


@given(group_specs)
def test_parse_inverts_render(spec):
    assert parse_group(spec.render()) == spec


def test_parse_examples():
    assert parse_group("G(3,3,3)") == Series(3, 3, 3)
    assert parse_group("G(6,3,2)") == Series(6, 3, 2)
    assert parse_group(" B4 ") == Coxeter("B", 4)
    assert parse_group("I2(7)") == Coxeter("I2", 7)
    assert parse_group("E8") == Coxeter("E8")
    assert parse_group("G22") == Exceptional(22)
    for index, kind in ALIASES.items():
        assert parse_group(f"G{index}") == Coxeter(kind)


def test_parse_rejects_unsupported_series():
    with pytest.raises(ValueError, match="pseudo-reflection series unsupported"):
        parse_group("G(6,2,3)")
    with pytest.raises(ValueError, match="pseudo-reflection series unsupported"):
        parse_group("G(5,1,4)")


def test_parse_rejects_missing_data():
    with pytest.raises(ValueError, match="no construction for G27"):
        parse_group("G27")
    with pytest.raises(ValueError, match="no construction for G99"):
        parse_group("G99")


def test_parse_syntax_errors_carry_position():
    with pytest.raises(ValueError, match=r"syntax error at position 2"):
        parse_group("G(,3,3)")
    with pytest.raises(ValueError, match=r"syntax error at position 0"):
        parse_group("Q5")
    with pytest.raises(ValueError, match=r"syntax error at position 5"):
        parse_group("I2(7)x")


def test_build_group_dispatch():
    assert build_group(Series(3, 3, 3)).name == "G(3,3,3)"
    assert build_group(Coxeter("A", 3)).name == "A3"
    assert build_group(Coxeter("H3")).name == "H3"
    assert len(build_group(Exceptional(12)).reflections) == 12


def test_discriminants_json_is_byte_exact(capsys):
    code = main(["discriminants", "--group", "G(3,3,3)", "--format", "json"])
    assert code == 0
    out = capsys.readouterr().out
    assert out == '{"sign":-1,"factors":[[9,1],[0,8]],"remainder":[1]}\n'


def test_discriminants_json_is_deterministic(capsys):
    main(["discriminants", "--group", "B3", "--format", "json"])
    first = capsys.readouterr().out
    main(["discriminants", "--group", "B3", "--format", "json"])
    assert capsys.readouterr().out == first


def test_discriminants_text_and_csv(capsys):
    main(["discriminants", "--group", "A3", "--format", "text"])
    text = capsys.readouterr().out
    assert "(m-5)" in text
    main(["discriminants", "--group", "A3", "--format", "csv"])
    csv_out = capsys.readouterr().out.splitlines()
    assert csv_out[0] == "class,size,sign,factors,remainder"
    assert len(csv_out) == 2


def test_verify_core_passes(capsys):
    code = main(["verify", "--group", "A2", "--suite", "core"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in out
    assert "integrability" in out


def test_verify_all_suites_on_a2(capsys):
    code = main(["verify", "--group", "A2", "--suite", "all"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dihedral-zero-point" in out
    assert "krammer-braid" in out


@pytest.mark.parametrize("group", ["A1", "G(4,2,1)"])
def test_verify_passes_on_a_single_reflection(capsys, group):
    assert main(["verify", "--group", group, "--suite", "all"]) == 0
    assert "PASS integrability" in capsys.readouterr().out


def _check_lines(capsys, group, suite):
    """The check lines of one suite, without elapsed times or the summary,
    which names the spelling."""
    assert main(["verify", "--group", group, "--suite", suite]) == 0
    lines = capsys.readouterr().out.splitlines()
    return [re.sub(r" \(\d+\.\d{3}s\)", "", line) for line in lines[:-1]]


@pytest.mark.parametrize(
    "spelling, same_as",
    [("G(1,1,3)", "A2"), ("I2(3)", "A2"), ("G(3,3,2)", "A2"), ("D3", "A3"), ("G(2,2,3)", "A3")],
)
def test_dihedral_and_krammer_checks_follow_the_group(capsys, spelling, same_as):
    for suite in ("dihedral", "krammer"):
        assert _check_lines(capsys, spelling, suite) == _check_lines(capsys, same_as, suite)


def test_verify_skips_tensor_on_large_class(capsys):
    code = main(["verify", "--group", "G(13,13,3)", "--suite", "tensor"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS ds-table[0]" in out
    for name in ("tensor-square[0]", "psu-membership[0]"):
        assert f"SKIP {name} (0.000s)  class of 39 above the tensor limit of 36" in out
    assert "--force" not in out


def test_verify_skips_membership_at_a_root_above_the_root_limit(capsys):
    # 13 is a root of H3's class discriminant: the squares move on to 14, and
    # membership at 13 would close V (x) V on a class of 15
    code = main(["verify", "--group", "H3", "--suite", "tensor", "--m", "13"])
    out = capsys.readouterr().out
    assert code == 0
    assert re.search(r"PASS tensor-square\[0\] \(\d+\.\d{3}s\)", out)
    assert (
        "SKIP psu-membership[0] (0.000s)  class of 15 at the discriminant root 13,"
        " above the root limit of 12"
    ) in out
    assert "FAIL" not in out


def test_tables_prop81(capsys):
    code = main(["tables", "--which", "prop81"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 group failures" in out


def test_tables_rejects_bogus_fixture(tmp_path, capsys):
    bad = [
        {
            "group": "A2",
            "class_size": 3,
            "sign": 1,
            "factors": [[5, 1], [0, 2]],
        }
    ]
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(bad))
    code = main(["tables", "--which", "prop81", "--fixture", str(path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_conjecture_output_is_stable(capsys):
    argv = ["conjecture", "--e-max", "5", "--r-max", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    assert report["all_match"] is True
    assert {(case["e"], case["r"]) for case in report["cases"]} == {
        (3, 3),
        (5, 3),
    }


def test_list_groups(capsys):
    assert main(["list-groups"]) == 0
    out = capsys.readouterr().out
    assert "G12" in out and "G24" in out
    assert "G23=H3" in out


def test_listed_exceptional_groups_parse_and_build(capsys):
    assert main(["list-groups"]) == 0
    line = next(
        line for line in capsys.readouterr().out.splitlines() if line.startswith("exceptional")
    )
    names = line.split(": ")[1].split()
    assert names == ["G12", "G13", "G22", "G24"]
    for name in names:
        assert build_group(parse_group(name)).name == name
    with pytest.raises(ValueError, match="no construction for G25"):
        parse_group("G25")


def test_usage_errors_exit_2(capsys):
    assert main(["discriminants", "--group", "Q5"]) == 2
    assert "syntax error" in capsys.readouterr().err
    assert main(["verify", "--group", "G(6,2,3)"]) == 2
    assert "unsupported" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["G(1,1,1)", "G(2,2,1)", "G(3,3,1)"])
def test_series_without_reflections_are_refused(capsys, name):
    assert main(["discriminants", "--group", name]) == 2
    assert capsys.readouterr().err == f"error: {name} has no reflections\n"


@pytest.mark.parametrize(
    "name", ["I2(100000)", "G(100000,100000,2)", "G(200000,100000,1)", "G(100,100,3)"]
)
def test_oversized_groups_are_refused_before_they_are_built(capsys, monkeypatch, name):
    built = []
    monkeypatch.setattr(cli, "build_series", lambda *args: built.append(args))
    monkeypatch.setattr(groups, "build_series", lambda *args: built.append(args))
    assert main(["discriminants", "--group", name]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} is refused: m = ")
    assert captured.out == "" and built == []
    # the largest admitted series reaches the builder
    assert build_group(Series(200, 200, 2)) is None and built == [(200, 200, 2)]


def test_verify_failure_exits_1(capsys, monkeypatch):
    def tampered(g):
        alpha = [list(row) for row in g.alpha]
        alpha[0][1] += 1
        return rep.build_rep(g, alpha)

    monkeypatch.setattr(cli, "build_rep", tampered)
    code = main(["verify", "--group", "A2", "--suite", "core"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL integrability" in out and "FAIL equivariance" in out


def test_internal_error_exits_3(capsys, monkeypatch):
    # a plain ValueError is a bug too: only `Refused` is a refusal
    for error in (RuntimeError, ValueError):

        def broken(bundle):
            raise error("lost a column")

        monkeypatch.setattr(cli, "check_integrability", broken)
        assert main(["verify", "--group", "A2", "--suite", "core"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"internal error: {error.__name__}: lost a column\n"
        assert captured.out == ""


def test_refused_check_is_skipped(capsys, monkeypatch):
    def refused(bundle):
        raise Refused("no room for this one")

    monkeypatch.setattr(cli, "check_integrability", refused)
    assert main(["verify", "--group", "A2", "--suite", "core"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^SKIP integrability \(\d+\.\d{3}s\)  no room for this one$", out, re.M)
    assert "0 failed" in out and "FAIL" not in out


def test_norton_miss_above_the_closure_width_is_skipped(capsys, monkeypatch):
    # S^2 of a class of 27 is 378 wide: its closure would be 378^2 = 142884
    # wide, above the bound for exact mod-p products
    runs = []
    norton = tensor._square_norton

    def sym_misses(ints, blocks, b, sign, p):
        if sign > 0:
            return False
        runs.append(1)
        return norton(ints, blocks, b, sign, p)

    monkeypatch.setattr(tensor, "_square_norton", sym_misses)
    assert main(["verify", "--group", "G(9,9,3)", "--suite", "tensor"]) == 0
    out = capsys.readouterr().out
    detail = "sym square of a class of 27, whose closure would be 142884 wide, above the limit of 131072"
    for name in ("tensor-square[0]", "psu-membership[0]"):
        assert re.search(rf"^SKIP {re.escape(name)} \(\d+\.\d{{3}}s\)  .*{detail}$", out, re.M)
    assert "FAIL" not in out
    # the bundle caches the refusal: psu-membership does not rerun the squares
    assert len(runs) == 1


def test_tables_refuses_a_malformed_fixture(tmp_path, capsys):
    path = tmp_path / "tables.json"
    row = '"group": "A2", "class_size": 3, "sign": -1'
    for text in (
        '[{"group": "A2",',
        "[1]",
        '[{"group": "A2"}]',
        '{"group": "A2"}',
        f'[{{{row}, "factors": 5}}]',
        f'[{{{row}, "factors": [[1]]}}]',
        '[{"group": 5, "class_size": 3, "sign": -1, "factors": []}]',
    ):
        path.write_text(text)
        assert main(["tables", "--which", "prop81", "--fixture", str(path)]) == 2, text
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path} is not a JSON fixture: ")
        assert captured.out == ""
    path.write_text('[{"group": "G(x,1,1)", "class_size": 3, "sign": -1, "factors": []}]')
    assert main(["tables", "--which", "1", "--fixture", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: fixture group 'G(x,1,1)' is not a series G(m,p,r)\n"
    assert captured.out == ""


def _run_quietly(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


GROUP_LIKE = r"[ABDEFGHI]\d{0,3}|I2\(\d{0,4}\)|G\(\d{1,4},\d{1,4},\d{1,3}\)"


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(max_size=16), st.from_regex(GROUP_LIKE, fullmatch=True)))
@example("A\u00b2")  # a digit that int() does not read
@example("G" + "9" * 5000)  # more digits than int() converts
def test_fuzzed_group_names_exit_cleanly(text):
    # the builders validate for real; `_assemble` hands back A2, and the
    # uncached builders keep the stub out of their caches
    a2 = groups.build_coxeter("A", 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_assemble", lambda *args: a2)
        for name in ("build_series", "build_coxeter", "build_exceptional"):
            unwrapped = getattr(groups, name).__wrapped__
            mp.setattr(groups, name, unwrapped)
            mp.setattr(cli, name, unwrapped)
        code, err = _run_quietly(["discriminants", f"--group={text}"])
    assert code in (0, 2)
    assert "Traceback" not in err and "internal error" not in err


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.text(max_size=16),
        st.fractions().map(str),
        st.from_regex(r"-?\d{1,6}(/-?\d{0,4})?|-?\d*\.\d*([eE]-?\d{1,3})?", fullmatch=True),
    )
)
def test_fuzzed_m_values_exit_cleanly(text):
    code, err = _run_quietly(["verify", "--group", "A2", "--suite", "spectral", f"--m={text}"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "internal error" not in err


def test_spectral_suite_rejects_m_equal_to_one(capsys):
    for suite in ("spectral", "all"):
        assert main(["verify", "--group", "A2", "--suite", suite, "--m", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the spectral suite needs --m other than 1")
        assert captured.out == ""


def test_m_is_rejected_where_no_suite_reads_it(capsys):
    for suite in ("core", "parabolic"):
        assert main(["verify", "--group", "A2", "--suite", suite, "--m", "5"]) == 2
        captured = capsys.readouterr()
        assert "--m is read only by the spectral and tensor suites" in captured.err
        assert captured.out == ""


# an exponent is refused unread: "1e999999999" would build a billion-digit integer
@pytest.mark.parametrize("value", ["abc", "1/0", "", "1/2/3", "1e5"])
def test_verify_rejects_unparsable_m(capsys, value):
    assert main(["verify", "--group", "A2", "--m", value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --m must be a rational number")
    assert captured.out == ""


def test_tensor_suite_rejects_fractional_m(capsys):
    for suite in ("tensor", "all"):
        assert main(["verify", "--group", "A2", "--suite", suite, "--m", "5/2"]) == 2
        captured = capsys.readouterr()
        assert "integer --m" in captured.err
        assert captured.out == ""
    assert main(["verify", "--group", "A2", "--suite", "tensor", "--m", "14/2"]) == 0
    assert "0 failed" in capsys.readouterr().out
