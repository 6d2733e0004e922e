"""Command-line front end: group parsing, discriminants, verification suites,
table regression, and the conjecture scanner."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Union

from .groups import (
    EXCEPTIONAL,
    ReflectionGroupData,
    Refused,
    build_coxeter,
    build_exceptional,
    build_series,
    data_dir,
    series_size,
)
from .krammer import build_krammer, check_braid_relations, cubic_specialization_check
from .quadratic import (
    Discriminant,
    check_n_c,
    conjecture_scan,
    discriminant,
)
from .rep import (
    DIHEDRAL_CHARACTER_NOTE,
    RepBundle,
    build_rep,
    check_T_scalar,
    check_equivariance,
    check_integrability,
    dihedral_m0_check,
    parabolic_restriction_check,
    spectrum_check,
)
from .tensor import (
    _EXCLUDED_POINTS,
    _ROOT_CLASS_LIMIT,
    _SQUARE_CLASS_LIMIT,
    _excluded,
    ds_table_check,
    psu_membership_check,
    tensor_square_check,
)

COXETER_FIXED = ("H3", "H4", "F4", "E6", "E7", "E8")
# a series or dihedral group whose m or reflection count is above this is
# refused before it is built: the reduction table of Q(zeta_m) alone has
# about m * phi(m) entries
SIZE_LIMIT = 200
ALIASES = {23: "H3", 28: "F4", 30: "H4", 35: "E6", 36: "E7", 37: "E8"}


@dataclass(frozen=True)
class Series:
    m: int
    p: int
    r: int

    def render(self) -> str:
        return f"G({self.m},{self.p},{self.r})"


@dataclass(frozen=True)
class Coxeter:
    kind: str
    rank: int | None = None

    def render(self) -> str:
        if self.kind == "I2":
            return f"I2({self.rank})"
        if self.kind in COXETER_FIXED:
            return self.kind
        return f"{self.kind}{self.rank}"


@dataclass(frozen=True)
class Exceptional:
    index: int

    def render(self) -> str:
        return f"G{self.index}"


GroupSpec = Union[Series, Coxeter, Exceptional]


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def fail(self, message: str):
        raise Refused(f"syntax error at position {self.pos}: {message}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        start = self.pos
        while "0" <= self.peek() <= "9":
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            self.fail("integer too long")

    def done(self) -> None:
        if self.pos != len(self.text):
            self.fail("unexpected trailing input")


def parse_group(text: str) -> GroupSpec:
    p = _Parser(text.strip())
    head = p.peek()
    if head == "G":
        p.pos += 1
        if p.peek() == "(":
            p.pos += 1
            m = p.integer()
            p.expect(",")
            pp = p.integer()
            p.expect(",")
            r = p.integer()
            p.expect(")")
            p.done()
            if pp < 1 or m % pp or m // pp not in (1, 2):
                raise Refused("pseudo-reflection series unsupported")
            return Series(m, pp, r)
        k = p.integer()
        p.done()
        if k in ALIASES:
            return Coxeter(ALIASES[k])
        if f"G{k}" not in EXCEPTIONAL:
            raise Refused(f"no construction for G{k}")
        return Exceptional(k)
    if head in ("A", "B", "D"):
        p.pos += 1
        rank = p.integer()
        p.done()
        return Coxeter(head, rank)
    if head == "I":
        p.pos += 1
        p.expect("2")
        p.expect("(")
        e = p.integer()
        p.expect(")")
        p.done()
        return Coxeter("I2", e)
    if head in ("H", "F", "E"):
        token = p.text[p.pos : p.pos + 2]
        if token in COXETER_FIXED:
            p.pos += 2
            p.done()
            return Coxeter(token)
        p.fail("unknown group token")
    p.fail("expected a group specification")


def build_group(spec: GroupSpec) -> ReflectionGroupData:
    m = count = 0
    if isinstance(spec, Series):
        m, count = spec.m, series_size(spec.m, spec.p, spec.r)
    elif isinstance(spec, Coxeter) and spec.kind == "I2":
        m = count = spec.rank
    if max(m, count) > SIZE_LIMIT:
        raise Refused(
            f"{spec.render()} is refused: m = {m} with {count} reflections,"
            f" and both must be at most {SIZE_LIMIT}"
        )
    if isinstance(spec, Series):
        return build_series(spec.m, spec.p, spec.r)
    if isinstance(spec, Exceptional):
        return build_exceptional(spec.render())
    if spec.kind in COXETER_FIXED:
        return build_coxeter(spec.kind)
    return build_coxeter(spec.kind, spec.rank)


def _factored_text(sign: int, factors, remainder) -> str:
    bits = []
    if sign < 0:
        bits.append("-")
    for root, mult in factors:
        if root == 0:
            base = "m"
        elif root > 0:
            base = f"(m-{root})"
        else:
            base = f"(m+{-root})"
        bits.append(base if mult == 1 else f"{base}^{mult}")
    if remainder.degree > 0:
        terms = []
        for k in range(remainder.degree, -1, -1):
            coef = remainder.coeffs[k] if k < len(remainder.coeffs) else 0
            if not coef:
                continue
            mono = "1" if k == 0 else ("m" if k == 1 else f"m^{k}")
            terms.append(f"{coef}*{mono}" if k else f"{coef}")
        bits.append("(" + "+".join(terms).replace("+-", "-") + ")")
    if not bits or bits == ["-"]:
        bits.append("1")
    return "".join(bits)


def _remainder_list(remainder) -> list:
    return [int(c) if c.denominator == 1 else str(c) for c in remainder.coeffs]


def cmd_discriminants(spec: GroupSpec, fmt: str) -> int:
    g = build_group(spec)
    lines = []
    for c in range(len(g.classes)):
        d = discriminant(g, c)
        if fmt == "json":
            lines.append(
                json.dumps(
                    {
                        "sign": d.sign,
                        "factors": [list(f) for f in d.factors],
                        "remainder": _remainder_list(d.remainder),
                    },
                    separators=(",", ":"),
                )
            )
        elif fmt == "csv":
            factors = ";".join(f"{root}:{mult}" for root, mult in d.factors)
            remainder = ";".join(str(x) for x in _remainder_list(d.remainder))
            lines.append(f"{c},{len(g.classes[c])},{d.sign},{factors},{remainder}")
        else:
            lines.append(
                f"class {c} (size {len(g.classes[c])}): "
                + _factored_text(d.sign, d.factors, d.remainder)
            )
    if fmt == "csv":
        lines.insert(0, "class,size,sign,factors,remainder")
    print("\n".join(lines))
    return 0


@dataclass
class CheckOutcome:
    name: str
    status: str  # pass | fail | skipped
    detail: str
    elapsed: float


def _run_check(checks: list[CheckOutcome], name: str, fn) -> None:
    start = time.perf_counter()
    try:
        result = fn()
    except Refused as exc:
        checks.append(CheckOutcome(name, "skipped", str(exc), time.perf_counter() - start))
        return
    elapsed = time.perf_counter() - start
    if result:
        checks.append(CheckOutcome(name, "pass", "", elapsed))
    else:
        detail = getattr(result, "detail", None)
        checks.append(CheckOutcome(name, "fail", repr(detail or ""), elapsed))


def _first_admissible(bundle, c: int, start: int) -> Fraction:
    m0 = Fraction(start)
    while _excluded(bundle, c, m0):
        m0 += 1
    return m0


def _core_checks(checks: list[CheckOutcome], bundle: RepBundle) -> None:
    g = bundle.group
    _run_check(checks, "integrability", lambda: check_integrability(bundle))
    _run_check(checks, "equivariance", lambda: check_equivariance(bundle))
    for c in range(len(g.classes)):
        _run_check(checks, f"T-scalar[{c}]", lambda c=c: check_T_scalar(bundle, c))
    # one discriminant per class, reused by N(c): a certified integer
    # spectrum, or Berkowitz, whose factors must expand back to det(A_c - m*I)
    discs: dict[int, Discriminant] = {}
    for c in range(len(g.classes)):
        def disc_identity(c=c):
            discs[c] = discriminant(g, c)
            return True

        _run_check(checks, f"discriminant[{c}]", disc_identity)
    for c in range(len(g.classes)):
        _run_check(checks, f"N(c)[{c}]", lambda c=c: check_n_c(g, c, discs.get(c)))


def _spectral_checks(checks: list[CheckOutcome], bundle: RepBundle, sample: Fraction | None) -> None:
    for c, members in enumerate(bundle.group.classes):
        _run_check(
            checks, f"spectrum[{c}]", lambda s=members[0]: spectrum_check(bundle, s, sample)
        )


def _tensor_checks(checks: list[CheckOutcome], bundle: RepBundle, sample: Fraction | None) -> None:
    # exact: cmd_verify rejects a non-integer --m for this suite
    start = int(sample) if sample is not None else 7
    for c, members in enumerate(bundle.group.classes):
        _run_check(checks, f"ds-table[{c}]", lambda: ds_table_check(bundle, members[0], c))
        names = [f"tensor-square[{c}]", f"psu-membership[{c}]"]
        if len(members) > _SQUARE_CLASS_LIMIT:
            detail = f"class of {len(members)} above the tensor limit of {_SQUARE_CLASS_LIMIT}"
            for name in names:
                checks.append(CheckOutcome(name, "skipped", detail, 0.0))
            continue

        def squares(c=c):
            return tensor_square_check(bundle, c, _first_admissible(bundle, c, start))["ok"]

        _run_check(checks, names[0], squares)
        if len(members) < 2:
            checks.append(CheckOutcome(names[1], "skipped", "singleton class", 0.0))
            continue
        m0 = Fraction(start)
        while m0 in _EXCLUDED_POINTS:
            m0 += 1
        # at a root, membership closes V (x) V, which keeps the smaller limit
        if len(members) > _ROOT_CLASS_LIMIT and _excluded(bundle, c, m0):
            detail = (
                f"class of {len(members)} at the discriminant root {m0},"
                f" above the root limit of {_ROOT_CLASS_LIMIT}"
            )
            checks.append(CheckOutcome(names[1], "skipped", detail, 0.0))
            continue

        def membership(c=c, members=members, m0=m0):
            return psu_membership_check(bundle, c, members[0], members[1], m0)

        _run_check(checks, names[1], membership)


def _parabolic_checks(checks: list[CheckOutcome], bundle: RepBundle) -> None:
    if bundle.size < 2:
        checks.append(
            CheckOutcome("parabolic-restriction", "skipped", "no proper seed", 0.0)
        )
        return

    def restriction():
        try:
            return parabolic_restriction_check(bundle, [0, 1])
        except Refused:
            return parabolic_restriction_check(bundle, [0])

    _run_check(checks, "parabolic-restriction", restriction)


def _dihedral_and_krammer(spec: GroupSpec) -> tuple[int | None, int | None]:
    """(e, n) with the group I2(e) for an odd e and A_{n-1}, or None for each
    it is not, whatever the spelling: A2 = I2(3) = G(3,3,2) = G(1,1,3) and
    A3 = D3 = G(2,2,3) = G(1,1,4)."""
    kind, rank = (spec.kind, spec.rank) if isinstance(spec, Coxeter) else (None, None)
    if isinstance(spec, Series):
        if (spec.m, spec.p) == (1, 1):
            kind, rank = "A", spec.r - 1
        elif spec.m == spec.p and spec.r == 2:
            kind, rank = "I2", spec.m
        elif (spec.m, spec.p) == (2, 2):
            kind, rank = "D", spec.r
    kind, rank = {("I2", 3): ("A", 2), ("D", 3): ("A", 3)}.get((kind, rank), (kind, rank))
    e = 3 if (kind, rank) == ("A", 2) else rank if kind == "I2" and rank % 2 else None
    return e, rank + 1 if kind == "A" else None


def _dihedral_checks(checks: list[CheckOutcome], spec: GroupSpec) -> None:
    e, _ = _dihedral_and_krammer(spec)
    if e is None:
        checks.append(
            CheckOutcome("dihedral-zero-point", "skipped", "not an odd dihedral group", 0.0)
        )
        return
    _run_check(checks, "dihedral-zero-point", lambda: dihedral_m0_check(e))
    checks.append(
        CheckOutcome("dihedral-character-note", "pass", DIHEDRAL_CHARACTER_NOTE, 0.0)
    )


def _krammer_checks(checks: list[CheckOutcome], spec: GroupSpec) -> None:
    _, n = _dihedral_and_krammer(spec)
    if n is None or n < 2:
        checks.append(
            CheckOutcome("krammer-braid", "skipped", "not a type-A group", 0.0)
        )
        checks.append(
            CheckOutcome("krammer-cubic", "skipped", "not a type-A group", 0.0)
        )
        return
    model = build_krammer(n)
    _run_check(checks, "krammer-braid", lambda: check_braid_relations(model))
    _run_check(checks, "krammer-cubic", lambda: cubic_specialization_check(model))


SUITES = ("core", "spectral", "tensor", "parabolic", "dihedral", "krammer", "all")


def cmd_verify(spec: GroupSpec, suite: str, sample: Fraction | None) -> int:
    checks: list[CheckOutcome] = []
    wanted = SUITES[:-1] if suite == "all" else (suite,)
    if sample is not None and not {"spectral", "tensor"} & set(wanted):
        raise Refused(f"--m is read only by the spectral and tensor suites, not by {suite}")
    if "spectral" in wanted and sample == 1:
        raise Refused("the spectral suite needs --m other than 1: t_s is not semisimple there")
    if "tensor" in wanted and sample is not None and sample.denominator != 1:
        raise Refused(f"the tensor suite needs an integer --m, got {sample}")
    bundle = build_rep(build_group(spec))
    for name in wanted:
        if name == "core":
            _core_checks(checks, bundle)
        elif name == "spectral":
            _spectral_checks(checks, bundle, sample)
        elif name == "tensor":
            _tensor_checks(checks, bundle, sample)
        elif name == "parabolic":
            _parabolic_checks(checks, bundle)
        elif name == "dihedral":
            _dihedral_checks(checks, spec)
        elif name == "krammer":
            _krammer_checks(checks, spec)
    names = [c.name for c in checks]
    assert len(names) == len(set(names)), "duplicate check name"
    for c in checks:
        tag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c.status]
        detail = f"  {c.detail}" if c.detail else ""
        print(f"{tag} {c.name} ({c.elapsed:.3f}s){detail}")
    failed = sum(1 for c in checks if c.status == "fail")
    passed = sum(1 for c in checks if c.status == "pass")
    skipped = sum(1 for c in checks if c.status == "skipped")
    print(f"{spec.render()}: {passed} passed, {failed} failed, {skipped} skipped")
    return 1 if failed else 0


_FIXTURE_ROW = '{"group": str, "class_size": int, "sign": int, "factors": [[int, int], ...]}'


def _fixture_rows(path: Path) -> list[tuple[str, tuple]]:
    """(group, row) for each row of the fixture at `path`, the row in the form
    its class is computed in; refused unless every row has the shape `_FIXTURE_ROW`."""
    with open(path) as fh:
        try:
            rows = json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise Refused(f"{path} is not a JSON fixture: {exc}") from None
    ints = lambda xs: all(type(x) is int for x in xs)
    if not isinstance(rows, list) or not all(
        isinstance(row, dict)
        and isinstance(row.get("group"), str)
        and ints([row.get("class_size"), row.get("sign")])
        and isinstance(row.get("factors"), list)
        and all(isinstance(f, list) and len(f) == 2 and ints(f) for f in row["factors"])
        for row in rows
    ):
        raise Refused(f"{path} is not a JSON fixture: each row must be {_FIXTURE_ROW}")
    return [
        (row["group"], (row["class_size"], row["sign"], tuple(map(tuple, row["factors"])), (1,)))
        for row in rows
    ]


def _table_section(group: str) -> str:
    if group.startswith("G("):
        try:
            m, p, _ = (int(x) for x in group[2:-1].split(","))
        except ValueError:
            raise Refused(f"fixture group {group!r} is not a series G(m,p,r)") from None
        return "1" if m == p else "2"
    if group[:1] in ("A", "B", "D") or group.startswith("I2("):
        return "prop81"
    return "1"


def cmd_tables(which: str, fixture_path: str | None) -> int:
    path = Path(fixture_path) if fixture_path else data_dir() / "tables.json"
    selected: dict[str, list[tuple]] = {}
    for group, row in _fixture_rows(path):
        if _table_section(group) == which:
            selected.setdefault(group, []).append(row)
    failures = 0
    skips = 0
    for group in selected:
        try:
            spec = parse_group(group)
            g = build_group(spec)
        except Refused as exc:
            print(f"SKIP {group}: {exc}")
            skips += len(selected[group])
            continue
        computed = sorted(
            (
                len(g.classes[c]),
                d.sign,
                tuple(tuple(f) for f in d.factors),
                tuple(_remainder_list(d.remainder)),
            )
            for c in range(len(g.classes))
            for d in [discriminant(g, c)]
        )
        expected = sorted(selected[group])
        if computed == expected:
            print(f"PASS {group}: {len(selected[group])} row(s)")
        else:
            failures += 1
            print(f"FAIL {group}: computed {computed} expected {expected}")
    total = sum(len(v) for v in selected.values())
    print(f"table {which}: {total} rows, {failures} group failures, {skips} rows skipped")
    return 1 if failures else 0


def cmd_conjecture(e_max: int, r_max: int) -> int:
    report = conjecture_scan(e_max, r_max)
    print(json.dumps(report, separators=(",", ":"), sort_keys=True))
    return 0


def cmd_list_groups() -> int:
    print("series: G(e,e,r) and G(2e,e,r)")
    print("coxeter: A<n> B<n> D<n> I2(e) " + " ".join(COXETER_FIXED))
    print("exceptional data: " + " ".join(EXCEPTIONAL))
    print(
        "aliases: "
        + " ".join(f"G{k}={v}" for k, v in sorted(ALIASES.items()))
    )
    return 0


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crg")
    sub = parser.add_subparsers(dest="command", required=True)

    disc = sub.add_parser("discriminants", help="factored class discriminants")
    disc.add_argument("--group", required=True)
    disc.add_argument("--format", choices=("text", "json", "csv"), default="text")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--group", required=True)
    verify.add_argument("--suite", choices=SUITES, default="core")
    verify.add_argument(
        "--m",
        dest="sample",
        help="spectral suite: -1 checks that point, 1 is refused, any other value or none"
        " proves all m other than 1 and -1; tensor suite: integer start point (default 7)",
    )

    tables = sub.add_parser("tables", help="regression-check shipped table rows")
    tables.add_argument("--which", choices=("1", "2", "prop81"), required=True)
    tables.add_argument("--fixture", default=None)

    conj = sub.add_parser("conjecture", help="scan the odd-e discriminant formula")
    conj.add_argument("--e-max", type=int, default=9)
    conj.add_argument("--r-max", type=int, default=5)

    sub.add_parser("list-groups", help="supported group specifications")
    return parser


def _parse_sample(text: str | None) -> Fraction | None:
    if text is None:
        return None
    # no exponent: Fraction("1e999999999") would build a billion-digit integer
    if "e" not in text.lower():
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise Refused(f"--m must be a rational number such as 5 or 22/7, got {text!r}")


def main(argv=None) -> int:
    parser = _build_arg_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "discriminants":
            return cmd_discriminants(parse_group(args.group), args.format)
        if args.command == "verify":
            sample = _parse_sample(args.sample)
            return cmd_verify(parse_group(args.group), args.suite, sample)
        if args.command == "tables":
            return cmd_tables(args.which, args.fixture)
        if args.command == "conjecture":
            return cmd_conjecture(args.e_max, args.r_max)
        if args.command == "list-groups":
            return cmd_list_groups()
    except (Refused, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
