"""Workload inputs and their execution.

`make_jobs` turns a workload name, a seed and the shipped table fixture into
a list of plain-data jobs; nothing in it calls the library. `Executor` runs
one job at a time against the library, records a span around every call it
makes into a layer, and compares the result with the job's known answer.

Layers are the package's modules. `cyclotomic`, `matrices` and
`polynomials` are never called directly here, so their time is charged to
the layer that calls them.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

WORKLOADS = ("tables", "identities", "algebras")

# Groups left out of each workload. `unsupported`: no construction ships, and
# `crg tables` skips them too. `time_budget`: left out only so that two passes
# fit in one run: E8 (G37, ~23 s alone); H4 (~23 s) and E6 (~5 s), both all-m;
# D4 (~12.5 s at its three roots) and I2(9).
LEFT_OUT = {
    "tables": {"unsupported": ["G27", "G29", "G31", "G33", "G34"], "time_budget": ["G37"]},
    "identities": {"time_budget": ["H4", "E6"]},
    "algebras": {"time_budget": ["D4", "I2(9)"]},
}

# (name used for the build, name of its rows in the fixture)
IDENTITY_GROUPS = (
    ("A3", "A3"),
    ("B3", "B3"),
    ("D4", "D4"),
    ("G(4,2,3)", "G(4,2,3)"),
    ("G(3,3,4)", "G(3,3,4)"),
    ("F4", "G28"),
    ("G24", "G24"),
    ("E7", "G36"),  # the one group above SYMBOLIC_SIZE_LIMIT: the sampled route
)
# Above this many reflections integrability is checked at one sampled point,
# as `crg verify --suite core` does.
SYMBOLIC_SIZE_LIMIT = 60
# Admissible points: every identity holds at each of them.
SAMPLED_POINTS = ("7", "22/7", "9/2", "11/3", "13/4", "17/5")
SPECTRUM_POINTS = ("5", "7", "22/7", "9/2", "11/3", "13/4", "17/5")
DIHEDRAL_ES = (3, 5, 7, 9)

ALGEBRA_GROUPS = ("A3", "A4", "B3", "I2(5)")
TENSOR_GROUPS = ("I2(5)", "A3", "B2")
PSU_PAIRS_PER_GROUP = 5
# Points where the tensor-square and membership checks refuse to evaluate.
TENSOR_EXCLUDED = (-3, -1, 0, 1, 3)
KRAMMER_NS = tuple(range(2, 9))
# Exact algebra dimensions at discriminant roots, by (group, class size, m).
# The generic point n_c + 2 must give d^2; these must repeat exactly.
DEGENERATE_DIMS = {
    ("A3", 6, 5): 31,
    ("A3", 6, 1): 27,
    ("A4", 10, 7): 91,
    ("A4", 10, 2): 76,
    ("B3", 3, 5): 7,
    ("B3", 6, 7): 31,
    ("B3", 6, 1): 28,
    ("I2(5)", 5, 5): 21,
    ("I2(5)", 5, 0): 13,
}


def load_fixture(root: Path) -> dict[str, list[list]]:
    """Fixture rows by group: [class_size, sign, factors], sorted."""
    with open(root / "src" / "crg" / "data" / "tables.json") as fh:
        rows = json.load(fh)
    table: dict[str, list[list]] = {}
    for row in rows:
        factors = [list(f) for f in row["factors"]]
        table.setdefault(row["group"], []).append(
            [row["class_size"], row["sign"], factors]
        )
    return {name: sorted(rows) for name, rows in table.items()}


def make_jobs(workload: str, seed: int, fixture: dict) -> list[dict]:
    """The seeded job list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables":
        jobs = _tables_jobs(fixture)
        rng.shuffle(jobs)
    elif workload == "identities":
        jobs = _identities_jobs(fixture, rng)
    elif workload == "algebras":
        jobs = _algebras_jobs(fixture, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    jobs.insert(rng.randrange(len(jobs) + 1), {"op": "probe"})
    return jobs


def _tables_jobs(fixture: dict) -> list[dict]:
    skip = {name for names in LEFT_OUT["tables"].values() for name in names}
    return [
        {"op": "table", "group": name, "rows": rows}
        for name, rows in fixture.items()
        if name not in skip
    ]


def _identities_jobs(fixture: dict, rng: random.Random) -> list[dict]:
    blocks = []
    for name, fixture_name in IDENTITY_GROUPS:
        rows = fixture[fixture_name]
        n = sum(row[0] for row in rows)
        m = None if n <= SYMBOLIC_SIZE_LIMIT else rng.choice(SAMPLED_POINTS)
        rest = [{"op": "equivariance", "group": name}]
        for c in range(len(rows)):
            rest.append({"op": "t_scalar", "group": name, "class": c})
            rest.append(
                {
                    "op": "spectrum",
                    "group": name,
                    "class": c,
                    "m": rng.choice(SPECTRUM_POINTS),
                }
            )
        pair = sorted(rng.sample(range(n), 2))
        rest.append({"op": "parabolic", "group": name, "pair": pair})
        rng.shuffle(rest)
        sizes = sorted(row[0] for row in rows)
        blocks.append(
            [
                {"op": "build", "group": name, "class_sizes": sizes},
                {"op": "integrability", "group": name, "m": m},
            ]
            + rest
        )
    blocks += [[{"op": "dihedral", "e": e}] for e in DIHEDRAL_ES]
    blocks.append([{"op": "tampered"}])
    rng.shuffle(blocks)
    return [job for block in blocks for job in block]


def _algebras_jobs(fixture: dict, rng: random.Random) -> list[dict]:
    jobs = []
    for name in ALGEBRA_GROUPS:
        for size, _, factors in fixture[name]:
            roots = [root for root, _ in factors]
            jobs.append(
                {
                    "op": "algebra",
                    "group": name,
                    "class_size": size,
                    "m": max(roots) + 2,
                    "dim": size * size,
                }
            )
            for root in roots:
                if root != -1:
                    jobs.append(
                        {
                            "op": "algebra",
                            "group": name,
                            "class_size": size,
                            "m": root,
                            "dim": DEGENERATE_DIMS[(name, size, root)],
                        }
                    )
    for name in TENSOR_GROUPS:
        rows = fixture[name]
        pairs = []
        for c, (size, _, factors) in enumerate(rows):
            roots = {root for root, _ in factors} | set(TENSOR_EXCLUDED)
            m = 7
            while m in roots:
                m += 1
            jobs.append({"op": "ds_table", "group": name, "class": c})
            jobs.append({"op": "tensor_square", "group": name, "class": c, "m": m})
            pairs += [[c, i, j] for i, j in combinations(range(size), 2)]
        for c, i, j in rng.sample(pairs, min(PSU_PAIRS_PER_GROUP, len(pairs))):
            jobs.append({"op": "psu", "group": name, "class": c, "pair": [i, j], "m": 7})
    for n in KRAMMER_NS:
        jobs.append({"op": "krammer_braid", "n": n})
        jobs.append({"op": "krammer_cubic", "n": n})
    rng.shuffle(jobs)
    return jobs


def job_label(job: dict) -> str:
    keys = [k for k in job if k not in ("op", "rows", "class_sizes", "dim")]
    return job["op"] + "".join(f" {k}={job[k]}" for k in keys)


class Executor:
    """Runs jobs in one process, keeping groups and bundles between jobs."""

    def __init__(self, tracer, fixture: dict) -> None:
        import crg
        import crg.cli

        self.crg = crg
        self.cli = crg.cli
        self.tracer = tracer
        self.fixture = fixture
        self.groups: dict = {}
        self.bundles: dict = {}
        self.models: dict = {}

    def run(self, job: dict):
        """Return (ok, detail): ok is whether the verdict matches the known answer."""
        return getattr(self, "_op_" + job["op"])(job)

    # calls into a layer, each under one span

    def group(self, name: str):
        if name not in self.groups:
            with self.tracer.span("groups", "build") as sp:
                g = self.cli.build_group(self.cli.parse_group(name))
            sp.count(reflections=g.size, conj_entries=g.size * g.size)
            self.groups[name] = g
        return self.groups[name]

    def bundle(self, name: str):
        if name not in self.bundles:
            g = self.group(name)
            self.bundles[name] = self.call("rep", "build", self.crg.build_rep, g)
        return self.bundles[name]

    def flats(self, g):
        with self.tracer.span("arrangement", "codim2_flats") as sp:
            table = self.crg.codim2_flats(g)
        sp.count(flats=len(table), root_pairs=g.size * (g.size - 1) // 2)
        return table

    def discriminant(self, g, c: int):
        with self.tracer.span("quadratic", "discriminant") as sp:
            d = self.crg.discriminant(g, c)
        sp.count(class_dim_sum=len(g.classes[c]))
        return d

    def integrability(self, bundle, m0):
        with self.tracer.span("rep", "integrability") as sp:
            result = self.crg.check_integrability(bundle, m0)
        flats = self.crg.codim2_flats(bundle.group).flats
        if result.ok:
            pairs = sum(len(f.members) for f in flats)
        else:
            idx, x = result.detail
            pairs = sum(len(f.members) for f in flats[:idx])
            pairs += flats[idx].members.index(x) + 1
        route = "all_m_proofs" if m0 is None else "sampled_proofs"
        sp.count(commutator_pairs=pairs, **{route: 1})
        return result

    def call(self, layer: str, kind: str, fn, *args):
        with self.tracer.span(layer, kind):
            return fn(*args)

    def algebra_dimension(self, mats) -> int:
        with self.tracer.span("tensor", "algebra") as sp:
            dim = self.crg.algebra_dimension(mats)
        full = dim == mats[0].rows ** 2
        sp.count(algebra_full=int(full), algebra_below_full=int(not full))
        return dim

    def krammer_model(self, n: int):
        if n not in self.models:
            with self.tracer.span("krammer", "build") as sp:
                model = self.crg.build_krammer(n)
            sp.count(dim_sum=model.dimension)
            self.models[n] = model
        return self.models[n]

    def blocks(self, name: str, members, m0: Fraction):
        bundle = self.bundle(name)
        return self.call(
            "rep", "t_block", lambda: [bundle.t_block(s, members, m0) for s in members]
        )

    def class_of_size(self, g, size: int) -> int:
        found = [c for c, members in enumerate(g.classes) if len(members) == size]
        if len(found) != 1:
            raise ValueError(f"{g.name}: {len(found)} classes of size {size}")
        return found[0]

    # tables

    def _table_rows(self, g) -> list[list]:
        rows = []
        for c in range(len(g.classes)):
            d = self.discriminant(g, c)
            row = [len(g.classes[c]), d.sign, [list(f) for f in d.factors]]
            remainder = [int(x) if x.denominator == 1 else str(x) for x in d.remainder.coeffs]
            if remainder != [1]:
                row.append(remainder)
            rows.append(row)
        return sorted(rows)

    def _op_table(self, job):
        computed = self._table_rows(self.group(job["group"]))
        ok = computed == job["rows"]
        return ok, None if ok else {"computed": computed, "expected": job["rows"]}

    # identities

    def _op_build(self, job):
        g = self.group(job["group"])
        sizes = sorted(len(members) for members in g.classes)
        return sizes == job["class_sizes"], sizes

    def _op_integrability(self, job):
        g = self.group(job["group"])
        bundle = self.bundle(job["group"])
        table = self.flats(g)
        m0 = None if job["m"] is None else Fraction(job["m"])
        result = self.integrability(bundle, m0)
        if self.crg.codim2_flats(g) is not table:
            return False, "integrability replaced the cached flat table"
        return result.ok, result.detail

    def _op_equivariance(self, job):
        bundle = self.bundle(job["group"])
        result = self.call("rep", "equivariance", self.crg.check_equivariance, bundle)
        return result.ok, result.detail

    def _op_t_scalar(self, job):
        bundle = self.bundle(job["group"])
        ok = self.call("rep", "t_scalar", self.crg.check_T_scalar, bundle, job["class"])
        return ok is True, None

    def _op_spectrum(self, job):
        bundle = self.bundle(job["group"])
        s = bundle.group.classes[job["class"]][0]
        m0 = Fraction(job["m"])
        ok = self.call("rep", "spectrum", self.crg.spectrum_check, bundle, s, m0)
        return ok is True, None

    def _op_parabolic(self, job):
        g = self.group(job["group"])
        bundle = self.bundle(job["group"])
        s, u = job["pair"]
        closure = self.call(
            "arrangement", "parabolic_reflections", self.crg.parabolic_reflections, g, [s, u]
        )
        # The parabolic closure of two reflections is their codimension-2 flat.
        flat = self.flats(g).flat_of_pair(s, u).members
        ok = self.call(
            "rep", "parabolic", self.crg.parabolic_restriction_check, bundle, [s, u]
        )
        return ok is True and closure == flat, {"closure": len(closure), "flat": len(flat)}

    def _op_dihedral(self, job):
        ok = self.call("rep", "dihedral", self.crg.dihedral_m0_check, job["e"])
        return ok is True, None

    def _op_tampered(self, job):
        g = self.group("A2")
        alpha = [list(row) for row in g.alpha]
        alpha[0][1] += 1
        mutated = self.call("rep", "build", self.crg.build_rep, g, alpha)
        self.flats(g)
        integrable = self.integrability(mutated, None).ok
        equivariant = self.call("rep", "equivariance", self.crg.check_equivariance, mutated).ok
        detected = not integrable or not equivariant
        return detected, {"integrable": integrable, "equivariant": equivariant}

    # algebras

    def _op_algebra(self, job):
        g = self.group(job["group"])
        members = g.classes[self.class_of_size(g, job["class_size"])]
        dim = self.algebra_dimension(self.blocks(job["group"], members, Fraction(job["m"])))
        return dim == job["dim"], dim

    def _op_ds_table(self, job):
        bundle = self.bundle(job["group"])
        c = job["class"]
        s = bundle.group.classes[c][0]
        ok = self.call("tensor", "ds_table", self.crg.ds_table_check, bundle, s, c)
        return ok is True, None

    def _op_tensor_square(self, job):
        bundle = self.bundle(job["group"])
        m0 = Fraction(job["m"])
        report = self.call(
            "tensor", "square", self.crg.tensor_square_check, bundle, job["class"], m0
        )
        return report["ok"] is True, None

    def _op_psu(self, job):
        bundle = self.bundle(job["group"])
        c = job["class"]
        members = bundle.group.classes[c]
        s, u = (members[i] for i in job["pair"])
        m0 = Fraction(job["m"])
        ok = self.call("tensor", "psu", self.crg.psu_membership_check, bundle, c, s, u, m0)
        return ok is True, None

    def _op_krammer_braid(self, job):
        model = self.krammer_model(job["n"])
        ok = self.call("krammer", "check", self.crg.check_braid_relations, model)
        return ok is True, None

    def _op_krammer_cubic(self, job):
        model = self.krammer_model(job["n"])
        ok = self.call("krammer", "check", self.crg.cubic_specialization_check, model)
        return ok is True, None

    # every workload

    def _op_probe(self, job):
        """One call into every layer on A2, so each layer is live in each workload."""
        g = self.group("A2")
        verdicts = {"discriminant": self._table_rows(g) == self.fixture["A2"]}
        verdicts["flats"] = [f.members for f in self.flats(g).flats] == [(0, 1, 2)]
        verdicts["closure"] = self.call(
            "arrangement", "parabolic_reflections", self.crg.parabolic_reflections, g, [0]
        ) == (0,)
        bundle = self.bundle("A2")
        verdicts["integrability"] = self.integrability(bundle, None).ok
        verdicts["equivariance"] = self.call(
            "rep", "equivariance", self.crg.check_equivariance, bundle
        ).ok
        verdicts["t_scalar"] = self.call("rep", "t_scalar", self.crg.check_T_scalar, bundle, 0)
        verdicts["spectrum"] = self.call(
            "rep", "spectrum", self.crg.spectrum_check, bundle, 0, Fraction(5)
        )
        verdicts["parabolic"] = self.call(
            "rep", "parabolic", self.crg.parabolic_restriction_check, bundle, [0]
        )
        members = g.classes[0]
        verdicts["algebra"] = (
            self.algebra_dimension(self.blocks("A2", members, Fraction(5))) == 9
        )
        verdicts["ds_table"] = self.call(
            "tensor", "ds_table", self.crg.ds_table_check, bundle, 0, 0
        )
        verdicts["square"] = self.call(
            "tensor", "square", self.crg.tensor_square_check, bundle, 0, Fraction(7)
        )["ok"]
        verdicts["psu"] = self.call(
            "tensor", "psu", self.crg.psu_membership_check, bundle, 0, 0, 1, Fraction(7)
        )
        model = self.krammer_model(2)
        verdicts["braid"] = self.call("krammer", "check", self.crg.check_braid_relations, model)
        verdicts["cubic"] = self.call(
            "krammer", "check", self.crg.cubic_specialization_check, model
        )
        failed = [name for name, ok in verdicts.items() if ok is not True]
        return not failed, failed or None
