"""The three benchmark workloads: seeded inputs, one pass each, output checks.

Every pass calls only public functions of the ``coclass_lab`` modules and
checks every output it gets.  The same pass code runs with tracing off
(``NullTracer``) for the end-to-end metrics and with a ``Tracer`` for the
per-layer metrics.  Where the untraced pass makes one high-level call
(``cli.main`` for the suite, ``harness.verify`` per catalog entry), the
traced pass replays the public calls that call is made of, so each layer
gets its own span; the replayed output must equal the untraced one.

Why each workload exists is recorded in ``NOTES.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

from coclass_lab import cli, constructions, harness, linalg, maps, search
from coclass_lab.algebra import LieAlgebra
from coclass_lab.fields import FieldSpec

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_SUITE = BENCH_DIR / "golden" / "suite_f3.json"

SUITE_PRIME = 3
# The suite battery runs under this candidate budget instead of the default
# SUITE_BUDGET (200,000), so that one pass takes about 40 s instead of 70 s
# and a traced run (an untraced and a traced pass) stays well inside the
# per-run time limit.  heisenberg_2_1 and dim5_example project 59,049
# commuting candidates, so they are reported unverified; every other entry
# runs as under the default budget.  Their 13,284-member non-closed set is
# enumerated by verify_random instead.
SUITE_BUDGET = 20_000
SUITE_ARGS = ("--format", "json", "--budget", str(SUITE_BUDGET), "suite")

# verify_random templates: (prime, generators, central vectors,
# dim Z, dim L', projected commuting candidates, how many, draws).
# A projection of None asks only for one over the suite budget.  Each copy
# evaluates a fixed number of draws and keeps the first that matches, so
# set-up costs about the same for every seed; the draw counts make a miss
# rare (about 1 in 200 per copy), and only then are more draws made.
VERIFY_TEMPLATES = (
    (3, 3, 1, 2, 1, 2_187, 1, 5),        # closed by R2, sets of 972 / 486
    (3, 3, 2, 2, 2, 6_561, 2, 22),       # closed by R4, sets of 1,458 / 729
    (3, 4, 1, 1, 1, 59_049, 1, 6),       # not closed (R4): a witness pair to replay
    (5, 2, 2, 2, 1, 78_125, 1, 2),       # p = 5: sets of 50,000 / 12,500
    (3, 4, 2, None, None, None, 1, 16),  # over the suite budget: unverified
    (5, 3, 1, None, None, None, 1, 28),  # over the suite budget: unverified
)
MAX_DRAWS = 2_000

STRUCTURE_PRIMES = (3, 5, 7, 11, 101, 257, 4093, 65521)
RATIONAL = "Q"
# (family, parameters, field); "p" draws a prime from STRUCTURE_PRIMES.
STRUCTURE_TEMPLATES = (
    ("two_step", (6, 3), "p"),
    ("two_step", (7, 2), "p"),
    ("two_step", (8, 3), "p"),
    ("two_step", (9, 2), "p"),
    ("two_step", (10, 3), "p"),
    ("two_step", (8, 2), RATIONAL),
    ("filiform", (16,), "p"),
    ("filiform", (12,), RATIONAL),
    ("heisenberg", (6, 2), "p"),
    ("heisenberg", (4, 1), RATIONAL),
    ("filiform_plus_abelian", (14, 2), "p"),  # coclass 3, dimension 16
    ("dim6_center1", (), "p"),
    ("dim6_center2", (), "p"),
    ("dim6_center3", (), "p"),
)
# heisenberg_witness (k, m) and dim5_witness, each over a drawn field.
STRUCTURE_WITNESSES = (("heisenberg", (2, 1), "p"), ("heisenberg", (3, 2), "p"),
                       ("heisenberg", (6, 2), "p"), ("heisenberg", (2, 1), RATIONAL),
                       ("dim5", (), "p"))


def canonical(obj) -> str:
    """JSON text exactly as ``coclass-lab --format json`` prints it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# operation accounting
# ---------------------------------------------------------------------------


class Op:
    def __init__(self):
        self.problems: list = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


@dataclass
class Outcome:
    """Operations attempted and failed in one pass, plus what the pass produced."""

    attempted: int = 0
    failed: int = 0
    problems: list = dataclass_field(default_factory=list)
    verdicts: dict = dataclass_field(default_factory=dict)      # entry name -> verdict JSON
    enumerated: list = dataclass_field(default_factory=list)    # (algebra, commuting set)

    @contextmanager
    def op(self, label: str):
        """One operation: an unexpected exception or a failed check fails it."""
        self.attempted += 1
        current = Op()
        try:
            yield current
        except Exception as exc:  # one failed operation must not end the pass
            tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
            current.problems.append(f"raised {tb}")
        if current.problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in current.problems)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def _field(kind, rng) -> FieldSpec:
    if kind == RATIONAL:
        return FieldSpec.rational()
    if kind == "p":
        return FieldSpec.prime(rng.choice(STRUCTURE_PRIMES))
    return FieldSpec.prime(kind)


def _two_step(rng, field: FieldSpec, gens: int, central: int) -> LieAlgebra:
    """[x_i, x_j] = sum_k a_ijk z_k with random a: Jacobi holds since L' is central."""
    def coeff():
        return rng.randrange(-3, 4) if not field.is_prime else rng.randrange(field.p)

    sc = {
        (i, j): tuple((gens + k, coeff()) for k in range(central))
        for i in range(gens)
        for j in range(i + 1, gens)
    }
    return LieAlgebra(field, gens + central, sc)


def projected_candidates(algebra: LieAlgebra):
    """The enumerator's own branch-independent projection, read from a budget-0 probe."""
    try:
        search.enumerate_commuting(algebra, budget=0)
    except search.BudgetExceededError as exc:
        return exc.projected
    except search.AbelianShortCircuit:
        return None
    raise AssertionError("a budget-0 enumeration returned")


def _matches(alg: LieAlgebra, dim_z, dim_d, projected) -> bool:
    """Whether a draw fits its template; every invariant is computed for every draw."""
    found = (alg.center().dim, alg.derived().dim, projected_candidates(alg))
    if projected is None:
        return found[2] is not None and found[2] > harness.SUITE_BUDGET
    return found == (dim_z, dim_d, projected)


def verify_entries(seed: int) -> list:
    rng = random.Random(f"verify_random/{seed}")
    entries = []
    for p, gens, central, dim_z, dim_d, projected, count, draws in VERIFY_TEMPLATES:
        field = FieldSpec.prime(p)
        for copy in range(count):
            chosen = None
            for made in range(1, MAX_DRAWS + 1):
                alg = _two_step(rng, field, gens, central)
                if _matches(alg, dim_z, dim_d, projected) and chosen is None:
                    chosen = alg
                if chosen is not None and made >= draws:
                    break
            else:
                raise RuntimeError(f"no draw matched template {(p, gens, central)} in {MAX_DRAWS}")
            name = f"two_step_p{p}_g{gens}_c{central}_{copy}"
            entries.append(constructions.CatalogEntry(name, chosen, ("family=two_step",)))
    return entries


def structure_entries(seed: int) -> tuple:
    rng = random.Random(f"structure_random/{seed}")
    entries = []
    for index, (family, params, kind) in enumerate(STRUCTURE_TEMPLATES):
        field = _field(kind, rng)
        if family == "two_step":
            alg = _two_step(rng, field, *params)
        elif family == "filiform":
            alg = constructions.filiform(*params, field)
        elif family == "heisenberg":
            alg = constructions.heisenberg(*params, field)
        elif family == "filiform_plus_abelian":
            n, k = params
            alg = constructions.direct_sum(
                constructions.filiform(n, field), constructions.abelian(k, field)
            )
        else:
            alg = constructions.builtin(family, field)
        entries.append(
            constructions.CatalogEntry(f"{family}_{index}_{field}", alg, (f"family={family}",))
        )
    witnesses = tuple((family, params, _field(kind, rng)) for family, params, kind in STRUCTURE_WITNESSES)
    return entries, witnesses


@dataclass
class Inputs:
    workload: str
    catalog_path: Path = None       # JSONL written by the benchmark
    golden: str = None              # suite_f3: golden output text
    witnesses: tuple = ()           # structure_random


def build_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    """Everything a pass needs; its cost is the workload's set-up time."""
    if workload == "suite_f3":
        text = GOLDEN_SUITE.read_text(encoding="utf-8")
        golden = json.loads(text)
        if golden["summary"]["ok"] is not True or golden["budget"] != SUITE_BUDGET:
            raise RuntimeError("golden suite output is not ok or has another budget")
        names = [e.name for e in constructions.default_catalog(FieldSpec.prime(SUITE_PRIME))]
        if names != [v["name"] for v in golden["verdicts"]]:
            raise RuntimeError("the shipped catalog no longer matches the golden suite output")
        return Inputs(workload, golden=text)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{workload}-{seed}.jsonl"
    if workload == "verify_random":
        constructions.save_catalog(verify_entries(seed), path)
        return Inputs(workload, catalog_path=path)
    if workload == "structure_random":
        entries, witnesses = structure_entries(seed)
        constructions.save_catalog(entries, path)
        return Inputs(workload, catalog_path=path, witnesses=witnesses)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def replay_verdict(name: str, alg: LieAlgebra, budget: int, tr, out: Outcome):
    """``harness.verify`` as its public calls, one span per layer.

    Returns (report, commuting set or None, central set or None).
    """
    with tr.span("harness.profile", name):
        prof = harness.profile(alg)
        pred = harness.predict(prof)
    try:
        with tr.span("search.commuting", name):
            commuting = search.enumerate_commuting(alg, budget=budget)
        with tr.span("search.central", name):
            central = search.enumerate_central(alg, budget=budget)
    except search.BudgetExceededError as exc:
        tr.count("search.budget_rejects")
        tr.count("harness.unverified")
        return harness.VerdictReport(name, prof, pred, None, f"unverified: {exc}", True), None, None
    with tr.span("search.closure", name):
        closure = search.closure_check(commuting)
    with tr.span("search.equal", name):
        equality = search.sets_equal(commuting, central)
        central_in = central.member_keys() <= commuting.member_keys()
    summary = harness.EnumerationSummary(
        commuting_size=commuting.size,
        central_size=central.size,
        closed=closure.closed,
        equal=equality.equal,
        central_in_commuting=central_in,
        closure=closure,
        equality=equality,
    )
    consistent = expected_consistency(pred.verdict, summary)
    tr.count("harness.verified")
    tr.count("search.commuting_members", commuting.size)
    tr.count("search.central_members", central.size)
    tr.count("search.closure_pairs", closure.pair_count)
    tr.count("search.closure_span_calls", closure.method == "span")
    if tr.enabled:
        out.enumerated.append((alg, commuting))
    return harness.VerdictReport(name, prof, pred, summary, None, consistent), commuting, central


def expected_consistency(verdict: str, summary) -> bool:
    """The paper's rule, stated here again: what each prediction promises."""
    if verdict == harness.EQUALS_CENTRAL:
        return summary.equal and summary.closed
    if verdict == harness.SUBGROUP:
        return summary.closed
    if verdict == harness.NOT_SUBGROUP:
        return not summary.closed
    return True  # NO_GUARANTEE promises nothing


def check_verdict(op: Op, alg: LieAlgebra, report) -> None:
    """Consistency, central within commuting, and a replay of any witness pair."""
    op.check(report.consistent, "prediction and enumeration disagree")
    summary = report.enumeration
    if summary is None or summary.short_circuit:
        return
    op.check(summary.central_in_commuting, "a central automorphism is not commuting")
    if not summary.closed:
        w = summary.witness
        op.check(w is not None, "not closed but no witness")
        if w is not None:
            op.check(maps.is_commuting(alg, w.f), "witness f is not commuting")
            op.check(maps.is_commuting(alg, w.g), "witness g is not commuting")
            op.check(not maps.is_commuting(alg, maps.compose(w.g, w.f)), "witness g o f commutes")


# ---------------------------------------------------------------------------
# suite_f3: `coclass-lab --format json --budget 20000 suite`
# ---------------------------------------------------------------------------


def run_cli(args) -> tuple:
    """``coclass-lab ARGS`` in this process: (exit code, standard output)."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(list(args))
    return code, captured.getvalue()


def replay_suite(tr, out: Outcome) -> str:
    """``harness.run_suite`` as its public calls, one span per layer.

    Returns the output ``coclass-lab`` prints for the report the calls
    build, so it can be compared byte for byte with the untraced pass.
    """
    field = FieldSpec.prime(SUITE_PRIME)
    with tr.span("constructions.catalog"):
        entries = constructions.default_catalog(field)
    verdicts, identity_counts, oracle_results = [], {}, []
    for entry in entries:
        alg = entry.algebra
        report, commuting, central = replay_verdict(entry.name, alg, SUITE_BUDGET, tr, out)
        verdicts.append(report)
        if commuting is None:
            continue
        with tr.span("maps.identity", entry.name):
            identity_counts[entry.name] = maps.identity_suite_batch(alg, commuting.member_array())
        tr.count("maps.identity_members", commuting.size)
        if alg.dim <= 3:
            with tr.span("search.oracle", entry.name):
                brute_c = search.enumerate_commuting_bruteforce(alg)
                brute_z = search.enumerate_central_bruteforce(alg)
                oracle_results.append(
                    (
                        entry.name,
                        search.sets_equal(commuting, brute_c).equal,
                        search.sets_equal(central, brute_z).equal,
                    )
                )
            tr.count("search.oracle_matrices", 2 * alg.field.p ** (alg.dim * alg.dim))

    witness_reports = []
    with tr.span("harness.witness"):
        for k, m in ((2, 1), (2, 2), (3, 1)):
            for wp in (3, 5):
                witness_reports.append(harness.heisenberg_witness(k, m, FieldSpec.prime(wp)))
        for wp in (3, 5, 7):
            witness_reports.append(harness.dim5_witness(FieldSpec.prime(wp)))
    with tr.span("harness.structural"):
        structural = harness.structural_suite(entries)
    report = harness.SuiteReport(
        field=field,
        budget=SUITE_BUDGET,
        verdicts=tuple(verdicts),
        identity_counts=identity_counts,
        oracle_results=tuple(oracle_results),
        witness_reports=tuple(witness_reports),
        structural=structural,
    )
    with tr.span("cli.emit"):
        return canonical(report.as_dict()) + "\n"


def _differing_parts(text: str, golden: dict) -> list:
    """Which top-level keys and verdicts of an output differ from the golden copy."""
    try:
        emitted = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    parts = [key for key in sorted(set(golden) | set(emitted)) if key != "verdicts"
             and canonical(emitted.get(key)) != canonical(golden.get(key))]
    mine = {v["name"]: canonical(v) for v in emitted.get("verdicts", ())}
    parts += [v["name"] for v in golden["verdicts"] if mine.get(v["name"]) != canonical(v)]
    return parts


def suite_pass(inp: Inputs, tr, reference=None) -> Outcome:
    """``coclass-lab --format json --budget 20000 suite``, checked byte for byte.

    Untraced, the pass runs the command in process through ``cli.main``.
    Traced, it replays the command's public calls instead, and its output
    must equal the untraced pass's as well as the golden copy.
    """
    out = Outcome()
    text = ""
    if tr.enabled:
        with out.op("suite replay"):
            text = replay_suite(tr, out)
    else:
        with out.op("coclass-lab suite") as op:
            code, text = run_cli(SUITE_ARGS)
            op.check(code == cli.EXIT_OK, f"exit code {code}")
    out.verdicts["output"] = text

    with tr.span("bench.check"):
        golden = json.loads(inp.golden)
        with out.op("output") as op:
            if text != inp.golden:
                parts = _differing_parts(text, golden) or ["formatting only"]
                op.check(False, "differs from golden in " + ", ".join(parts))
            if reference is not None:
                op.check(text == reference.get("output"), "replay differs from the untraced pass")
        with out.op("summary") as op:
            op.check(json.loads(text)["summary"]["ok"] is True, "summary.ok is false")
    return out


# ---------------------------------------------------------------------------
# verify_random: `coclass-lab verify --catalog FILE` on generated algebras
# ---------------------------------------------------------------------------


def verify_pass(inp: Inputs, tr, reference=None) -> Outcome:
    out = Outcome()
    budget = harness.SUITE_BUDGET
    with tr.span("constructions.load"):
        entries = constructions.load_catalog(inp.catalog_path)
    for entry in entries:
        alg = entry.algebra
        with out.op(entry.name) as op:
            if tr.enabled:
                report, _, _ = replay_verdict(entry.name, alg, budget, tr, out)
            else:
                report = harness.verify(alg, budget=budget, name=entry.name)
            with tr.span("bench.check", entry.name):
                check_verdict(op, alg, report)
                out.verdicts[entry.name] = canonical(report.as_dict(alg.field))
                if reference is not None:
                    op.check(
                        out.verdicts[entry.name] == reference.get(entry.name),
                        "replay differs from harness.verify",
                    )
    return out


# ---------------------------------------------------------------------------
# structure_random: the invariants / validate / witness paths
# ---------------------------------------------------------------------------


def structure_pass(inp: Inputs, tr, reference=None) -> Outcome:
    out = Outcome()
    with tr.span("constructions.load"):
        entries = constructions.load_catalog(inp.catalog_path)  # Jacobi-validated
    expected_structural = []
    for entry in entries:
        alg = entry.algebra
        with out.op(entry.name) as op:
            with tr.span("harness.profile", entry.name):
                prof = harness.profile(alg)
                pred = harness.predict(prof)
            with tr.span("algebra.series", entry.name):
                lower = alg.lower_central_series()
                upper = alg.upper_central_series()
                center = alg.center()
                nil_class = alg.nilpotency_class()
                coclass = alg.coclass()
            with tr.span("linalg.kernel", entry.name):
                stacked = tuple(row for j in range(alg.dim) for row in alg.ad_matrix(j).rows)
                ad_kernel = linalg.kernel(linalg.Matrix(alg.field, stacked))
            with tr.span("bench.check", entry.name):
                # center() is itself a kernel of the bracket rows, so the first
                # check only ties it to ad_matrix; the second uses bracket alone.
                op.check(center == ad_kernel, "center differs from the kernel of the stacked ad rows")
                op.check(
                    all(not any(alg.bracket(z, e)) for z in center.basis.rows
                        for e in linalg.Matrix.identity(alg.field, alg.dim).rows),
                    "a center vector does not bracket to 0",
                )
                # coclass() counts the lower series; the upper one reaches L in
                # as many steps, computed through center preimages instead.
                op.check(coclass == alg.dim - (len(upper) - 1), "coclass != dim - upper series length")
                op.check(lower[-1].is_zero and upper[-1].is_full(), "series do not end at 0 and L")
                op.check(
                    (prof.nilpotency_class, prof.coclass, prof.dim_center)
                    == (nil_class, coclass, center.dim),
                    "profile disagrees with the series",
                )
                if "family=two_step" in entry.tags:
                    op.check(nil_class <= 2, "a 2-step entry has class > 2")
                if coclass == 3 and alg.dim >= 6:
                    expected_structural.append(entry.name)
                out.verdicts[entry.name] = canonical(
                    {"profile": prof.as_dict(), "prediction": pred.as_dict()}
                )
                if reference is not None:
                    op.check(out.verdicts[entry.name] == reference.get(entry.name), "traced pass differs")
    with out.op("structural_suite") as op:
        with tr.span("harness.structural"):
            structural = harness.structural_suite(entries)
        op.check(structural.all_ok, "structural checks failed")
        op.check(
            sorted({c.entry for c in structural.checks}) == sorted(expected_structural),
            "structural suite checked other entries than the coclass-3 ones",
        )
    for family, params, field in inp.witnesses:
        with out.op(f"witness {family}{params} over {field}") as op:
            with tr.span("harness.witness", family):
                if family == "heisenberg":
                    report = harness.heisenberg_witness(*params, field)
                else:
                    report = harness.dim5_witness(field)
            op.check(report.ok, "witness report not ok")
    return out


PASSES = {
    "suite_f3": suite_pass,
    "verify_random": verify_pass,
    "structure_random": structure_pass,
}
