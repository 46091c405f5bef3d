"""Structural profiling, closure predictions, and prediction-vs-search checks.

The prediction rules map a structural profile (dimensions of the center,
second center, derived subalgebra, nilpotency class of the second center,
...) to a verdict about whether the commuting automorphisms form a
subgroup.  ``verify`` then compares the verdict against actual
enumeration: equality with the central automorphisms for the sharp
coclass-1 rule, closure for "subgroup" verdicts, and an explicit failing
pair for "not a subgroup" verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import LieAlgebra, NonNilpotentError
from .constructions import default_catalog, dim5_example, heisenberg
from .fields import FieldSpec
from .maps import (
    LinearMap,
    commuting_defect,
    commuting_witness,
    compose,
    identity_suite_batch,
    is_automorphism,
    is_commuting,
)
from .search import (
    AbelianShortCircuit,
    BudgetExceededError,
    ClosureVerdict,
    ClosureWitness,
    EqualityReport,
    _bruteforce,
    _commuting_and_central,
    closure_check,
    sets_equal,
)

SUITE_BUDGET = 200_000

EQUALS_CENTRAL = "equals_central"
SUBGROUP = "subgroup"
NOT_SUBGROUP = "not_subgroup"
NO_GUARANTEE = "no_guarantee"


@dataclass(frozen=True)
class StructuralProfile:
    dim: int
    nilpotency_class: int
    coclass: int
    dim_center: int
    dim_second_center: int
    dim_derived: int
    second_center_class: int
    center_lcs_index: Optional[int]  # k with Z(L) = L^k, when one exists
    center_codim: int
    derived_in_center: bool

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "class": self.nilpotency_class,
            "coclass": self.coclass,
            "dim_center": self.dim_center,
            "dim_second_center": self.dim_second_center,
            "dim_derived": self.dim_derived,
            "second_center_class": self.second_center_class,
            "center_lcs_index": self.center_lcs_index,
            "center_codim": self.center_codim,
            "derived_in_center": self.derived_in_center,
        }


def profile(algebra: LieAlgebra) -> StructuralProfile:
    """All hypothesis quantities of the closure results, computed exactly."""
    if not algebra.is_nilpotent:
        raise NonNilpotentError("profiles require a nilpotent algebra")
    center = algebra.center()
    second = algebra.second_center()
    derived = algebra.derived()
    lower = algebra.lower_central_series()
    lcs_index = next((k for k in range(1, len(lower)) if lower[k] == center), None)
    return StructuralProfile(
        dim=algebra.dim,
        nilpotency_class=algebra.nilpotency_class(),
        coclass=algebra.coclass(),
        dim_center=center.dim,
        dim_second_center=second.dim,
        dim_derived=derived.dim,
        second_center_class=algebra.subalgebra_class(second),
        center_lcs_index=lcs_index,
        center_codim=algebra.dim - center.dim,
        derived_in_center=center.contains_subspace(derived),
    )


@dataclass(frozen=True)
class Prediction:
    verdict: str
    rule: str
    description: str

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "rule": self.rule, "description": self.description}


_RULES_DOC = {
    "R1": "coclass 1, dimension != 3: commuting = central automorphisms",
    "R2": "coclass 2: commuting automorphisms form a subgroup",
    "R3": "one-dimensional central derived subalgebra with >= 4 non-central directions",
    "R4": "dimension 5, coclass 3 dichotomy on the center",
    "R5": "coclass 3, dimension >= 6, outside the exceptional second-center shape",
    "R6": "abelian second center",
    "R7": "central derived subalgebra with center of codimension 2",
    "R8": "second center two past a center that is a lower-series term",
    "none": "no applicable closure result; enumeration data recorded only",
}


def predict(p: StructuralProfile) -> Prediction:
    """Apply the closure rules in priority order (sharp rules first).

    The dimension-5 coclass-3 dichotomy (R4) is consulted before the
    Heisenberg-shape rule (R3): both fire on the same 5-dimensional
    algebras with identical verdicts, and R4 is the sharper statement.

    R1 deliberately excludes dimension 3: the non-abelian coclass-1
    algebra there (one symplectic pair over a central line) admits the
    commuting non-central automorphism diag(a, a, a^2), so "commuting =
    central" is false in that single dimension.  Enumeration plus the
    brute-force oracle confirm the gap; the codimension-2 rule R7 still
    yields the correct subgroup verdict for it.
    """

    def made(verdict, rule):
        return Prediction(verdict, rule, _RULES_DOC[rule])

    if p.coclass == 1 and p.dim != 3:
        return made(EQUALS_CENTRAL, "R1")
    if p.coclass == 2:
        return made(SUBGROUP, "R2")
    if p.coclass == 3 and p.dim == 5:
        if p.dim_derived == 1 and p.dim_center == 1 and p.derived_in_center:
            return made(NOT_SUBGROUP, "R4")
        return made(SUBGROUP, "R4")
    if p.dim_derived == 1 and p.derived_in_center and p.center_codim >= 4 and p.dim >= 5:
        return made(NOT_SUBGROUP, "R3")
    if (
        p.coclass == 3
        and p.dim >= 6
        and (
            p.second_center_class != 2
            or p.dim_center != 1
            or p.dim_second_center != 4
            or p.dim_derived != p.dim - 4
        )
    ):
        return made(SUBGROUP, "R5")
    if p.second_center_class <= 1:
        return made(SUBGROUP, "R6")
    if p.derived_in_center and p.center_codim == 2:
        return made(SUBGROUP, "R7")
    if p.dim_second_center - p.dim_center == 2 and p.center_lcs_index is not None:
        return made(SUBGROUP, "R8")
    return made(NO_GUARANTEE, "none")


# ---------------------------------------------------------------------------
# enumeration-backed verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationSummary:
    commuting_size: int
    central_size: int
    closed: bool
    equal: bool
    central_in_commuting: bool
    closure: Optional[ClosureVerdict]
    equality: Optional[EqualityReport]
    short_circuit: bool = False

    @property
    def witness(self):
        return None if self.closure is None else self.closure.witness

    def as_dict(self, field: FieldSpec) -> dict:
        w = self.witness
        witness = None if w is None else {
            **closure_witness_dict(w, field), "f_index": w.f_index, "g_index": w.g_index
        }
        return {
            "commuting_size": self.commuting_size,
            "central_size": self.central_size,
            "closed": self.closed,
            "equal": self.equal,
            "central_in_commuting": self.central_in_commuting,
            "short_circuit": self.short_circuit,
            "witness": witness,
        }


def matrix_grid(f: LinearMap, field: FieldSpec) -> list:
    """The map's matrix row by row, each entry in its catalog-file form."""
    return [[field.unparse(x) for x in row] for row in f.matrix.rows]


def closure_witness_dict(w: ClosureWitness, field: FieldSpec) -> dict:
    """The pair (f, g), the vector x and [g(f(x)), x], in catalog-file form."""
    return {
        "f": matrix_grid(w.f, field),
        "g": matrix_grid(w.g, field),
        "vector": [field.unparse(x) for x in w.vector],
        "bracket_residual": [field.unparse(x) for x in w.residual],
    }


@dataclass(frozen=True)
class VerdictReport:
    name: str
    profile: StructuralProfile
    prediction: Prediction
    enumeration: Optional[EnumerationSummary]
    unverified_reason: Optional[str]
    consistent: bool

    def as_dict(self, field: FieldSpec) -> dict:
        return {
            "name": self.name,
            "profile": self.profile.as_dict(),
            "prediction": self.prediction.as_dict(),
            "enumeration": None if self.enumeration is None else self.enumeration.as_dict(field),
            "unverified_reason": self.unverified_reason,
            "consistent": self.consistent,
        }


def _consistency(verdict: str, summary: EnumerationSummary) -> bool:
    if verdict == EQUALS_CENTRAL:
        return summary.equal and summary.closed
    if verdict == SUBGROUP:
        return summary.closed
    if verdict == NOT_SUBGROUP:
        return not summary.closed
    return True


def summarize(algebra: LieAlgebra, budget: int) -> tuple:
    """The enumeration summary of an algebra over F_p, then its commuting and central sets.

    An abelian algebra is not enumerated: its summary comes from the order
    of GL(n, p), and both sets are None.  Raises BudgetExceededError.
    """
    try:
        commuting, central = _commuting_and_central(algebra, budget)
    except AbelianShortCircuit as exc:
        abelian = EnumerationSummary(
            commuting_size=exc.aut_order,
            central_size=exc.aut_order,
            closed=True,
            equal=True,
            central_in_commuting=True,
            closure=None,
            equality=None,
            short_circuit=True,
        )
        return abelian, None, None
    closure = closure_check(commuting)
    equality = sets_equal(commuting, central)
    summary = EnumerationSummary(
        commuting_size=commuting.size,
        central_size=central.size,
        closed=closure.closed,
        equal=equality.equal,
        central_in_commuting=not equality.only_in_b,
        closure=closure,
        equality=equality,
    )
    return summary, commuting, central


def verify(algebra: LieAlgebra, budget: int = SUITE_BUDGET, name: str = "") -> VerdictReport:
    """Profile, predict, and (budget permitting) confront with enumeration."""
    return _verify(algebra, budget, name)[0]


def _verify(algebra: LieAlgebra, budget: int, name: str) -> tuple:
    """verify's report, then the commuting and central sets it enumerated (or None, None)."""
    prof = profile(algebra)
    pred = predict(prof)
    commuting = central = summary = reason = None
    if not algebra.field.is_prime:
        reason = "enumeration needs a prime field"
    else:
        try:
            summary, commuting, central = summarize(algebra, budget)
        except BudgetExceededError as exc:
            reason = f"unverified: {exc}"
    consistent = summary is None or _consistency(pred.verdict, summary)
    return VerdictReport(name, prof, pred, summary, reason, consistent), commuting, central


# ---------------------------------------------------------------------------
# the two explicit counterexample witnesses
# ---------------------------------------------------------------------------


def _beta1_heisenberg(algebra: LieAlgebra) -> LinearMap:
    return LinearMap.from_image_map(
        algebra, {0: [(0, 1), (2, 1)], 2: [(2, -1)], 3: [(3, -1), (1, 1)]}
    )


def _beta2_heisenberg(algebra: LieAlgebra, variant: str) -> LinearMap:
    if variant == "printed":
        third = [(0, -1), (2, -1)]
    elif variant == "corrected":
        third = [(1, -1), (2, -1)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return LinearMap.from_image_map(algebra, {0: [(0, 1), (3, 1)], 2: third, 3: [(3, -1)]})


@dataclass(frozen=True)
class VariantReport:
    variant: str
    beta1_commuting: bool
    beta2_automorphism: bool
    beta2_commuting: bool
    composition_commuting: bool
    defect_input: Optional[tuple]     # x with [x, (b1 o b2)(x)] != 0
    defect_bracket: Optional[tuple]   # [x, (b1 o b2)(x)]

    def as_dict(self, field) -> dict:
        return {
            "variant": self.variant,
            "beta1_commuting": self.beta1_commuting,
            "beta2_automorphism": self.beta2_automorphism,
            "beta2_commuting": self.beta2_commuting,
            "composition_commuting": self.composition_commuting,
            "defect_input": None
            if self.defect_input is None
            else [field.unparse(x) for x in self.defect_input],
            "defect_bracket": None
            if self.defect_bracket is None
            else [field.unparse(x) for x in self.defect_bracket],
        }


@dataclass(frozen=True)
class WitnessReport:
    family: str
    params: dict
    field: FieldSpec
    variants: tuple
    beta1: LinearMap
    beta2_by_variant: dict

    @property
    def ok(self) -> bool:
        """The corrected variant certifies non-closure; the printed one fails."""
        by = {v.variant: v for v in self.variants}
        checks = []
        if "corrected" in by:
            v = by["corrected"]
            checks += [v.beta1_commuting, v.beta2_commuting, not v.composition_commuting]
        if "printed" in by:
            checks += [not by["printed"].beta2_commuting]
        return all(checks)

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "field": str(self.field),
            "variants": [v.as_dict(self.field) for v in self.variants],
            "beta1": matrix_grid(self.beta1, self.field),
            "beta2": {
                k: matrix_grid(v, self.field) for k, v in sorted(self.beta2_by_variant.items())
            },
            "ok": self.ok,
        }


def _variant_report(
    algebra: LieAlgebra, beta1: LinearMap, beta1_commuting: bool, beta2: LinearMap, variant: str
) -> VariantReport:
    comp = compose(beta1, beta2)  # beta2 first
    witness = commuting_witness(algebra, comp)
    defect_input = defect_bracket = None
    if witness is None:  # a composition that is no automorphism may still commute
        comp_ok = is_automorphism(algebra, comp).clean
    else:
        comp_ok = False
        defect_input, _ = witness
        defect_bracket = algebra.bracket(defect_input, comp.apply(defect_input))
    beta2_automorphism = is_automorphism(algebra, beta2).clean
    return VariantReport(
        variant=variant,
        beta1_commuting=beta1_commuting,
        beta2_automorphism=beta2_automorphism,
        beta2_commuting=beta2_automorphism and commuting_defect(algebra, beta2).clean,
        composition_commuting=comp_ok,
        defect_input=defect_input,
        defect_bracket=defect_bracket,
    )


def heisenberg_witness(k: int, m: int, field: FieldSpec, variant: str = "both") -> WitnessReport:
    """The explicit non-closure pair on heisenberg(k, m), k >= 2.

    Two versions of the second map are built permanently: the "printed"
    one (third basis vector sent to -u1 - u3), which fails the commuting
    check, and the "corrected" one (sent to -u2 - u3), which passes and
    yields the composition defect [u1, b1 b2(u1)] = z1.
    """
    if k < 2 or m < 1:
        raise ValueError("witness needs k >= 2 and m >= 1 (dimension >= 5)")
    algebra = heisenberg(k, m, field)
    beta1 = _beta1_heisenberg(algebra)
    variants = ("printed", "corrected") if variant == "both" else (variant,)
    beta2s = {v: _beta2_heisenberg(algebra, v) for v in variants}
    beta1_commuting = is_commuting(algebra, beta1)
    reports = tuple(_variant_report(algebra, beta1, beta1_commuting, beta2s[v], v) for v in variants)
    return WitnessReport("heisenberg", {"k": k, "m": m}, field, reports, beta1, beta2s)


def dim5_witness(field: FieldSpec) -> WitnessReport:
    """The dimension-5 coclass-3 counterexample pair (swap map + shear map)."""
    algebra = dim5_example(field)
    beta1 = LinearMap.from_image_map(
        algebra, {0: [(2, 1)], 1: [(3, 1)], 2: [(0, 1)], 3: [(1, 1)]}
    )
    beta2 = LinearMap.from_image_map(
        algebra, {0: [(0, 1), (3, 1)], 2: [(1, -1), (2, -1)], 3: [(3, -1)]}
    )
    report = _variant_report(algebra, beta1, is_commuting(algebra, beta1), beta2, "corrected")
    return WitnessReport("dim5", {}, field, (report,), beta1, {"corrected": beta2})


# ---------------------------------------------------------------------------
# structural suite (coclass 3, dimension >= 6)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuralCheck:
    entry: str
    check: str
    ok: bool
    detail: str

    def as_dict(self) -> dict:
        return {"entry": self.entry, "check": self.check, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class StructuralSuiteReport:
    checks: tuple
    skipped: tuple

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "checks": [c.as_dict() for c in self.checks],
            "skipped": list(self.skipped),
            "all_ok": self.all_ok,
        }


def structural_suite(entries) -> StructuralSuiteReport:
    """Dimension bounds and second-center structure over coclass-3 entries."""
    checks = []
    skipped = []
    for entry in entries:
        alg = entry.algebra
        if not alg.is_nilpotent:
            skipped.append(entry.name)
            continue
        prof = profile(alg)
        if prof.coclass != 3 or prof.dim < 6:
            skipped.append(entry.name)
            continue
        abelian_z2 = prof.second_center_class <= 1
        n = prof.dim

        def add(check, ok, detail=""):
            checks.append(StructuralCheck(entry.name, check, ok, detail))

        add(
            "center_bounds",
            1 <= prof.dim_center <= 3 and 2 <= prof.dim_second_center <= 4,
            f"dim Z = {prof.dim_center}, dim Z2 = {prof.dim_second_center}",
        )
        if prof.dim_center != 1:
            add("abelian_when_center_not_line", abelian_z2, f"z2 class {prof.second_center_class}")
        if prof.dim_center == 1 and 2 <= prof.dim_second_center <= 3:
            add("abelian_when_small_second_center", abelian_z2, f"z2 class {prof.second_center_class}")
        if (
            prof.dim_center == 1
            and prof.dim_second_center == 4
            and n - 3 <= prof.dim_derived <= n - 2
        ):
            add("abelian_when_large_derived", abelian_z2, f"z2 class {prof.second_center_class}")
        if prof.second_center_class == 2:
            add(
                "exceptional_shape",
                prof.dim_center == 1 and prof.dim_second_center == 4 and prof.dim_derived == n - 4,
                f"dim Z = {prof.dim_center}, dim Z2 = {prof.dim_second_center}, dim L' = {prof.dim_derived}",
            )
        add(
            "second_center_class_at_most_2",
            prof.second_center_class <= 2,
            f"z2 class {prof.second_center_class}",
        )
    return StructuralSuiteReport(tuple(checks), tuple(skipped))


# ---------------------------------------------------------------------------
# the full suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    field: FieldSpec
    budget: int
    verdicts: tuple            # VerdictReport per catalog entry
    identity_counts: dict      # entry name -> {identity: violations}
    oracle_results: tuple      # (entry name, commuting_match, central_match)
    witness_reports: tuple     # WitnessReport
    structural: StructuralSuiteReport
    oracle_skipped: tuple = ()  # (entry name, reason): brute force over its limit

    @property
    def all_consistent(self) -> bool:
        return all(v.consistent for v in self.verdicts)

    @property
    def identity_violations(self) -> int:
        return sum(sum(c.values()) for c in self.identity_counts.values())

    @property
    def oracle_ok(self) -> bool:
        return all(c and z for _, c, z in self.oracle_results)

    @property
    def witnesses_ok(self) -> bool:
        return all(w.ok for w in self.witness_reports)

    @property
    def ok(self) -> bool:
        return (
            self.all_consistent
            and self.identity_violations == 0
            and self.oracle_ok
            and self.witnesses_ok
            and self.structural.all_ok
        )

    def as_dict(self) -> dict:
        return {
            "field": str(self.field),
            "budget": self.budget,
            "verdicts": [v.as_dict(self.field) for v in self.verdicts],
            "identity_violations": {
                name: dict(sorted(counts.items()))
                for name, counts in sorted(self.identity_counts.items())
            },
            "oracle": [
                {"entry": name, "commuting_match": c, "central_match": z}
                for name, c, z in self.oracle_results
            ]
            + [
                {"entry": name, "commuting_match": None, "central_match": None, "skipped": reason}
                for name, reason in self.oracle_skipped
            ],
            "witnesses": [w.as_dict() for w in self.witness_reports],
            "structural": self.structural.as_dict(),
            "summary": {
                "all_consistent": self.all_consistent,
                "identity_violations": self.identity_violations,
                "oracle_ok": self.oracle_ok,
                "witnesses_ok": self.witnesses_ok,
                "structural_ok": self.structural.all_ok,
                "ok": self.ok,
            },
        }

    def to_text(self) -> str:
        lines = [f"suite over {self.field} (budget {self.budget})", ""]
        lines.append(f"{'entry':32} {'verdict':14} {'rule':5} {'|A|':>8} {'|Autc|':>8} {'closed':>6} {'equal':>6} {'status':>12}")
        for v in self.verdicts:
            if v.enumeration is None:
                sizes = ("-", "-", "-", "-")
                status = "unverified"
            else:
                e = v.enumeration
                sizes = (str(e.commuting_size), str(e.central_size), str(e.closed), str(e.equal))
                status = "consistent" if v.consistent else "INCONSISTENT"
            lines.append(
                f"{v.name:32} {v.prediction.verdict:14} {v.prediction.rule:5} "
                f"{sizes[0]:>8} {sizes[1]:>8} {sizes[2]:>6} {sizes[3]:>6} {status:>12}"
            )
        lines.append("")
        lines.append(f"identity violations: {self.identity_violations}")
        for name, c, z in self.oracle_results:
            lines.append(f"oracle {name}: commuting {'ok' if c else 'MISMATCH'}, central {'ok' if z else 'MISMATCH'}")
        for name, reason in self.oracle_skipped:
            lines.append(f"oracle {name}: skipped ({reason})")
        for w in self.witness_reports:
            tag = f"{w.family}{w.params if w.params else ''} over {w.field}"
            lines.append(f"witness {tag}: {'ok' if w.ok else 'FAILED'}")
        lines.append(f"structural checks: {'ok' if self.structural.all_ok else 'FAILED'} ({len(self.structural.checks)} checks)")
        lines.append(f"overall: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def run_suite(p: int = 3, budget: int = SUITE_BUDGET) -> SuiteReport:
    """Catalog verification + witnesses + oracle cross-checks + structure."""
    field = FieldSpec.prime(p)
    entries = default_catalog(field)

    verdicts = []
    identity_counts = {}
    oracle_results = []
    oracle_skipped = []
    for entry in entries:
        alg = entry.algebra
        report, commuting, central = _verify(alg, budget, entry.name)
        verdicts.append(report)
        if commuting is None:
            continue
        identity_counts[entry.name] = identity_suite_batch(alg, commuting.member_array(), moves=commuting._moves)
        if alg.dim <= 3:
            try:
                brute_c, brute_z = _bruteforce(alg, ("commuting", "central"))
            except BudgetExceededError as exc:
                oracle_skipped.append((entry.name, f"brute force {exc}"))
                continue
            oracle_results.append(
                (
                    entry.name,
                    sets_equal(commuting, brute_c).equal,
                    sets_equal(central, brute_z).equal,
                )
            )

    witness_reports = []
    for k, m in ((2, 1), (2, 2), (3, 1)):
        for wp in (3, 5):
            witness_reports.append(heisenberg_witness(k, m, FieldSpec.prime(wp)))
    for wp in (3, 5, 7):
        witness_reports.append(dim5_witness(FieldSpec.prime(wp)))

    structural = structural_suite(entries)
    return SuiteReport(
        field=field,
        budget=budget,
        verdicts=tuple(verdicts),
        identity_counts=identity_counts,
        oracle_results=tuple(oracle_results),
        witness_reports=tuple(witness_reports),
        structural=structural,
        oracle_skipped=tuple(oracle_skipped),
    )
