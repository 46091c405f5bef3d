"""Per-layer metrics from one traced pass, plus probes on its member arrays.

Seconds are span self times.  Counts are recorded by the traced pass at the
same boundaries.  The ``modp`` rates come from probes run after the traced
pass on the commuting member arrays the pass enumerated; their operation
and byte counts per map are computed from the kernels' array shapes, not
measured with hardware counters.
"""

from __future__ import annotations

import time

from coclass_lab import modp

from workloads import projected_candidates

BUDGET_ERROR = "BudgetExceededError"

# (metric, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("search.commuting_s", "s", "lower"),
    ("search.commuting_members", "count", "higher"),
    ("search.projected_candidates", "count", "lower"),
    ("search.members_per_candidate", "ratio", "higher"),
    ("search.commuting_members_per_s", "1/s", "higher"),
    ("search.central_s", "s", "lower"),
    ("search.central_members", "count", "higher"),
    ("search.closure_s", "s", "lower"),
    ("search.closure_pairs", "count", "lower"),
    ("search.closure_span_calls", "count", "higher"),
    ("search.equal_s", "s", "lower"),
    ("search.budget_rejects", "count", "lower"),
    ("search.budget_reject_s", "s", "lower"),
    ("search.oracle_s", "s", "lower"),
    ("search.oracle_matrices", "count", "lower"),
    ("maps.identity_s", "s", "lower"),
    ("maps.identity_members", "count", "higher"),
    ("maps.identity_members_per_s", "1/s", "higher"),
    ("modp.invertible_maps_per_s", "1/s", "higher"),
    ("modp.homomorphism_maps_per_s", "1/s", "higher"),
    ("modp.commuting_maps_per_s", "1/s", "higher"),
    ("modp.invertible_mul_per_map_computed", "mul/map", "lower"),
    ("modp.homomorphism_mul_per_map_computed", "mul/map", "lower"),
    ("modp.commuting_mul_per_map_computed", "mul/map", "lower"),
    ("modp.invertible_bytes_per_map_computed", "B/map", "lower"),
    ("modp.homomorphism_bytes_per_map_computed", "B/map", "lower"),
    ("modp.commuting_bytes_per_map_computed", "B/map", "lower"),
    ("harness.profile_s", "s", "lower"),
    ("harness.verified", "count", "higher"),
    ("harness.unverified", "count", "lower"),
    ("algebra.series_s", "s", "lower"),
    ("linalg.kernel_s", "s", "lower"),
    ("constructions.load_s", "s", "lower"),
    ("constructions.catalog_s", "s", "lower"),
    ("harness.witness_s", "s", "lower"),
    ("harness.structural_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("bench.check_s", "s", "lower"),
    ("bench.glue_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
)

# Metrics that are the self time of one span name.
SELF_TIME = {
    "search.closure_s": "search.closure",
    "search.equal_s": "search.equal",
    "search.oracle_s": "search.oracle",
    "maps.identity_s": "maps.identity",
    "harness.profile_s": "harness.profile",
    "algebra.series_s": "algebra.series",
    "linalg.kernel_s": "linalg.kernel",
    "constructions.load_s": "constructions.load",
    "constructions.catalog_s": "constructions.catalog",
    "harness.witness_s": "harness.witness",
    "harness.structural_s": "harness.structural",
    "cli.emit_s": "cli.emit",
    "bench.check_s": "bench.check",
    "bench.glue_s": "bench.pass",
}


def _computed_costs(n: int) -> dict:
    """Multiplications and bytes of int64 arrays each modp kernel creates per n x n map.

    batch_invertible: Gauss-Jordan on a copy; column c scales one row and
    updates the n - c - 1 rows below it (product, difference, residue).
    batch_is_homomorphism: the n^3 tensors lhs and rhs, their difference and
    its residue; rhs is a three-operand einsum, two products per term.
    batch_is_commuting: the n^3 form, its residue, the symmetrised sum and
    its residue.
    """
    below = n * (n - 1) // 2
    return {
        "invertible": (n * n + below * n, 8 * (n * n + 3 * below * n)),
        "homomorphism": (n**4 + 2 * n**5, 8 * (n * n + 4 * n**3)),
        "commuting": (n**4, 8 * (n * n + 4 * n**3)),
    }


def _modp_probes(outcome) -> dict:
    kernels = {
        "invertible": lambda mats, T, p: modp.batch_invertible(mats, p),
        "homomorphism": lambda mats, T, p: modp.batch_is_homomorphism(mats, T, p),
        "commuting": lambda mats, T, p: modp.batch_is_commuting(mats, T, p),
    }
    totals = {k: [0, 0.0, 0, 0] for k in kernels}  # maps, seconds, mul, bytes
    for alg, aset in outcome.enumerated:
        mats = aset.member_array()
        T = modp.structure_tensor(alg)
        p = alg.field.p
        costs = _computed_costs(alg.dim)
        for name, kernel in kernels.items():
            start = time.perf_counter()
            mask = kernel(mats, T, p)
            elapsed = time.perf_counter() - start
            with outcome.op(f"modp.{name} probe") as op:
                op.check(bool(mask.all()), "rejects an enumerated member")
            t = totals[name]
            t[0] += len(mats)
            t[1] += elapsed
            t[2] += costs[name][0] * len(mats)
            t[3] += costs[name][1] * len(mats)
    out = {}
    for name, (count, seconds, mul, nbytes) in totals.items():
        out[f"modp.{name}_maps_per_s"] = count / seconds if seconds else 0.0
        out[f"modp.{name}_mul_per_map_computed"] = mul / count if count else 0.0
        out[f"modp.{name}_bytes_per_map_computed"] = nbytes / count if count else 0.0
    return out


def per_layer_metrics(tracer, outcome, plain_wall: float, traced_wall: float) -> dict:
    self_s = tracer.self_times()
    counts = tracer.counts
    values = {metric: self_s.get(span, 0.0) for metric, span in SELF_TIME.items()}

    rejected = tracer.error_time({"search.commuting", "search.central"}, BUDGET_ERROR)
    values["search.budget_reject_s"] = rejected
    values["search.commuting_s"] = self_s.get("search.commuting", 0.0) - tracer.error_time(
        {"search.commuting"}, BUDGET_ERROR)
    values["search.central_s"] = self_s.get("search.central", 0.0) - tracer.error_time(
        {"search.central"}, BUDGET_ERROR)
    for name in ("search.commuting_members", "search.central_members", "search.closure_pairs",
                 "search.closure_span_calls", "search.budget_rejects", "search.oracle_matrices",
                 "maps.identity_members", "harness.verified", "harness.unverified"):
        values[name] = counts.get(name, 0)

    projected = sum(projected_candidates(alg) for alg, _ in outcome.enumerated)
    values["search.projected_candidates"] = projected
    members = values["search.commuting_members"]
    values["search.members_per_candidate"] = members / projected if projected else 0.0
    commuting_s = values["search.commuting_s"]
    values["search.commuting_members_per_s"] = members / commuting_s if commuting_s else 0.0
    identity_s = values["maps.identity_s"]
    values["maps.identity_members_per_s"] = (
        values["maps.identity_members"] / identity_s if identity_s else 0.0)
    values.update(_modp_probes(outcome))

    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.unaccounted_s"] = traced_wall - sum(self_s.values())
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def self_time_table(tracer, traced_wall: float, plain_wall: float) -> str:
    self_s = tracer.self_times()
    calls = {}
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    lines = [f"{'span':24} {'calls':>6} {'self_s':>10} {'share':>7}"]
    for name, sec in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:24} {calls[name]:6d} {sec:10.4f} {sec / traced_wall:7.1%}")
    total = sum(self_s.values())
    lines.append(
        f"self times {total:.4f} s = untraced wall {plain_wall:.4f} s"
        f" + overhead {traced_wall - plain_wall:+.4f} s - unaccounted {traced_wall - total:.4f} s"
    )
    return "\n".join(lines)
