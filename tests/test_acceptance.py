"""Acceptance battery: one test per criterion, each printing a PASS line.

Criteria with stated runtime bounds measure their own work, including any
enumeration they rely on.  Closure checks never assume the verdict: every
"not closed" claim carries a replayable witness pair and every "closed"
claim is decided exactly (plain pair scan or the span reduction, both
exact).
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import einsum_reference
from coclass_lab.constructions import default_catalog
from coclass_lab.fields import FieldSpec
from coclass_lab.harness import SUITE_BUDGET, dim5_witness, heisenberg_witness, structural_suite
from coclass_lab.maps import identity_suite_batch
from coclass_lab.search import (
    BudgetExceededError,
    closure_check,
    enumerate_central,
    enumerate_central_bruteforce,
    enumerate_commuting,
    enumerate_commuting_bruteforce,
    sets_equal,
)

F3 = FieldSpec.prime(3)


def report(criterion, elapsed, detail=""):
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS in {elapsed:.2f}s{extra}")


@pytest.fixture(scope="module")
def catalog():
    return default_catalog(F3)


@pytest.fixture(scope="module")
def enumerations(catalog):
    """Commuting/central sets for every entry that fits the suite budget."""
    runs = {}
    for entry in catalog:
        try:
            commuting = enumerate_commuting(entry.algebra, budget=SUITE_BUDGET)
            central = enumerate_central(entry.algebra, budget=SUITE_BUDGET)
        except BudgetExceededError:
            continue
        runs[entry.name] = (entry.algebra, commuting, central)
    return runs


def test_criterion_1_heisenberg_witness():
    t0 = time.monotonic()
    for k, m in ((2, 1), (2, 2), (3, 1)):
        for p in (3, 5):
            field = FieldSpec.prime(p)
            w = heisenberg_witness(k, m, field, variant="both")
            by = {v.variant: v for v in w.variants}
            assert by["corrected"].beta1_commuting
            assert by["corrected"].beta2_commuting
            assert not by["corrected"].composition_commuting
            dim = 2 * k + m
            u1 = tuple(1 if i == 0 else 0 for i in range(dim))
            z1 = tuple(1 if i == 2 * k else 0 for i in range(dim))
            assert by["corrected"].defect_input == u1
            assert by["corrected"].defect_bracket == z1
            assert not by["printed"].beta2_commuting
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, elapsed, "heisenberg witnesses over F3 and F5")


def test_criterion_2_dim5_witness():
    t0 = time.monotonic()
    for p in (3, 5, 7):
        w = dim5_witness(FieldSpec.prime(p))
        v = w.variants[0]
        assert v.beta1_commuting and v.beta2_commuting
        assert not v.composition_commuting
        assert v.defect_input == (1, 0, 0, 0, 0)
        assert v.defect_bracket == (0, 0, 0, 0, 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(2, elapsed, "dim-5 witness over F3, F5, F7")


def test_criterion_3_coclass1_equality():
    from coclass_lab.constructions import filiform

    t0 = time.monotonic()
    for n in (4, 5, 6, 7):
        L = filiform(n, F3)
        commuting = enumerate_commuting(L)
        central = enumerate_central(L)
        eq = sets_equal(commuting, central)
        assert eq.equal, f"filiform({n}): commuting != central"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(3, elapsed, "filiform(4..7): commuting set equals central set")


def test_criterion_4_coclass2_closure(catalog):
    t0 = time.monotonic()
    targets = [
        e
        for e in catalog
        if e.algebra.coclass() == 2 and 5 <= e.algebra.dim <= 7
    ]
    assert len(targets) >= 3
    for entry in targets:
        commuting = enumerate_commuting(entry.algebra, budget=SUITE_BUDGET)
        verdict = closure_check(commuting)
        assert verdict.closed, f"{entry.name} unexpectedly not closed"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(4, elapsed, f"{len(targets)} coclass-2 algebras of dim 5..7 closed")


def test_criterion_5_dim5_coclass3_dichotomy(catalog):
    t0 = time.monotonic()
    seen_not_closed = seen_closed = 0
    checked = {}
    for entry in catalog:
        alg = entry.algebra
        if alg.dim != 5 or alg.coclass() != 3:
            continue
        key = tuple(sorted(alg.sc.items()))
        if key not in checked:
            commuting = enumerate_commuting(alg, budget=SUITE_BUDGET)
            checked[key] = closure_check(commuting)
        verdict = checked[key]
        center, derived = alg.center(), alg.derived()
        if center.dim == 1 and center == derived:
            assert not verdict.closed, f"{entry.name} should fail closure"
            assert verdict.witness is not None
            seen_not_closed += 1
        else:
            assert verdict.closed, f"{entry.name} should be closed"
            seen_closed += 1
    assert seen_not_closed >= 1 and seen_closed >= 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(5, elapsed, f"{seen_not_closed} witnessed failure(s), {seen_closed} closed")


def test_criterion_6_abelian_second_center_closure(catalog, enumerations):
    t0 = time.monotonic()
    names = []
    for entry in catalog:
        alg = entry.algebra
        if alg.subalgebra_class(alg.second_center()) > 1:
            continue
        # zero exceptions: every such entry must have been enumerable
        assert entry.name in enumerations, f"{entry.name} missed the budget"
        _, commuting, _ = enumerations[entry.name]
        assert closure_check(commuting).closed, f"{entry.name} not closed"
        names.append(entry.name)
    assert len(names) >= 6
    elapsed = time.monotonic() - t0
    report(6, elapsed, f"abelian second center => closed for {len(names)} entries")


def test_criterion_7_identity_suite_zero_violations(enumerations):
    t0 = time.monotonic()
    total_members = 0
    for name, (alg, commuting, _) in sorted(enumerations.items()):
        counts = identity_suite_batch(alg, commuting.member_array())
        assert sum(counts.values()) == 0, f"{name}: {counts}"
        total_members += commuting.size
    assert total_members > 40_000
    elapsed = time.monotonic() - t0
    report(7, elapsed, f"all identities hold over {total_members} enumerated maps")


def test_identity_sweep_matches_unfactored_einsum(enumerations):
    # the factored sweep against the original three-operand contractions,
    # on every member and on up to 512 members with one entry moved
    rng = np.random.default_rng(7)
    for name, (alg, commuting, _) in sorted(enumerations.items()):
        members = commuting.member_array()
        moved = members[:: max(1, len(members) // 512)].copy()
        n = alg.dim
        at = np.arange(len(moved))
        moved[at, rng.integers(0, n, len(moved)), rng.integers(0, n, len(moved))] += 1
        for batch in (members, moved % alg.field.p):
            counts = identity_suite_batch(alg, batch)
            assert counts == einsum_reference.identity_counts(alg, batch), name


def test_criterion_8_oracle_equivalence(catalog):
    t0 = time.monotonic()
    small = [e for e in catalog if e.algebra.dim <= 3]
    assert small, "catalog needs a dim <= 3 entry for the oracle"
    for entry in small:
        fast_c = enumerate_commuting(entry.algebra)
        fast_z = enumerate_central(entry.algebra)
        brute_c = enumerate_commuting_bruteforce(entry.algebra)
        brute_z = enumerate_central_bruteforce(entry.algebra)
        assert sets_equal(fast_c, brute_c).equal
        assert sets_equal(fast_z, brute_z).equal
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(8, elapsed, f"brute-force agreement on {len(small)} small entries")


def test_criterion_9_structural_suite(catalog):
    t0 = time.monotonic()
    result = structural_suite(catalog)
    assert result.all_ok
    assert len(result.checks) >= 6
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(9, elapsed, f"{len(result.checks)} structural checks, zero violations")


def test_criterion_10_suite_json_determinism():
    t0 = time.monotonic()
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "coclass_lab.cli", "--format", "json", "suite"],
            capture_output=True,
            env=env,
            timeout=900,
        )
        assert proc.returncode == 0, proc.stderr.decode()[:500]
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1], "suite JSON differs between runs"
    payload = json.loads(outputs[0])
    assert payload["summary"]["ok"] is True
    elapsed = time.monotonic() - t0
    report(10, elapsed, f"byte-identical across hash seeds ({len(outputs[0])} bytes)")
