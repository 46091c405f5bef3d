"""The frontier enumerator and the span closure check against their references.

The references are the algorithms they replaced: the recursive DFS in
``dfs_reference`` (also run without the Z_2 coset rows, as an oracle for
that pruning lemma) and the ordered all-pairs scan of
``closure_check(..., exhaustive=True)``.
"""

import numpy as np
import pytest

import dfs_reference
from coclass_lab import modp, search
from coclass_lab.constructions import default_catalog
from coclass_lab.fields import FieldSpec
from coclass_lab.harness import SUITE_BUDGET
from coclass_lab.search import (
    AbelianShortCircuit,
    BudgetExceededError,
    closure_check,
    enumerate_commuting,
)


@pytest.fixture(scope="module")
def catalog_sets():
    """p -> [(name, algebra, commuting set)] for entries within SUITE_BUDGET."""
    runs = {}
    for p in (3, 5):
        runs[p] = []
        for entry in default_catalog(FieldSpec.prime(p)):
            try:
                aset = enumerate_commuting(entry.algebra, budget=SUITE_BUDGET)
            except AbelianShortCircuit:
                continue
            except BudgetExceededError as exc:
                assert exc.projected == dfs_reference.projected_count(entry.algebra), entry.name
                continue
            runs[p].append((entry.name, entry.algebra, aset))
    return runs


@pytest.mark.parametrize("p", (3, 5))
def test_frontier_matches_dfs_reference(catalog_sets, p):
    assert len(catalog_sets[p]) >= 10
    for name, alg, aset in catalog_sets[p]:
        ref = dfs_reference.enumerate_commuting(alg, SUITE_BUDGET)
        assert np.array_equal(aset.member_array(), ref.member_array()), name


def test_frontier_blocks_narrower_than_a_level(catalog_sets, monkeypatch):
    # with blocks below a level's p^k kernel points, the points are sliced
    monkeypatch.setattr(search, "CHUNK", 7)
    checked = 0
    for name, alg, aset in catalog_sets[3]:
        if name in ("heisenberg_1_2", "dim6_center1"):
            again = enumerate_commuting(alg, budget=SUITE_BUDGET)
            assert np.array_equal(again.member_array(), aset.member_array()), name
            checked += 1
    assert checked == 2


def test_second_center_pruning_against_ablated_reference(catalog_sets):
    # the enumerator confines f(g) to g + Z_2(L); the ablated reference
    # searches without those rows, so it checks the lemma instead of using it
    checked = []
    for name, alg, aset in catalog_sets[3]:
        if alg.second_center().is_full():
            continue
        ref = dfs_reference.enumerate_commuting(alg, 10**5, prune_second_center=False)
        assert np.array_equal(aset.member_array(), ref.member_array()), name
        checked.append(name)
    assert len(checked) == 11 and "dim6_center1" in checked


def _indices(verdict):
    return None if verdict.witness is None else (verdict.witness.f_index, verdict.witness.g_index)


def _first_failing_pair(aset):
    """The witness indices of exhaustive=True: its ordered scan, stopped at the first failing row."""
    p = aset.algebra.field.p
    T = modp.structure_tensor(aset.algebra)
    arr = aset.member_array()
    for fi in range(len(arr)):
        ok = modp.batch_is_commuting(np.matmul(arr, arr[fi]) % p, T, p)
        if not ok.all():
            return fi, int(np.argmin(ok))
    return None


def test_span_closure_matches_ordered_scan(catalog_sets):
    not_closed = []
    for p, runs in catalog_sets.items():
        for name, _, aset in runs:
            if aset.size**2 > 10**6:
                continue
            fast = closure_check(aset)
            ref = closure_check(aset, exhaustive=True)
            assert (fast.closed, _indices(fast)) == (ref.closed, _indices(ref)), (p, name)
            if not ref.closed:
                not_closed.append(name)
    assert "dim6_center1" in not_closed


def test_span_witness_on_large_non_closed_sets(catalog_sets):
    # 13,284 members each: the full exhaustive scan would compose 1.8e8 pairs
    runs = {name: aset for name, _, aset in catalog_sets[3]}
    for name in ("dim5_example", "heisenberg_2_1"):
        verdict = closure_check(runs[name])
        assert not verdict.closed
        assert _indices(verdict) == _first_failing_pair(runs[name]), name
