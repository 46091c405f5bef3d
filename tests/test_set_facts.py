"""The facts an AutomorphismSet takes from its enumerator, checked against its members.

``_finish_set`` records the inverse index it proves, and the enumerators
hand over a basis of the span of the members' displacements F - I that
they derive from how they made the members (Aut_c from its heads and
tails, S from the r - I and the products r ∘ m); ``closure_check``
derives the basis of the members' linear span from it and I.  None is
recomputed from the members, so each is checked here against the members
alone: every set within SUITE_BUDGET in the catalog at F3, F5 and F7, and
seeded random 2-step algebras.  The rank comes from the reference
elimination, not from ``modp.spanning_rows``: one pass over a set's rows
followed by the basis under test gives both the rows' rank and whether the
basis lies in their span, and the members' pass runs once per set.
"""

import math

import numpy as np
import pytest

from bruteforce_reference import enumerate_aut_bruteforce
from closure_reference import closure_scan
from elimination_reference import spanning_rows as reference_spanning_rows
from coclass_lab import modp, search
from coclass_lab.algebra import LieAlgebra
from coclass_lab.constructions import heisenberg
from coclass_lab.fields import FieldSpec
from coclass_lab.harness import SUITE_BUDGET
from coclass_lab.maps import _identity_counts, identity_suite_batch
from coclass_lab.search import AutomorphismSet, BudgetExceededError, closure_check

# closure_scan composes up to N^2 pairs; larger closed sets are compared
# with a copy of the set that picks its own spanning members instead
SCAN_LIMIT = 1000


def _two_step(rng, p: int, dim: int) -> LieAlgebra:
    """[x_i, x_j] = sum_k a_ijk z_k with random a, for 1 or 2 central z_k."""
    central = int(rng.integers(1, 3))
    free = dim - central
    sc = {}
    for i in range(free):
        for j in range(i + 1, free):
            terms = tuple((free + k, int(c)) for k, c in enumerate(rng.integers(0, p, central)) if c)
            if terms:
                sc[(i, j)] = terms
    return LieAlgebra(FieldSpec.prime(p), dim, sc)


def _two_step_runs() -> list:
    """(label, commuting set, central set) for the first two non-abelian draws per
    (p, dim) whose sets fit in SUITE_BUDGET, seeded."""
    rng = np.random.default_rng(19)
    runs = []
    for p, dims in ((3, (4, 5, 6)), (5, (4, 5))):
        for dim in dims:
            kept = 0
            for _ in range(40):
                alg = _two_step(rng, p, dim)
                if alg.is_abelian:
                    continue
                try:
                    commuting, central = search._commuting_and_central(alg, SUITE_BUDGET)
                except BudgetExceededError:
                    continue
                runs.append((f"two_step_{dim}_{kept}/F{p}", commuting, central))
                kept += 1
                if kept == 2:
                    break
    return runs


@pytest.fixture(scope="module")
def built_sets(catalog_runs):
    """(label, commuting set, central set) for every catalog row within budget and the draws."""
    runs = [
        (f"{run.name}/F{p}", run.commuting, run.central)
        for p in (3, 5, 7)
        for run in catalog_runs(p)
        if not isinstance(run.commuting, BudgetExceededError)
    ]
    assert len(runs) >= 30
    draws = _two_step_runs()
    assert len(draws) >= 8
    return runs + draws


@pytest.fixture(scope="module")
def member_span():
    """aset -> _reduce of its members followed by its span basis, computed once per set."""
    facts = {}

    def reduced(aset) -> tuple:
        if id(aset) not in facts:  # the set is kept beside its facts, so its id is not reused
            facts[id(aset)] = aset, _reduce(_flat(aset.member_array()), _span_basis(aset), aset.algebra.field.p)
        return facts[id(aset)][1]

    return reduced


def _span_basis(aset) -> np.ndarray:
    """The basis closure_check decides on: what spanning_maps keeps of I followed by _moves."""
    n = aset.algebra.dim
    return _flat(modp.spanning_maps(np.concatenate([np.eye(n, dtype=np.int64)[None], aset._moves]), aset.algebra.field.p))


def _reduce(rows: np.ndarray, basis: np.ndarray, p: int) -> tuple:
    """(the rows' rank, whether basis lies in their span), by one reference
    elimination of the rows followed by the basis: it picks greedily in
    order, so it picks rank rows among the rows and a basis row only when
    that row lies outside their span."""
    picked = reference_spanning_rows(np.concatenate([rows, basis]), p)
    return sum(i < len(rows) for i in picked), all(i < len(rows) for i in picked)


def _flat(mats: np.ndarray) -> np.ndarray:
    count, n, _ = mats.shape
    return mats.reshape(count, n * n)


def _assert_basis_of(basis: np.ndarray, rank: int, inside: bool, p: int, label) -> None:
    """basis lies in a span of the given rank (inside, from _reduce), has rank
    rows and, by the reference elimination of the basis alone, is independent:
    so it is a basis of that span."""
    assert inside and len(basis) == rank, label
    assert reference_spanning_rows(basis, p) == list(range(len(basis))), label


def test_span_basis_is_a_basis_of_the_members_span(built_sets, member_span):
    for label, commuting, central in built_sets:
        for aset in (commuting, central):
            _assert_basis_of(_span_basis(aset), *member_span(aset), aset.algebra.field.p, (label, aset.kind))


def test_moves_are_a_basis_of_the_members_displacements(built_sets):
    for label, commuting, central in built_sets:
        for aset in (commuting, central):
            p, n = aset.algebra.field.p, aset.algebra.dim
            moves = _flat(aset._moves)
            displacements = _flat(aset.member_array() - np.eye(n, dtype=np.int64))  # the reference reduces mod p
            _assert_basis_of(moves, *_reduce(displacements, moves, p), p, (label, aset.kind))


def test_identity_sweep_on_moves_matches_the_sweep_on_a_basis_from_the_members(built_sets):
    for label, commuting, central in built_sets:
        for aset in (commuting, central):
            alg, arr = aset.algebra, aset.member_array()
            assert identity_suite_batch(alg, arr, moves=aset._moves) == identity_suite_batch(alg, arr), label


def test_identity_sweep_on_moves_counts_a_planted_violation_exactly():
    # Aut(heisenberg(1, 1)) over F3 holds automorphisms that do not commute:
    # both ways of deciding see a nonzero count and sweep every member
    L = heisenberg(1, 1, FieldSpec.prime(3))
    arr = enumerate_aut_bruteforce(L).member_array()
    aset = AutomorphismSet(L, "commuting", arr)  # hand-built: it picks its own moves
    counts = identity_suite_batch(L, arr, moves=aset._moves)
    assert counts == identity_suite_batch(L, arr) == _identity_counts(L, arr)
    assert counts["bracket_swap"] > 0


def test_inverse_index_names_each_members_inverse(built_sets):
    for label, commuting, central in built_sets:
        for aset in (commuting, central):
            p, n = aset.algebra.field.p, aset.algebra.dim
            arr, inverse = aset.member_array(), aset._inverse
            assert inverse.dtype == np.int64 and inverse.shape == (aset.size,), label
            assert (modp.residue(np.matmul(arr[inverse], arr), p) == np.eye(n, dtype=np.int64)).all(), label
            assert np.array_equal(inverse[inverse], np.arange(aset.size)), label


def test_closure_from_the_span_basis_matches_the_ordered_scan(built_sets, member_span):
    scanned = not_closed = 0
    for label, commuting, _ in built_sets:
        verdict = closure_check(commuting)
        assert verdict.pair_count == member_span(commuting)[0] ** 2, label
        if commuting.size <= SCAN_LIMIT or not verdict.closed:
            ref = closure_scan(commuting)
            scanned += 1
        else:
            # the same members, with the moves picked from them rather than handed over
            ref = closure_check(AutomorphismSet(commuting.algebra, "commuting", commuting.member_array()))
        assert verdict.closed == ref.closed, label
        if not ref.closed:
            not_closed += 1
            assert (verdict.witness.f_index, verdict.witness.g_index) == (ref.witness.f_index, ref.witness.g_index), label
            assert verdict.witness.vector == ref.witness.vector, label
    assert scanned >= 20 and not_closed >= 3


def test_closed_set_is_decided_without_reading_its_members(built_sets, monkeypatch):
    # a closed set needs only its basis, made from I and _moves; a set that is
    # not closed also scans its members for the greedy representatives, and
    # stops at the rank
    calls = []
    real = modp.spanning_rows
    monkeypatch.setattr(modp, "spanning_rows", lambda rows, p, rank=None: calls.append((rows, rank)) or real(rows, p, rank))
    seen = set()
    for label, commuting, _ in built_sets:
        calls.clear()
        verdict = closure_check(commuting)
        reads = [rank for rows, rank in calls if np.may_share_memory(rows, commuting.member_array())]
        assert len(calls) == 1 + len(reads), label
        assert reads == ([] if verdict.closed else [math.isqrt(verdict.pair_count)]), label
        seen.add(verdict.closed)
    assert seen == {True, False}


@pytest.mark.parametrize("chunk", [7, 200])
def test_product_blocks_stay_within_chunk_and_in_source_order(catalog_runs, monkeypatch, chunk):
    # products r ∘ c: at 7 every Aut_c here is wider than a block (one rep,
    # sliced members); at 200 some blocks hold several reps times all of Aut_c.
    # Aut_c's own members, tails times heads, are blocked the same way
    monkeypatch.setattr(search, "CHUNK", chunk)
    real = search._finish_set
    blocks = []

    def record(algebra, kind, mats, inverses=None, moves=None):
        # the blocks are a stream that _finish_set reads once: note each size as it passes
        sizes = []
        blocks.append((kind, sizes))

        def passing():
            for block in mats:
                sizes.append(len(block))
                yield block

        return real(algebra, kind, passing(), inverses, moves)

    monkeypatch.setattr(search, "_finish_set", record)
    checked = 0
    for run in catalog_runs(3):
        if run.name in ("heisenberg_1_2", "dim6_center1", "dim5_example", "dim6_center3"):
            again = search._commuting_and_central(run.algebra, SUITE_BUDGET)
            for made, kept in zip(again, (run.commuting, run.central)):
                assert np.array_equal(made.member_array(), kept.member_array()), (run.name, kept.kind)
                assert np.array_equal(made._inverse, kept._inverse), (run.name, kept.kind)
                assert np.array_equal(made._moves, kept._moves), (run.name, kept.kind)
            checked += 1
    assert checked == 4
    for kind in ("commuting", "central"):
        sizes = [size for made, sizes in blocks if made == kind for size in sizes]
        assert max(sizes) <= chunk and len(set(sizes)) > 1, kind
