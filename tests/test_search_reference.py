"""The enumerators and the span closure check against their references.

The references are the algorithms they replaced: the recursive DFS in
``dfs_reference`` (also run without the Z_2 coset rows, as an oracle for
that pruning lemma), the ordered all-pairs scan in ``closure_reference``,
and the n x n invertibility tests and commuting mask of
``elimination_reference`` that the filter (by the arguments in the
``search`` docstring) and the central enumerator (by Sylvester's
identity) no longer run, with its per-point enumeration of the invertible
points of I + W, which the head/tail split and Woodbury inverses
replaced.  The commuting enumerator, class representatives times the
central set, is also checked against the two paths it replaced in
``commuting_reference``: the filter over every assignment, and, where
Z_2 is abelian, the invertible points of the derivation space W.
"""

import numpy as np
import pytest

import commuting_reference
import dfs_reference
import elimination_reference
from closure_reference import closure_scan
from coclass_lab import modp, search
from coclass_lab.algebra import LieAlgebra
from coclass_lab.constructions import abelian, builtin, default_catalog, direct_sum, heisenberg
from coclass_lab.fields import FieldSpec
from coclass_lab.harness import SUITE_BUDGET
from coclass_lab.search import (
    AbelianShortCircuit,
    BudgetExceededError,
    closure_check,
    enumerate_central,
    enumerate_commuting,
)


@pytest.fixture(scope="module")
def catalog_sets(catalog_runs):
    """p -> [(name, algebra, commuting set)] for entries within SUITE_BUDGET."""
    runs = {}
    for p in (3, 5):
        runs[p] = []
        for run in catalog_runs(p):
            if isinstance(run.commuting, BudgetExceededError):
                assert run.commuting.projected == dfs_reference.projected_count(run.algebra), run.name
                continue
            runs[p].append((run.name, run.algebra, run.commuting))
    return runs


@pytest.fixture(scope="module")
def dfs_set():
    """algebra -> dfs_reference.enumerate_commuting(algebra, SUITE_BUDGET), computed once."""
    cache = {}

    def get(alg):
        if alg not in cache:
            cache[alg] = dfs_reference.enumerate_commuting(alg, SUITE_BUDGET)
        return cache[alg]

    return get


@pytest.mark.parametrize("p", (3, 5))
def test_enumeration_matches_dfs_reference(catalog_sets, dfs_set, p):
    assert len(catalog_sets[p]) >= 10
    for name, alg, aset in catalog_sets[p]:
        ref = dfs_set(alg)
        assert np.array_equal(aset.member_array(), ref.member_array()), name


def test_assignment_blocks_narrower_than_chunk(catalog_sets, monkeypatch):
    # with blocks below the p^(dim V) kernel points, the points are sliced;
    # the filter, which runs no chunk loop of its own, sees at most CHUNK rows
    monkeypatch.setattr(search, "CHUNK", 7)
    real = search._filter_assignments
    rows = []
    monkeypatch.setattr(
        search, "_filter_assignments", lambda alg, pres, T, block: rows.append(len(block)) or real(alg, pres, T, block)
    )
    checked = 0
    for name, alg, aset in catalog_sets[3]:
        if name in ("heisenberg_1_2", "dim6_center1"):
            again = enumerate_commuting(alg, budget=SUITE_BUDGET)
            assert np.array_equal(again.member_array(), aset.member_array()), name
            checked += 1
    assert checked == 2
    assert rows and max(rows) <= 7


def test_refusal_computes_only_the_level_kernels(monkeypatch):
    # the budget check reads the r per-level kernel sizes as n - rank, one
    # elimination each of the growing span; no kernel, the joint system's
    # included, is computed for a refused algebra
    alg = heisenberg(2, 2, FieldSpec.prime(3))
    calls = []
    real = search._span
    monkeypatch.setattr(search, "_span", lambda f, n, rows: calls.append(n) or real(f, n, rows))
    monkeypatch.setattr(search, "kernel", lambda m: pytest.fail("kernel computed on a refusal"))
    with pytest.raises(BudgetExceededError):
        enumerate_commuting(alg, budget=0)
    assert calls == [alg.dim] * len(alg.generator_indices())


def test_refusal_builds_no_presentation(monkeypatch):
    # the budget check needs only the generators, not the presentation
    def refuse(self):
        raise AssertionError("generator_presentation called")

    monkeypatch.setattr(LieAlgebra, "generator_presentation", refuse)
    with pytest.raises(BudgetExceededError):
        enumerate_commuting(heisenberg(2, 2, FieldSpec.prime(3)), budget=0)


def test_assignments_are_the_joint_kernel_below_the_projection():
    # dim6_center1 over F3: the level widths give 3^(3+3+2+1), an upper
    # bound; the joint kernel holds 3^7 distinct assignments
    alg = builtin("dim6_center1", FieldSpec.prime(3))
    with pytest.raises(BudgetExceededError) as refusal:
        enumerate_commuting(alg, budget=0)
    assert refusal.value.projected == 3**9 == dfs_reference.projected_count(alg)
    block = np.concatenate(list(commuting_reference.assignment_blocks(alg, SUITE_BUDGET)))
    assert block.shape == (3**7, len(alg.generator_indices()), alg.dim)
    assert len(np.unique(block.reshape(len(block), -1), axis=0)) == 3**7


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


def _abelian_second_center(alg) -> bool:
    z2 = alg.second_center()
    return alg.bracket_subspaces(z2, z2).dim == 0


def _rebased(alg, rng):
    """(alg in the basis b_i = P e_i, P) for a seeded random invertible P."""
    p, n = alg.field.p, alg.dim
    P = rng.integers(0, p, (n, n))
    while not modp.batch_invertible(P[None], p)[0]:
        P = rng.integers(0, p, (n, n))
    P_inv = modp.batch_inverse(P[None], p)[0][0]
    T = modp.structure_tensor(alg)
    # [b_i, b_j] = sum P[a, i] P[b, j] [e_a, e_b], then P^-1 gives b coordinates
    brackets = np.einsum("ai,bj,abc->ijc", P, P, T) % p @ P_inv.T % p
    sc = {
        (i, j): tuple((k, int(c)) for k, c in enumerate(brackets[i, j]) if c)
        for i in range(n)
        for j in range(i + 1, n)
        if brackets[i, j].any()
    }
    return LieAlgebra(alg.field, n, sc), P


def _check_derivation_path(label, alg, aset, derivation_set):
    """The enumerated set == derivation path == filter path, and dim W <= dim V."""
    U = commuting_reference.second_center_columns(alg)
    dim_w = len(commuting_reference.commuting_derivations(alg, U))
    assignments = sum(len(block) for block in commuting_reference.assignment_blocks(alg, SUITE_BUDGET))
    assert alg.field.p**dim_w <= assignments, label
    assert np.array_equal(aset.member_array(), derivation_set.member_array()), label
    filtered = commuting_reference.filtered_commuting(alg, SUITE_BUDGET)
    assert np.array_equal(aset.member_array(), filtered.member_array()), label


@pytest.mark.parametrize("p", (3, 5, 7))
def test_derivation_path_matches_filter_path_and_dfs(catalog_runs, derivation_sets, dfs_set, p):
    # on every abelian-Z_2 catalog row within budget, the enumerated set
    # equals the (I + W) ∩ GL set and two enumerators that do not use the
    # derivation argument: the filter path and the DFS reference
    checked = []
    for run in catalog_runs(p):
        alg = run.algebra
        if not _abelian_second_center(alg) or isinstance(run.commuting, BudgetExceededError):
            continue
        _check_derivation_path(f"{run.name}/F{p}", alg, run.commuting, derivation_sets(alg))
        assert np.array_equal(run.commuting.member_array(), dfs_set(alg).member_array()), (run.name, p)
        checked.append(run.name)
    assert len(checked) == {3: 10, 5: 8, 7: 8}[p], checked


@pytest.mark.parametrize("p", (3, 5, 7))
def test_derivation_path_on_random_bases(p):
    # the same rows in seeded random bases, where generators, presentation,
    # V' and W differ: the enumerated set equals the derivation path, the
    # filter path and the conjugates P^-1 f P of the members in the catalog
    # basis, which the test above checks against the DFS reference
    rng = np.random.default_rng(p)
    checked = []
    for entry in default_catalog(FieldSpec.prime(p)):
        if entry.algebra.is_abelian or not _abelian_second_center(entry.algebra):
            continue
        alg, P = _rebased(entry.algebra, rng)
        assert _abelian_second_center(alg)
        try:
            aset = enumerate_commuting(alg, budget=SUITE_BUDGET)
        except BudgetExceededError:
            continue
        _check_derivation_path(f"{entry.name}/F{p} rebased", alg, aset, commuting_reference.derivation_path(alg))
        original = enumerate_commuting(entry.algebra, budget=SUITE_BUDGET).member_array()
        P_inv = modp.batch_inverse(P[None], p)[0][0]
        conjugates = np.matmul(P_inv @ original % p, P) % p
        assert np.array_equal(aset.member_array(), search._finish_set(alg, "commuting", conjugates).member_array())
        checked.append(entry.name)
    assert len(checked) == {3: 10, 5: 8, 7: 8}[p], checked


@pytest.mark.parametrize("spec, sizes", (("heisenberg:1:1", (9, 18)), ("dim6_center1", (81, 810))))
def test_derivation_path_needs_abelian_second_center(spec, sizes):
    # negative control: where [Z_2, Z_2] != 0 the map D -> I + D drops the
    # [Dx, Dy] term of the homomorphism identity, and the path loses members
    alg = builtin(spec, FieldSpec.prime(3))
    assert not _abelian_second_center(alg)
    forced = commuting_reference.derivation_path(alg)
    full = enumerate_commuting(alg)
    assert (forced.size, full.size) == sizes
    assert not forced.outside(full).any()


def _indices(verdict):
    return None if verdict.witness is None else (verdict.witness.f_index, verdict.witness.g_index)


def test_span_closure_matches_ordered_scan(catalog_sets):
    not_closed = []
    for p, runs in catalog_sets.items():
        for name, _, aset in runs:
            if aset.size**2 > 10**6:
                continue
            fast = closure_check(aset)
            ref = closure_scan(aset)
            assert (fast.closed, _indices(fast)) == (ref.closed, _indices(ref)), (p, name)
            if not ref.closed:
                not_closed.append(name)
    assert "dim6_center1" in not_closed


def test_span_witness_on_large_non_closed_sets(catalog_sets):
    # 13,284 members each: a scan to the last row would compose 1.8e8
    # pairs, but the scan stops at the first failing row
    runs = {name: aset for name, _, aset in catalog_sets[3]}
    for name in ("dim5_example", "heisenberg_2_1"):
        verdict = closure_check(runs[name])
        assert not verdict.closed
        assert _indices(verdict) == _indices(closure_scan(runs[name])), name


def _two_step(rng, p: int, dim: int) -> LieAlgebra:
    """[x_i, x_j] = sum_k a_ijk z_k with random a, for 1 to 3 central z_k."""
    central = int(rng.integers(1, min(3, dim - 2) + 1))
    free = dim - central
    sc = {}
    for i in range(free):
        for j in range(i + 1, free):
            terms = tuple((free + k, int(c)) for k, c in enumerate(rng.integers(0, p, central)) if c)
            if terms:
                sc[(i, j)] = terms
    return LieAlgebra(FieldSpec.prime(p), dim, sc)


def _projected(alg) -> int:
    try:
        enumerate_commuting(alg, budget=0)
    except BudgetExceededError as exc:
        return exc.projected
    except AbelianShortCircuit:
        return 0
    return 1


def _filter_cases():
    """(label, algebra): F3 and F5 catalog entries, then seeded random 2-step algebras.

    Over F3 at dimensions 4 to 6 and over F5 at dimensions 4 and 5 (at 6
    such draws project about 10^7 candidates), the first two draws that
    are not abelian and project within SUITE_BUDGET are kept.
    """
    cases = [
        (f"{entry.name}/F{p}", entry.algebra)
        for p in (3, 5)
        for entry in default_catalog(FieldSpec.prime(p))
    ]
    rng = np.random.default_rng(2024)
    for p, dims in ((3, (4, 5, 6)), (5, (4, 5))):
        for dim in dims:
            kept = 0
            for _ in range(50):
                alg = _two_step(rng, p, dim)
                if 1 <= _projected(alg) <= SUITE_BUDGET:
                    cases.append((f"two_step_{dim}_{kept}/F{p}", alg))
                    kept += 1
                    if kept == 2:
                        break
    return cases


def test_filter_matches_full_mask_on_independent_blocks(monkeypatch):
    # every block the enumerator hands the filter (class representatives:
    # completed assignments, independent modulo L') keeps exactly what the
    # old full mask keeps, on every non-abelian row
    real = search._filter_assignments
    checked = []
    for label, alg in _filter_cases():
        if alg.is_abelian:
            continue
        blocks = []

        def record(algebra, pres, T, block):
            kept = real(algebra, pres, T, block)
            blocks.append((pres, block, kept))
            return kept

        with monkeypatch.context() as m:
            m.setattr(search, "_filter_assignments", record)
            try:
                enumerate_commuting(alg, budget=SUITE_BUDGET)
            except BudgetExceededError:
                continue
        for pres, block, kept in blocks:
            ref = elimination_reference.filter_assignments(alg, pres, block)
            assert np.array_equal(kept, ref), label
        if blocks:
            checked.append(label)
    assert sum(label.startswith("two_step") for label in checked) == 10
    assert len(checked) >= 30, checked


def test_filter_needs_independence_modulo_derived():
    # negative control: without the mask, heisenberg:1:1 over F3 has 27
    # consistent assignments, all homomorphisms that commute, 9 singular
    alg = builtin("heisenberg:1:1", FieldSpec.prime(3))
    pres = alg.generator_presentation()
    block = np.concatenate(list(commuting_reference.assignment_blocks(alg, SUITE_BUDGET)))
    invertible, genuine = elimination_reference.filter_masks(
        alg, elimination_reference.extend_assignments(alg, pres, block)
    )
    assert (len(block), int(genuine.sum()), int((genuine & ~invertible).sum())) == (27, 27, 9)
    T = modp.structure_tensor(alg)
    kept = search._filter_assignments(alg, pres, T, block)
    assert int((~modp.batch_invertible(kept, 3)).sum()) == 9
    independent = modp.batch_invertible(block @ modp.subspace_constraints(alg.derived()).T % 3, 3)
    assert np.array_equal(invertible, independent)
    assert modp.batch_invertible(search._filter_assignments(alg, pres, T, block[independent]), 3).all()


def test_filter_keeps_homomorphisms_that_do_not_commute():
    # negative control for the commuting argument: on heisenberg:1:1 over F3
    # the swap u <-> v, z -> -z is a homomorphism that does not commute; the
    # filter keeps it, so only the level rows, which never yield it, keep it out
    alg = builtin("heisenberg:1:1", FieldSpec.prime(3))
    pres = alg.generator_presentation()
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 2]])
    T = modp.structure_tensor(alg)
    assert modp.batch_is_homomorphism(swap[None], T, 3).all()
    assert not modp.batch_is_commuting(swap[None], T, 3).any()
    kept = search._filter_assignments(alg, pres, T, [((0, 1, 0), (1, 0, 0))])
    assert kept.tolist() == [swap.tolist()]
    block = np.concatenate(list(commuting_reference.assignment_blocks(alg, SUITE_BUDGET)))
    assert not (block == swap.T[None, :2]).all(axis=(1, 2)).any()
    assert swap.tolist() not in enumerate_commuting(alg).member_array().tolist()


@pytest.mark.parametrize("p", (3, 5, 7))
def test_central_matches_full_invertibility_mask(p):
    singular_seen = []
    checked = 0
    for entry in default_catalog(FieldSpec.prime(p)):
        alg = entry.algebra
        try:
            aset = enumerate_central(alg, budget=SUITE_BUDGET)
        except BudgetExceededError:
            continue
        mats, invertible = elimination_reference.central_candidates(alg)
        n = alg.dim
        flat = mats[invertible].reshape(-1, n * n)
        ref = flat[np.lexsort(flat.T[::-1])].reshape(-1, n, n)  # row-major entry order
        assert np.array_equal(aset.member_array(), ref), entry.name
        if not invertible.all():
            singular_seen.append(entry.name)
            singular = search._row_keys(mats[~invertible], p)
            assert not search._contains_rows(aset._keys, singular).any()
        checked += 1
    assert checked >= 15
    assert "filiform_4_plus_abelian_1" in singular_seen


def test_central_on_non_nilpotent_algebra():
    # [a, b] = b plus a central c over F5: Z = <c>, L' = <b>, so phi takes a
    # to x c and c to (w - 1) c, with w != 0 for id + phi to be invertible
    F5 = FieldSpec.prime(5)
    alg = direct_sum(LieAlgebra(F5, 2, {(0, 1): ((1, 1),)}), abelian(1, F5))
    assert not alg.is_nilpotent
    aset = enumerate_central(alg)
    expected = [[[1, 0, 0], [0, 1, 0], [x, 0, w]] for x in range(5) for w in range(1, 5)]
    assert aset.member_array().tolist() == expected
    mats, invertible = elimination_reference.central_candidates(alg)
    assert sorted(mats[invertible].tolist()) == expected


def _recorded_invertible_points(monkeypatch) -> list:
    """A list that receives (set, U, X_basis) for every ``_invertible_points`` call."""
    calls = []
    real = search._invertible_points

    def record(alg, kind, U, X_basis):
        aset = real(alg, kind, U, X_basis)
        calls.append((aset, U, X_basis))
        return aset

    monkeypatch.setattr(search, "_invertible_points", record)
    return calls


def _heads(alg, U, X_basis) -> tuple:
    """(m, s, h) by the reference eliminations: m points of the span, s
    independent N_i = X_i U, and h invertible I_k + sum y_i N_i over the
    p^s head combinations y."""
    p = alg.field.p
    n, k = U.shape
    m = len(X_basis)
    N = (np.matmul(X_basis, U) % p).reshape(m, k * k)
    heads = N[elimination_reference.spanning_rows(N, p)]
    s = len(heads)
    y = np.array(np.meshgrid(*[np.arange(p)] * s, indexing="ij")).reshape(s, p**s).T
    blocks = (y @ heads % p).reshape(p**s, k, k) + np.eye(k, dtype=np.int64)
    return m, s, int(elimination_reference.batch_invertible(blocks, p).sum())


@pytest.mark.parametrize("p", (3, 5, 7))
def test_invertible_points_match_per_point_reference(monkeypatch, catalog_runs, derivation_sets, p):
    # the head/tail split with Woodbury inverses against the k x k test on
    # every point and the n x n inversion of every member that it replaced:
    # every central set within budget, and the derivation path's
    # (I + W) ∩ GL on every abelian-Z_2 row within budget
    calls = _recorded_invertible_points(monkeypatch)
    checked = {"commuting": 0, "central": 0}
    for run in catalog_runs(p):
        alg = run.algebra
        cases = []
        if not isinstance(run.central, BudgetExceededError):
            calls.clear()
            enumerate_central(alg, budget=SUITE_BUDGET)
            ((aset, U, X_basis),) = calls
            assert aset == run.central
            cases.append((aset, U, X_basis))
        if _abelian_second_center(alg) and not isinstance(run.commuting, BudgetExceededError):
            U = commuting_reference.second_center_columns(alg)
            cases.append((derivation_sets(alg), U, commuting_reference.commuting_derivations(alg, U)))
        for aset, U, X_basis in cases:
            ref = elimination_reference.invertible_points(alg, U, X_basis)
            assert np.array_equal(aset.member_array(), ref), (run.name, aset.kind)
            m, s, h = _heads(alg, U, X_basis)
            assert aset.size == h * p ** (m - s), (run.name, aset.kind)
            checked[aset.kind] += 1
    assert checked == {3: {"commuting": 10, "central": 18}, 5: {"commuting": 8, "central": 15}, 7: {"commuting": 8, "central": 15}}[p]


def test_invertible_points_one_dimensional_at_large_prime():
    # heisenberg(1, 1) over F_65521, D = t U X with U = e_z and X = (1, 2, 3):
    # X U = 3, so the one head is singular only at t = -1/3 and there is no tail
    p = 65521
    alg = heisenberg(1, 1, FieldSpec.prime(p))
    U = np.array([[0], [0], [1]], dtype=np.int64)
    X_basis = np.array([[[1, 2, 3]]], dtype=np.int64)
    aset = search._invertible_points(alg, "central", U, X_basis)
    assert np.array_equal(aset.member_array(), elimination_reference.invertible_points(alg, U, X_basis))
    assert _heads(alg, U, X_basis) == (1, 1, p - 1) and aset.size == p - 1
    singular = (np.eye(3, dtype=np.int64) + (-pow(3, -1, p) % p) * U @ X_basis[0]) % p
    assert not search._contains_rows(aset._keys, search._row_keys(singular[None], p)).any()


@pytest.mark.parametrize("p", (3, 5))
def test_central_of_perfect_algebra_is_the_identity(monkeypatch, p):
    # sl2: Z = 0 and L' = L, so k = m = 0; one empty head, no tail, one member
    calls = _recorded_invertible_points(monkeypatch)
    sl2 = LieAlgebra(FieldSpec.prime(p), 3, {(0, 1): ((1, 2),), (0, 2): ((2, -2),), (1, 2): ((0, 1),)})
    aset = enumerate_central(sl2)
    assert aset.member_array().tolist() == np.eye(3, dtype=np.int64)[None].tolist()
    ((_, U, X_basis),) = calls
    assert U.shape == (3, 0) and X_basis.shape == (0, 0, 3)
    assert _heads(sl2, U, X_basis) == (0, 0, 1)


def test_central_of_abelian_plane_is_gl2(monkeypatch):
    # abelian(2): Z = L and L' = 0, so U = I_2 and the X_i are the four
    # matrix units: s = m = 4, every point is a head, 48 of 81 invertible
    calls = _recorded_invertible_points(monkeypatch)
    alg = abelian(2, FieldSpec.prime(3))
    aset = enumerate_central(alg)
    ((_, U, X_basis),) = calls
    assert _heads(alg, U, X_basis) == (4, 4, 48) and aset.size == 48 == search.gl_order(3, 2)
    assert np.array_equal(aset.member_array(), elimination_reference.invertible_points(alg, U, X_basis))


@pytest.mark.parametrize("p", (3, 5))
def test_filiform_points_are_all_members(monkeypatch, p):
    # on the filiforms X U = 0 for every point of W and of W_c: s = 0, the
    # one head is I_k, and all p^m points are members
    calls = _recorded_invertible_points(monkeypatch)
    checked = 0
    for entry in default_catalog(FieldSpec.prime(p)):
        if not entry.name.startswith("filiform_") or "plus" in entry.name:
            continue
        for enumerate_set in (commuting_reference.derivation_path, enumerate_central):
            calls.clear()
            aset = enumerate_set(entry.algebra)
            ((_, U, X_basis),) = calls
            m, s, h = _heads(entry.algebra, U, X_basis)
            assert (s, h) == (0, 1) and aset.size == p**m, (entry.name, aset.kind)
            checked += 1
    assert checked == 10
