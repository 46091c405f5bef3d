import numpy as np
import pytest

from closure_reference import closure_scan
from linalg_helpers import identity_map
from coclass_lab import modp, search
from coclass_lab.constructions import (
    abelian,
    coclass2_indecomposable,
    default_catalog,
    dim5_example,
    dim6_center1,
    dim6_center3,
    filiform,
    heisenberg,
)
from coclass_lab.fields import FieldSpec
from coclass_lab.linalg import Matrix, add_vec, basis_vec, sub_vec
from coclass_lab.maps import LinearMap, commuting_defect, compose, inverse, is_commuting
from coclass_lab.search import (
    AbelianShortCircuit,
    AutomorphismSet,
    BudgetExceededError,
    closure_check,
    enumerate_aut_bruteforce,
    enumerate_central,
    enumerate_central_bruteforce,
    enumerate_commuting,
    enumerate_commuting_bruteforce,
    gl_order,
    sets_equal,
)

F3 = FieldSpec.prime(3)
Q = FieldSpec.rational()


@pytest.fixture(scope="module")
def sets():
    cache = {}

    def get(name, maker, enumerator=enumerate_commuting):
        key = (name, enumerator.__name__)
        if key not in cache:
            cache[key] = enumerator(maker())
        return cache[key]

    return get


def map_key(f: LinearMap) -> tuple:
    """The map's entries in row-major order: the canonical sort key for member lists."""
    return tuple(x for row in f.matrix.rows for x in row)


def hand_built(algebra, maps) -> AutomorphismSet:
    """A commuting set holding the given maps, sorted into its canonical array."""
    keys = sorted({map_key(m) for m in maps})
    arr = np.array(keys, dtype=np.int64).reshape(len(keys), algebra.dim, algebra.dim)
    arr.flags.writeable = False
    return AutomorphismSet(algebra, "commuting", arr)


def member_set(aset) -> frozenset:
    """The set's members as row-major entry tuples, read from its array."""
    n = aset.algebra.dim
    return frozenset(map(tuple, aset.member_array().reshape(aset.size, n * n).tolist()))


def members(aset) -> list:
    """The set's members as LinearMaps, in canonical order."""
    field = aset.algebra.field
    return [LinearMap(Matrix(field, tuple(map(tuple, m)))) for m in aset.member_array().tolist()]


def contains(aset, f) -> bool:
    """Whether f is a member, looked up in the set's own sorted keys."""
    return not hand_built(aset.algebra, [f]).outside(aset)[0]


# -- commuting enumeration ------------------------------------------------------


def test_filiform4_members_are_central_shifts(sets):
    L = filiform(4, F3)
    aset = sets("filiform4", lambda: L)
    center = L.center()
    for f in members(aset):
        for i in range(4):
            d = sub_vec(F3, f.image_of_basis(i), basis_vec(F3, 4, i))
            assert center.contains(d)


def test_dim5_contains_published_pair(sets):
    L = dim5_example(F3)
    aset = sets("dim5", lambda: L)
    beta1 = LinearMap.from_image_map(L, {0: [(2, 1)], 1: [(3, 1)], 2: [(0, 1)], 3: [(1, 1)]})
    beta2 = LinearMap.from_image_map(L, {0: [(0, 1), (3, 1)], 2: [(1, -1), (2, -1)], 3: [(3, -1)]})
    assert contains(aset, beta1)
    assert contains(aset, beta2)


def test_membership_queries_reuse_the_cached_keys(sets, monkeypatch):
    L = dim5_example(F3)
    aset = sets("dim5", lambda: L)
    built = []
    original = search._row_keys
    monkeypatch.setattr(search, "_row_keys", lambda mats, p: built.append(len(mats)) or original(mats, p))
    queries = members(aset)[::97] + [
        LinearMap.from_image_map(L, {0: [(0, 2)]}),  # not an automorphism
        LinearMap.from_image_map(L, {0: [(1, 1)], 1: [(0, 1)]}),
    ]
    keys = member_set(aset)
    assert [contains(aset, f) for f in queries] == [map_key(f) in keys for f in queries]
    assert built == [1] * len(queries)  # each query keys its own row; the set's keys are cached


def test_member_keys_of_an_empty_set():
    L = heisenberg(1, 1, F3)
    assert AutomorphismSet(L, "commuting", np.zeros((0, 3, 3), dtype=np.int64)).member_keys() == frozenset()


@pytest.mark.parametrize("p,n", [(3, 6), (5, 6), (65521, 4)])
def test_row_keys_sort_like_linear_map_keys(p, n):
    # one packed word at (3, 6); two at (5, 6); six at (65521, 4)
    rng = np.random.default_rng(p)
    mats = rng.integers(0, p, size=(400, n, n), dtype=np.int64)
    mats[:, : n - 1] = mats[rng.integers(0, 3, size=400), : n - 1]  # long shared prefixes
    mats[:50] = mats[50:100]
    mats[0] = p - 1
    keys = search._row_keys(mats, p)
    if (p, n) == (3, 6):  # one word is the key itself, a native int64
        assert keys.dtype == np.int64
    else:
        assert keys.dtype.kind == "V" and keys.dtype.itemsize == 8 * {5: 2, 65521: 6}[p]
    order = np.argsort(keys, kind="stable")
    assert [tuple(m.ravel().tolist()) for m in mats[order]] == sorted(tuple(m.ravel().tolist()) for m in mats)
    same = keys[:, None] == keys[None, :]
    assert (same == (mats[:, None] == mats[None, :]).all(axis=(2, 3))).all()


@pytest.mark.parametrize("p,n", [(3, 6), (5, 6), (65521, 4)])
def test_sets_equal_and_outside_at_every_key_width(p, n):
    # the same three word counts as above: membership through int64 and void keys
    rng = np.random.default_rng(p + 1)
    mats = rng.integers(0, p, size=(300, n, n), dtype=np.int64)
    mats[:, : n - 1] = mats[rng.integers(0, 3, size=300), : n - 1]  # long shared prefixes
    L = abelian(n, FieldSpec.prime(p))

    def built(rows):
        unique = sorted({tuple(m.ravel().tolist()) for m in rows})
        arr = np.array(unique, dtype=np.int64).reshape(len(unique), n, n)
        arr.flags.writeable = False
        return AutomorphismSet(L, "commuting", arr)

    a, b = built(mats[:200]), built(mats[100:])
    in_b = {tuple(m.ravel().tolist()) for m in b.member_array()}
    in_a = {tuple(m.ravel().tolist()) for m in a.member_array()}
    expected_a = [tuple(m.ravel().tolist()) not in in_b for m in a.member_array()]
    expected_b = [tuple(m.ravel().tolist()) not in in_a for m in b.member_array()]
    assert a.outside(b).tolist() == expected_a and b.outside(a).tolist() == expected_b
    report = sets_equal(a, b)
    assert not report.equal and len(report.only_in_a) == len(report.only_in_b) == 5
    assert report.only_in_a == tuple(np.flatnonzero(expected_a)[:5].tolist())
    assert report.only_in_b == tuple(np.flatnonzero(expected_b)[:5].tolist())
    assert sets_equal(a, built(mats[:200])).equal


def test_dim5_cardinality_regression(sets):
    # regression value established by this enumeration (oracle-validated at dim <= 3)
    assert sets("dim5", lambda: dim5_example(F3)).size == 13284


def test_enumeration_contains_identity_and_inverses(sets):
    L = heisenberg(1, 2, F3)
    aset = sets("h12", lambda: L)
    assert contains(aset, identity_map(L))
    for f in members(aset)[::25]:
        assert contains(aset, LinearMap(inverse(f).matrix))


def test_enumeration_members_verified_commuting(sets):
    L = heisenberg(1, 2, F3)
    aset = sets("h12", lambda: L)
    assert aset.size == 972
    for f in members(aset)[::40]:
        assert is_commuting(L, f)


def test_abelian_short_circuit():
    with pytest.raises(AbelianShortCircuit) as err:
        enumerate_commuting(abelian(3, F3))
    assert err.value.aut_order == 11232


def test_budget_error_reports_projection():
    with pytest.raises(BudgetExceededError) as err:
        enumerate_commuting(heisenberg(2, 2, F3), budget=100_000)
    assert err.value.projected > 100_000
    assert "width" in str(err.value)


def test_non_prime_field_rejected():
    with pytest.raises(ValueError):
        enumerate_commuting(filiform(4, Q))
    with pytest.raises(ValueError):
        enumerate_central(filiform(4, Q))


def test_enumeration_deterministic(sets):
    L = coclass2_indecomposable(F3)
    a = enumerate_commuting(L)
    b = enumerate_commuting(L)
    assert [map_key(m) for m in members(a)] == [map_key(m) for m in members(b)]


# -- central enumeration -----------------------------------------------------------


def test_central_abelian2_is_gl():
    aset = enumerate_central(abelian(2, F3))
    assert aset.size == 48 == gl_order(3, 2)
    brute = enumerate_aut_bruteforce(abelian(2, F3))
    assert sets_equal(aset, brute).equal


def test_central_filiform4_all_nine_invertible():
    aset = enumerate_central(filiform(4, F3))
    assert aset.size == 9  # 3^(dim L/L' * dim Z) maps, all unipotent
    ident = identity_map(filiform(4, F3))
    assert contains(aset, ident)


def test_central_members_fix_everything_mod_center(sets):
    L = heisenberg(2, 1, F3)
    aset = enumerate_central(L)
    assert aset.size == 81
    center = L.center()
    for f in members(aset):
        for i in range(L.dim):
            d = sub_vec(F3, f.image_of_basis(i), basis_vec(F3, 5, i))
            assert center.contains(d)


# -- brute-force oracle equivalence ---------------------------------------------------


def test_oracle_equivalence_heisenberg11(sets):
    L = heisenberg(1, 1, F3)
    fast = sets("h11", lambda: L)
    brute = enumerate_commuting_bruteforce(L)
    assert sets_equal(fast, brute).equal
    fast_central = enumerate_central(L)
    brute_central = enumerate_central_bruteforce(L)
    assert sets_equal(fast_central, brute_central).equal
    assert fast.size == 18 and fast_central.size == 9


def test_coclass1_gap_at_dimension_3(sets):
    # diag(2,2,1) commutes but is not central: the sharp coclass-1 equality
    # fails in dimension 3, and the brute-force oracle agrees
    L = heisenberg(1, 1, F3)
    fast = sets("h11", lambda: L)
    scale = LinearMap.from_image_map(L, {0: [(0, 2)], 1: [(1, 2)]})
    assert contains(fast, scale)
    assert not sets_equal(fast, enumerate_central(L)).equal


def test_gl2_order_by_bruteforce():
    assert enumerate_aut_bruteforce(abelian(2, F3)).size == 48  # (9-1)(9-3)


def test_bruteforce_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_aut_bruteforce(abelian(4, F3))  # 3^16 matrices


@pytest.mark.parametrize(
    "oracle", [enumerate_aut_bruteforce, enumerate_commuting_bruteforce, enumerate_central_bruteforce]
)
def test_bruteforce_reads_limit_at_call_time(monkeypatch, oracle):
    # 3^4 = 81 matrices: refused under a limit of 80, enumerated at 81
    L = abelian(2, F3)
    monkeypatch.setattr(search, "BRUTE_FORCE_LIMIT", 80)
    with pytest.raises(BudgetExceededError) as err:
        oracle(L)
    assert (err.value.budget, err.value.projected) == (80, 81)
    monkeypatch.setattr(search, "BRUTE_FORCE_LIMIT", 81)
    assert oracle(L).size == 48


@pytest.mark.parametrize("p", (3, 5, 7))
def test_one_bruteforce_filter_serves_every_kind(p, monkeypatch):
    # the automorphisms among all p^(n^2) matrices are found once and each kind
    # masks them; the sets equal the per-kind oracles', refusals included
    kinds = ("full", "commuting", "central")
    oracles = (enumerate_aut_bruteforce, enumerate_commuting_bruteforce, enumerate_central_bruteforce)
    filtered = []
    real = modp.batch_invertible
    monkeypatch.setattr(modp, "batch_invertible", lambda mats, q: filtered.append(len(mats)) or real(mats, q))
    entries = [e for e in default_catalog(FieldSpec.prime(p)) if e.algebra.dim <= 3]
    assert entries
    for entry in entries:
        alg = entry.algebra
        count = p ** (alg.dim**2)
        if count > search.BRUTE_FORCE_LIMIT:
            for call in [lambda: search._bruteforce(alg, kinds)] + [lambda f=f: f(alg) for f in oracles]:
                with pytest.raises(BudgetExceededError) as err:
                    call()
                assert (err.value.budget, err.value.projected) == (search.BRUTE_FORCE_LIMIT, count)
            continue
        filtered.clear()
        together = search._bruteforce(alg, kinds)
        assert filtered == [count], entry.name
        for aset, kind, oracle in zip(together, kinds, oracles):
            alone = oracle(alg)
            assert aset.kind == alone.kind == kind
            assert np.array_equal(aset.member_array(), alone.member_array()), (entry.name, kind)
            assert np.array_equal(aset._inverse, alone._inverse), (entry.name, kind)
            assert np.array_equal(aset._moves, alone._moves), (entry.name, kind)


# -- closure ------------------------------------------------------------------------


def test_singleton_identity_closed():
    L = filiform(4, F3)
    aset = hand_built(L, [identity_map(L)])
    verdict = closure_check(aset)
    assert verdict.closed and verdict.witness is None and verdict.pair_count == 1


def test_filiform_closed(sets):
    for name, n in (("filiform4", 4), ("filiform6", 6)):
        aset = sets(name, lambda n=n: filiform(n, F3))
        assert closure_check(aset).closed


def test_dim5_not_closed_with_replayable_witness(sets):
    aset = sets("dim5", lambda: dim5_example(F3))
    verdict = closure_check(aset)
    assert not verdict.closed
    w = verdict.witness
    L = aset.algebra
    # the witness is replayable through the maps module alone
    assert is_commuting(L, w.f) and is_commuting(L, w.g)
    comp = compose(w.g, w.f)
    defect = commuting_defect(L, comp)
    assert not defect.clean
    assert L.bracket(comp.apply(w.vector), w.vector) == w.residual
    assert any(w.residual)


def test_closure_kind_guard():
    central = enumerate_central(filiform(4, F3))
    with pytest.raises(ValueError):
        closure_check(central)


def test_span_and_pairs_methods_agree(sets):
    h11 = sets("h11", lambda: heisenberg(1, 1, F3))
    dim5 = sets("dim5", lambda: dim5_example(F3))
    # a hand-built prefix of the dim-5 set that holds its first failing pair;
    # I, at index 3,888 of the set, sorts after it and fails no pair
    prefix = hand_built(dim5.algebra, members(dim5)[:120] + [identity_map(dim5.algebra)])
    for aset, closed in ((h11, True), (prefix, False)):
        span = closure_check(aset)
        pairs = closure_scan(aset)
        assert span.method == "span" and pairs.method == "pairs"
        assert span.closed == pairs.closed == closed
        if not closed:
            assert span.witness.f_index == pairs.witness.f_index
            assert span.witness.g_index == pairs.witness.g_index
            assert span.witness.vector == pairs.witness.vector


def test_closure_of_empty_hand_built_set():
    # the span basis is made from I and the displacements, so a set without I is refused
    with pytest.raises(ValueError, match="identity"):
        closure_check(hand_built(heisenberg(1, 1, F3), []))


def test_dim6_center1_open_case_not_closed(sets):
    # the coclass-3 dim-6 shape outside every sufficient condition really
    # can fail closure; recorded as a regression data point
    aset = sets("dim6c1", lambda: dim6_center1(F3))
    assert aset.size == 810
    verdict = closure_check(aset)
    assert not verdict.closed


def test_closure_witness_deterministic(sets):
    aset = sets("dim5", lambda: dim5_example(F3))
    v1 = closure_check(aset)
    v2 = closure_check(aset)
    assert v1.witness.f_index == v2.witness.f_index
    assert v1.witness.g_index == v2.witness.g_index
    assert v1.pair_count == v2.pair_count


# -- set equality -----------------------------------------------------------------


def test_sets_equal_reflexive(sets):
    aset = sets("filiform5", lambda: filiform(5, F3))
    report = sets_equal(aset, aset)
    assert report.equal and not report.only_in_a and not report.only_in_b


def test_filiform_commuting_equals_central(sets):
    for n in (4, 5):
        L = filiform(n, F3)
        aset = sets(f"filiform{n}", lambda L=L: L)
        assert sets_equal(aset, enumerate_central(L)).equal


def test_dim5_commuting_strictly_larger(sets):
    L = dim5_example(F3)
    aset = sets("dim5", lambda: L)
    central = enumerate_central(L)
    report = sets_equal(aset, central)
    assert not report.equal
    assert report.only_in_a and not report.only_in_b
    beta1_key = map_key(LinearMap.from_image_map(L, {0: [(2, 1)], 1: [(3, 1)], 2: [(0, 1)], 3: [(1, 1)]}))
    assert beta1_key in {map_key(m) for m in members(aset)}
    assert beta1_key not in {map_key(m) for m in members(central)}


def test_central_subset_of_commuting(sets):
    for name, maker in (
        ("h12", lambda: heisenberg(1, 2, F3)),
        ("dim6c3", lambda: dim6_center3(F3)),
    ):
        aset = sets(name, maker)
        central = enumerate_central(aset.algebra)
        assert member_set(central) <= member_set(aset)


def test_dim6_center3_commuting_equals_central(sets):
    aset = sets("dim6c3", lambda: dim6_center3(F3))
    assert aset.size == 13122
    central = enumerate_central(dim6_center3(F3))
    assert sets_equal(aset, central).equal


# -- field-independence and F5 quantified properties ---------------------------------


def test_abelian_second_center_closed_over_f5():
    from coclass_lab.constructions import direct_sum

    F5 = FieldSpec.prime(5)
    makers = [
        lambda: filiform(4, F5),
        lambda: filiform(6, F5),
        lambda: coclass2_indecomposable(F5),
        lambda: direct_sum(filiform(4, F5), abelian(1, F5)),
    ]
    for make in makers:
        L = make()
        assert L.subalgebra_class(L.second_center()) <= 1
        aset = enumerate_commuting(L)
        assert closure_check(aset).closed


def test_identity_suite_over_f5_members():
    from coclass_lab.maps import identity_suite_batch

    F5 = FieldSpec.prime(5)
    for make in (lambda: filiform(5, F5), lambda: heisenberg(1, 1, F5)):
        L = make()
        aset = enumerate_commuting(L)
        counts = identity_suite_batch(L, aset.member_array())
        assert sum(counts.values()) == 0


def test_composition_commuting_iff_symmetric_form_vanishes(sets):
    # [g f (x), x] = 0 for all x  <=>  [f(e_i), g(e_j)] + [f(e_j), g(e_i)] = 0
    # for all i <= j (both sides bilinearize the same quadratic form)
    L = heisenberg(1, 1, F3)
    aset = sets("h11", lambda: L)
    maps = members(aset)
    for f in maps[::3]:
        for g in maps[::4]:
            comp_ok = commuting_defect(L, compose(g, f)).clean
            form_ok = True
            for i in range(L.dim):
                fi = f.image_of_basis(i)
                gi = g.image_of_basis(i)
                if any(L.bracket(fi, gi)):
                    form_ok = False
                for j in range(i + 1, L.dim):
                    s = add_vec(
                        F3, L.bracket(fi, g.image_of_basis(j)), L.bracket(f.image_of_basis(j), gi)
                    )
                    if any(s):
                        form_ok = False
            assert comp_ok == form_ok


def test_inverse_closure_over_enumerated_set(sets):
    L = dim5_example(F3)
    aset = sets("dim5", lambda: L)
    keys = member_set(aset)
    for f in members(aset)[::500]:
        assert map_key(inverse(f)) in keys


def test_central_implies_commuting_over_enumerated_set(sets):
    from coclass_lab.maps import central_defect

    L = heisenberg(1, 2, F3)
    aset = sets("h12", lambda: L)
    central = enumerate_central(L)
    for f in members(central)[::40]:
        assert central_defect(L, f).clean
        assert contains(aset, f)


def test_membership_spot_check_random_dim4(sets):
    # beyond the dim-3 oracle: at dim 4, membership in the enumerated set
    # must coincide with the commuting-automorphism predicate pointwise
    import random

    from coclass_lab.linalg import Matrix

    L = heisenberg(1, 2, F3)
    aset = sets("h12", lambda: L)
    keys = member_set(aset)
    rng = random.Random(7)
    for _ in range(300):
        mat = Matrix(F3, tuple(tuple(rng.randrange(3) for _ in range(4)) for _ in range(4)))
        f = LinearMap(mat)
        assert (map_key(f) in keys) == is_commuting(L, f)
    for f in members(aset)[::97]:
        rows = [list(r) for r in f.matrix.rows]
        rows[0][0] = (rows[0][0] + 1) % 3
        g = LinearMap(Matrix(F3, tuple(tuple(r) for r in rows)))
        assert (map_key(g) in keys) == is_commuting(L, g)


# -- array canonicalisation and the extension filter ----------------------------------


def test_members_sorted_by_key_and_array_cached(sets):
    aset = sets("h12", lambda: heisenberg(1, 2, F3))
    keys = [map_key(m) for m in members(aset)]
    assert keys == sorted(set(keys))
    arr = aset.member_array()
    assert arr is aset.member_array()
    assert not arr.flags.writeable
    assert [tuple(row) for row in arr.reshape(len(arr), -1).tolist()] == keys


def test_members_in_array_order_after_verdicts():
    aset = enumerate_commuting(heisenberg(1, 2, F3))
    central = enumerate_central(aset.algebra)
    closure_check(aset)
    sets_equal(aset, central)
    keys = member_set(aset)
    assert aset.size == 972 and aset.outside(central).sum() == 972 - central.size
    rows = aset.member_array().reshape(aset.size, -1).tolist()
    assert [list(map_key(m)) for m in members(aset)] == rows
    assert keys == {map_key(m) for m in members(aset)}


def test_set_equality_compares_members():
    h12 = enumerate_commuting(heisenberg(1, 2, F3))
    again = hand_built(h12.algebra, reversed(members(enumerate_commuting(h12.algebra))))
    assert again == h12 and members(again) == members(h12)
    assert hand_built(h12.algebra, members(h12)[1:]) != h12


@pytest.mark.parametrize(
    "name, maker, f_index, g_index, vector",
    [("dim5", lambda: dim5_example(F3), 0, 81, (1, 0, 0, 0, 0)),
     ("dim6c1", lambda: dim6_center1(F3), 81, 162, (1, 0, 0, 0, 1, 0))],
)
def test_witness_and_equality_examples_are_members(sets, name, maker, f_index, g_index, vector):
    aset = sets(name, maker)
    central = sets(name, maker, enumerate_central)
    w = closure_check(aset).witness
    assert (w.f_index, w.g_index, w.vector) == (f_index, g_index, vector)
    maps = members(aset)
    assert (w.f, w.g) == (maps[f_index], maps[g_index])
    outside = [i for i, m in enumerate(maps) if not contains(central, m)]
    report = sets_equal(aset, central)
    assert report.only_in_a == tuple(outside[:5]) and report.only_in_b == ()
    assert sets_equal(central, aset).only_in_b == tuple(outside[:5])


def test_equality_examples_are_first_five_member_indices(sets):
    commuting = sets("h12", lambda: heisenberg(1, 2, F3))
    central = enumerate_central(commuting.algebra)
    for a, b in ((commuting, central), (central, commuting)):
        rows_a, rows_b = a.member_array().tolist(), b.member_array().tolist()
        missing_a = [i for i, row in enumerate(rows_a) if row not in rows_b]
        missing_b = [i for i, row in enumerate(rows_b) if row not in rows_a]
        report = sets_equal(a, b)
        assert (report.only_in_a, report.only_in_b) == (tuple(missing_a[:5]), tuple(missing_b[:5]))
    assert sets_equal(commuting, central).only_in_a  # 486 members are not central


def test_finish_set_sorts_rejects_repeats_and_checks_inverses():
    from coclass_lab.search import _finish_set

    p = 65521
    L = heisenberg(1, 1, FieldSpec.prime(p))
    a = p - 2
    a_inv = pow(a, -1, p)
    group = [np.diag(d) for d in ([1, 1, 1], [a, a, a * a % p], [a_inv, a_inv, a_inv * a_inv % p])]
    shuffled = np.array(group[::-1], dtype=np.int64)
    aset = _finish_set(L, "commuting", shuffled)
    keys = [map_key(m) for m in members(aset)]
    assert keys == sorted(tuple(int(x) for x in g.ravel()) for g in group) != [tuple(g.ravel()) for g in shuffled]
    with pytest.raises(AssertionError, match="commuting enumeration listed a member twice"):
        _finish_set(L, "commuting", np.array(group[::-1] + group, dtype=np.int64))
    with pytest.raises(AssertionError, match="inverse"):
        _finish_set(L, "commuting", np.array(group[:2], dtype=np.int64))
    with pytest.raises(AssertionError, match="identity"):
        _finish_set(L, "commuting", np.array(group[1:], dtype=np.int64))


def test_finish_set_rejects_a_repeat_across_blocks():
    from coclass_lab.search import _finish_set

    L = heisenberg(1, 1, F3)
    central = enumerate_central(L).member_array()
    _finish_set(L, "central", [central[:4], central[4:]])
    with pytest.raises(AssertionError, match="central enumeration listed a member twice"):
        _finish_set(L, "central", [central[:5], central[4:]])


@pytest.mark.parametrize(
    "maker,classes",
    [(lambda: heisenberg(1, 2, F3), 2), (lambda: filiform(5, F3), 1)],
    ids=["heisenberg_1_2", "filiform_5"],
)
def test_a_class_listed_twice_is_an_error(monkeypatch, maker, classes):
    # the products r ∘ c are distinct only for distinct classes: listing one
    # class twice must fail, also where the one class would give S = Aut_c
    alg = maker()
    real = search._class_representatives
    assert len(real(alg, *search._assignment_space(alg, search.DEFAULT_BUDGET))) == classes

    def first_class_twice(*args):
        reps = real(*args)
        return np.concatenate([reps, reps[:1]])

    monkeypatch.setattr(search, "_class_representatives", first_class_twice)
    with pytest.raises(AssertionError, match="commuting enumeration listed a member twice"):
        enumerate_commuting(alg)


def test_hand_built_set_must_be_canonical():
    L = heisenberg(1, 1, F3)
    central = enumerate_central(L)
    arr = central.member_array()
    with pytest.raises(ValueError, match="sorted"):
        AutomorphismSet(L, "central", arr[::-1].copy())
    with pytest.raises(ValueError, match="without repeats"):
        AutomorphismSet(L, "central", np.concatenate([arr[:1], arr]))
    out_of_range = arr.copy()
    out_of_range[-1, 0, 0] += 3  # the same map mod 3, still in sorted order
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        AutomorphismSet(L, "central", out_of_range)
    assert sets_equal(AutomorphismSet(L, "central", arr.copy()), central).equal
    # a set is over F_p: over Q even a canonical array of distinct maps is refused first
    LQ = heisenberg(1, 1, Q)
    for maps in ([np.diag([2, 2, 1])], [np.eye(3, dtype=np.int64), np.diag([2, 2, 1])]):
        with pytest.raises(ValueError, match="prime"):
            AutomorphismSet(LQ, "commuting", _canonical(maps))
    # a set handed its keys, as _finish_set and dataclasses.replace hand them, is not checked again
    AutomorphismSet(L, "central", arr[::-1].copy(), central._keys)


def test_enumeration_peaks_below_two_and_a_half_member_arrays():
    # the canonical array is filled straight from the kept blocks, so the
    # blocks and that array are the only member copies alive at once
    import tracemalloc

    from coclass_lab.constructions import default_catalog

    F7 = FieldSpec.prime(7)
    alg = next(e.algebra for e in default_catalog(F7) if e.name == "filiform_5_plus_abelian_1")
    alg.second_center(), alg.derived()  # series caches, outside the measurement
    tracemalloc.start()
    try:
        aset = enumerate_commuting(alg, budget=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert aset.size == 100_842
    assert peak < 2.5 * aset.member_array().nbytes


def _canonical(mats) -> np.ndarray:
    """(B, n, n) array of the matrices, sorted in row-major entry order."""
    return np.array(sorted(np.asarray(m).tolist() for m in mats), dtype=np.int64)


def _diagonals(p: int, entries) -> list:
    return [np.diag(d) % p for d in entries]


# heisenberg(1, 1) over F7: the cyclic group a -> diag(a, a, a^2) of order 6,
# in canonical order by a; 2 and 4 are inverse, so are 3 and 5
P7 = 7
CYCLIC = [(a, a, a * a % P7) for a in range(1, P7)]


def test_finish_set_inverts_one_member_of_each_inverse_pair(monkeypatch):
    L = heisenberg(1, 1, FieldSpec.prime(P7))
    inverted = []
    real = modp.batch_inverse

    def counted(mats, q):
        inverted.append(len(mats))
        return real(mats, q)

    monkeypatch.setattr(modp, "batch_inverse", counted)
    # block 1 or 2: the partners 4 and 5 of 2 and 3 are skipped; a block of
    # 4 inverts 2, 3 and 4 together, then skips 5; one block inverts all
    for block, expected in ((1, 4), (2, 4), (4, 5), (search.INVERSE_BLOCK, 6)):
        monkeypatch.setattr(search, "INVERSE_BLOCK", block)
        inverted.clear()
        aset = search._finish_set(L, "commuting", _canonical(_diagonals(P7, CYCLIC)))
        assert aset.size == 6
        assert sum(inverted) == expected, block


@pytest.mark.parametrize("block", (1, 2, 3, 4, 2048))
def test_finish_set_still_rejects_broken_sets(monkeypatch, block):
    monkeypatch.setattr(search, "INVERSE_BLOCK", block)
    L = heisenberg(1, 1, FieldSpec.prime(P7))
    group = _diagonals(P7, CYCLIC)

    # a member whose inverse diag(6, 6, 4) is missing, last in canonical order
    arr = _canonical(group + _diagonals(P7, [(6, 6, 2)]))
    assert arr[-1].tolist() == np.diag([6, 6, 2]).tolist()
    with pytest.raises(AssertionError, match="inverse"):
        search._finish_set(L, "commuting", arr)

    # a singular member, also last
    singular = np.array([[6, 6, 0], [6, 6, 0], [0, 0, 1]])
    arr = _canonical(group + [singular])
    assert arr[-1].tolist() == singular.tolist()
    with pytest.raises(AssertionError, match="inverse"):
        search._finish_set(L, "commuting", arr)

    # the partner 5 of 3 is skipped; the member just after it, where a key
    # search for it lands, is diag(5, 5, 5), whose inverse diag(3, 3, 3) is
    # absent: it is no partner, so it must still be inverted
    arr = _canonical(group + _diagonals(P7, [(5, 5, 5)]))
    rows = [np.diag(m).tolist() for m in arr]
    assert rows.index([5, 5, 5]) == rows.index([5, 5, 4]) + 1
    with pytest.raises(AssertionError, match="inverse"):
        search._finish_set(L, "commuting", arr)


@pytest.mark.parametrize(
    "maker, target",
    (
        (lambda: heisenberg(1, 2, F3), "first"),
        (lambda: heisenberg(1, 2, F3), "last"),
        (lambda: dim6_center3(F3), "after_block"),
    ),
    ids=("first", "last", "after_block"),
)
def test_finish_set_rejects_one_wrong_supplied_inverse(maker, target):
    # the supplied candidates are proven, not trusted: one member's candidate
    # is replaced by another member, which passes the key search but not f g = I
    alg = maker()
    p = alg.field.p
    arr = enumerate_central(alg).member_array()
    asked = []

    def recorded(members, sources):
        assert np.array_equal(members, arr[sources])  # the input is canonical, so sources are indices
        asked.extend(sources.tolist())
        return modp.batch_inverse(members, p)[0]

    assert search._finish_set(alg, "central", arr.copy(), recorded) == enumerate_central(alg)
    after_block = min(i for i in asked if i >= search.INVERSE_BLOCK) if len(arr) > search.INVERSE_BLOCK else None
    index = {"first": 0, "last": len(arr) - 1, "after_block": after_block}[target]
    assert index in asked  # one block holds all 486 members, so the last is asked too

    def wrong(members, sources):
        candidates = modp.batch_inverse(members, p)[0]
        hit = sources == index
        other = arr[1] if (candidates[hit] == arr[0]).all() else arr[0]
        candidates[hit] = other
        return candidates

    with pytest.raises(AssertionError, match="inverse"):
        search._finish_set(alg, "central", arr.copy(), wrong)


@pytest.mark.parametrize("p", (3, 251, 4093, 65521))
def test_filter_keeps_scalar_member_at_every_prime(p):
    # the bracket step once scaled an unreduced contraction, which
    # overflowed int64 near p = 2^16 and silently dropped this member
    from coclass_lab.linalg import Matrix
    from coclass_lab.search import _filter_assignments

    field = FieldSpec.prime(p)
    L = heisenberg(1, 1, field)
    a = p - 2
    T = modp.structure_tensor(L)
    kept = _filter_assignments(L, L.generator_presentation(), T, [((a, 0, 0), (0, a, 0))])
    assert kept.tolist() == [[[a, 0, 0], [0, a, 0], [0, 0, a * a % p]]]
    f = LinearMap(Matrix(field, tuple(tuple(row) for row in kept[0].tolist())))
    assert is_commuting(L, f)
