import numpy as np
import pytest

from coclass_lab import search
from coclass_lab.constructions import (
    abelian,
    coclass2_indecomposable,
    dim5_example,
    dim6_center1,
    dim6_center3,
    filiform,
    heisenberg,
)
from coclass_lab.fields import FieldSpec
from coclass_lab.linalg import basis_vec
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


def hand_built(algebra, maps) -> AutomorphismSet:
    """A commuting set holding the given maps, sorted into its canonical array."""
    keys = sorted({m.key() for m in maps})
    arr = np.array(keys, dtype=np.int64).reshape(len(keys), algebra.dim, algebra.dim)
    arr.flags.writeable = False
    return AutomorphismSet(algebra, "commuting", arr)


# -- commuting enumeration ------------------------------------------------------


def test_filiform4_members_are_central_shifts(sets):
    L = filiform(4, F3)
    aset = sets("filiform4", lambda: L)
    center = L.center()
    for f in aset.members:
        for i in range(4):
            d = tuple(
                F3.sub(a, b) for a, b in zip(f.image_of_basis(i), basis_vec(F3, 4, i))
            )
            assert center.contains(d)


def test_dim5_contains_published_pair(sets):
    L = dim5_example(F3)
    aset = sets("dim5", lambda: L)
    beta1 = LinearMap.from_image_map(L, {0: [(2, 1)], 1: [(3, 1)], 2: [(0, 1)], 3: [(1, 1)]})
    beta2 = LinearMap.from_image_map(L, {0: [(0, 1), (3, 1)], 2: [(1, -1), (2, -1)], 3: [(3, -1)]})
    assert beta1 in aset
    assert beta2 in aset


def test_membership_queries_reuse_the_cached_keys(sets, monkeypatch):
    L = dim5_example(F3)
    aset = sets("dim5", lambda: L)
    built = []
    original = search._row_keys
    monkeypatch.setattr(search, "_row_keys", lambda mats, p: built.append(len(mats)) or original(mats, p))
    queries = list(aset.members[::97]) + [
        LinearMap.from_image_map(L, {0: [(0, 2)]}),  # not an automorphism
        LinearMap.from_image_map(L, {0: [(1, 1)], 1: [(0, 1)]}),
    ]
    keys = aset.member_keys()
    assert [f in aset for f in queries] == [f.key() in keys for f in queries]
    assert built == [1] * len(queries)  # each query keys its own row; the set's keys are cached


@pytest.mark.parametrize("p,n", [(3, 6), (5, 6), (65521, 4)])
def test_row_keys_sort_like_linear_map_keys(p, n):
    # one packed word at (3, 6); two at (5, 6); six at (65521, 4)
    rng = np.random.default_rng(p)
    mats = rng.integers(0, p, size=(400, n, n), dtype=np.int64)
    mats[:, : n - 1] = mats[rng.integers(0, 3, size=400), : n - 1]  # long shared prefixes
    mats[:50] = mats[50:100]
    mats[0] = p - 1
    keys = search._row_keys(mats, p)
    order = np.argsort(keys, kind="stable")
    assert [tuple(m.ravel().tolist()) for m in mats[order]] == sorted(tuple(m.ravel().tolist()) for m in mats)
    same = keys[:, None] == keys[None, :]
    assert (same == (mats[:, None] == mats[None, :]).all(axis=(2, 3))).all()


def test_dim5_cardinality_regression(sets):
    # regression value established by this enumeration (oracle-validated at dim <= 3)
    assert sets("dim5", lambda: dim5_example(F3)).size == 13284


def test_enumeration_contains_identity_and_inverses(sets):
    L = heisenberg(1, 2, F3)
    aset = sets("h12", lambda: L)
    assert LinearMap.identity(L) in aset
    for f in aset.members[::25]:
        assert LinearMap(inverse(f).matrix) in aset


def test_enumeration_members_verified_commuting(sets):
    L = heisenberg(1, 2, F3)
    aset = sets("h12", lambda: L)
    assert aset.size == 972
    for f in aset.members[::40]:
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
    assert [m.key() for m in a.members] == [m.key() for m in b.members]


# -- central enumeration -----------------------------------------------------------


def test_central_abelian2_is_gl():
    aset = enumerate_central(abelian(2, F3))
    assert aset.size == 48 == gl_order(3, 2)
    brute = enumerate_aut_bruteforce(abelian(2, F3))
    assert sets_equal(aset, brute).equal


def test_central_filiform4_all_nine_invertible():
    aset = enumerate_central(filiform(4, F3))
    assert aset.size == 9  # 3^(dim L/L' * dim Z) maps, all unipotent
    ident = LinearMap.identity(filiform(4, F3))
    assert ident in aset


def test_central_members_fix_everything_mod_center(sets):
    L = heisenberg(2, 1, F3)
    aset = enumerate_central(L)
    assert aset.size == 81
    center = L.center()
    for f in aset.members:
        for i in range(L.dim):
            d = tuple(F3.sub(a, b) for a, b in zip(f.image_of_basis(i), basis_vec(F3, 5, i)))
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
    assert scale in fast
    assert not sets_equal(fast, enumerate_central(L)).equal


def test_gl2_order_by_bruteforce():
    assert enumerate_aut_bruteforce(abelian(2, F3)).size == 48  # (9-1)(9-3)


def test_bruteforce_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_aut_bruteforce(abelian(4, F3))  # 3^16 matrices


# -- closure ------------------------------------------------------------------------


def test_singleton_identity_closed():
    L = filiform(4, F3)
    aset = hand_built(L, [LinearMap.identity(L)])
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


def test_closure_needs_prime_field():
    L = filiform(4, Q)
    with pytest.raises(ValueError, match="prime"):
        closure_check(hand_built(L, [LinearMap.identity(L)]))


def test_closure_kind_guard():
    central = enumerate_central(filiform(4, F3))
    with pytest.raises(ValueError):
        closure_check(central)


def test_span_and_pairs_methods_agree(sets):
    h11 = sets("h11", lambda: heisenberg(1, 1, F3))
    dim5 = sets("dim5", lambda: dim5_example(F3))
    # a hand-built prefix of the dim-5 set that holds its first failing pair
    prefix = hand_built(dim5.algebra, dim5.members[:120])
    for aset, closed in ((h11, True), (prefix, False)):
        span = closure_check(aset)
        pairs = closure_check(aset, exhaustive=True)
        assert span.method == "span" and pairs.method == "pairs"
        assert span.closed == pairs.closed == closed
        if not closed:
            assert span.witness.f_index == pairs.witness.f_index
            assert span.witness.g_index == pairs.witness.g_index
            assert span.witness.vector == pairs.witness.vector


def test_exhaustive_flag_counts_all_pairs(sets):
    h11 = sets("h11", lambda: heisenberg(1, 1, F3))
    verdict = closure_check(h11, exhaustive=True)
    assert verdict.pair_count == h11.size**2


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
    beta1_key = LinearMap.from_image_map(
        L, {0: [(2, 1)], 1: [(3, 1)], 2: [(0, 1)], 3: [(1, 1)]}
    ).key()
    assert beta1_key in {m.key() for m in aset.members}
    assert beta1_key not in {m.key() for m in central.members}


def test_central_subset_of_commuting(sets):
    for name, maker in (
        ("h12", lambda: heisenberg(1, 2, F3)),
        ("dim6c3", lambda: dim6_center3(F3)),
    ):
        aset = sets(name, maker)
        central = enumerate_central(aset.algebra)
        assert central.member_keys() <= aset.member_keys()


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
        assert L.is_abelian_subspace(L.second_center())
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
    members = aset.members
    for f in members[::3]:
        for g in members[::4]:
            comp_ok = commuting_defect(L, compose(g, f)).clean
            form_ok = True
            for i in range(L.dim):
                fi = f.image_of_basis(i)
                gi = g.image_of_basis(i)
                if any(L.bracket(fi, gi)):
                    form_ok = False
                for j in range(i + 1, L.dim):
                    s = tuple(
                        F3.add(a, b)
                        for a, b in zip(
                            L.bracket(fi, g.image_of_basis(j)),
                            L.bracket(f.image_of_basis(j), gi),
                        )
                    )
                    if any(s):
                        form_ok = False
            assert comp_ok == form_ok


def test_inverse_closure_over_enumerated_set(sets):
    L = dim5_example(F3)
    aset = sets("dim5", lambda: L)
    keys = aset.member_keys()
    for f in aset.members[::500]:
        assert LinearMap(inverse(f).matrix).key() in keys


def test_central_implies_commuting_over_enumerated_set(sets):
    from coclass_lab.maps import central_defect

    L = heisenberg(1, 2, F3)
    aset = sets("h12", lambda: L)
    central = enumerate_central(L)
    for f in central.members[::40]:
        assert central_defect(L, f).clean
        assert f in aset


def test_membership_spot_check_random_dim4(sets):
    # beyond the dim-3 oracle: at dim 4, membership in the enumerated set
    # must coincide with the commuting-automorphism predicate pointwise
    import random

    from coclass_lab.linalg import Matrix

    L = heisenberg(1, 2, F3)
    aset = sets("h12", lambda: L)
    keys = aset.member_keys()
    rng = random.Random(7)
    for _ in range(300):
        mat = Matrix(F3, tuple(tuple(rng.randrange(3) for _ in range(4)) for _ in range(4)))
        f = LinearMap(mat)
        assert (f.key() in keys) == is_commuting(L, f)
    for f in aset.members[::97]:
        rows = [list(r) for r in f.matrix.rows]
        rows[0][0] = (rows[0][0] + 1) % 3
        g = LinearMap(Matrix(F3, tuple(tuple(r) for r in rows)))
        assert (g.key() in keys) == is_commuting(L, g)


# -- array canonicalisation and the extension filter ----------------------------------


def test_members_sorted_by_key_and_array_cached(sets):
    aset = sets("h12", lambda: heisenberg(1, 2, F3))
    keys = [m.key() for m in aset.members]
    assert keys == sorted(set(keys))
    arr = aset.member_array()
    assert arr is aset.member_array()
    assert not arr.flags.writeable
    assert [tuple(row) for row in arr.reshape(len(arr), -1).tolist()] == keys


def test_members_built_lazily_in_array_order():
    aset = enumerate_commuting(heisenberg(1, 2, F3))
    central = enumerate_central(aset.algebra)
    closure_check(aset)
    sets_equal(aset, central)
    keys = aset.member_keys()
    assert aset.size == 972 and aset.outside(central).sum() == 972 - central.size
    assert "members" not in vars(aset)  # no verdict above needed the LinearMaps
    members = aset.members
    assert members is aset.members
    rows = aset.member_array().reshape(aset.size, -1).tolist()
    assert [list(m.key()) for m in members] == rows
    assert keys == {m.key() for m in members}


def test_set_equality_compares_members():
    h12 = enumerate_commuting(heisenberg(1, 2, F3))
    again = hand_built(h12.algebra, reversed(enumerate_commuting(h12.algebra).members))
    assert again == h12 and again.members == h12.members
    assert hand_built(h12.algebra, h12.members[1:]) != h12


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
    assert (w.f, w.g) == (aset.members[f_index], aset.members[g_index])
    outside = [m for m in aset.members if m not in central]
    report = sets_equal(aset, central)
    assert report.only_in_a == tuple(outside[:5]) and report.only_in_b == ()
    assert sets_equal(central, aset).only_in_b == tuple(outside[:5])


def test_finish_set_sorts_dedups_and_checks_inverses():
    from coclass_lab.search import _finish_set

    p = 65521
    L = heisenberg(1, 1, FieldSpec.prime(p))
    a = p - 2
    a_inv = pow(a, -1, p)
    group = [np.diag(d) for d in ([1, 1, 1], [a, a, a * a % p], [a_inv, a_inv, a_inv * a_inv % p])]
    shuffled = np.array(group[::-1] + group, dtype=np.int64)
    aset = _finish_set(L, "commuting", shuffled)
    keys = [m.key() for m in aset.members]
    assert keys == sorted({tuple(int(x) for x in g.ravel()) for g in group})
    with pytest.raises(AssertionError, match="inverse"):
        _finish_set(L, "commuting", np.array(group[:2], dtype=np.int64))
    with pytest.raises(AssertionError, match="identity"):
        _finish_set(L, "commuting", np.array(group[1:], dtype=np.int64))


@pytest.mark.parametrize("p", (3, 251, 4093, 65521))
def test_filter_keeps_scalar_member_at_every_prime(p):
    # the bracket step once scaled an unreduced contraction, which
    # overflowed int64 near p = 2^16 and silently dropped this member
    from coclass_lab.linalg import Matrix
    from coclass_lab.search import _filter_assignments

    field = FieldSpec.prime(p)
    L = heisenberg(1, 1, field)
    a = p - 2
    kept = _filter_assignments(L, L.generator_presentation(), [((a, 0, 0), (0, a, 0))])
    assert kept.tolist() == [[[a, 0, 0], [0, a, 0], [0, 0, a * a % p]]]
    f = LinearMap(Matrix(field, tuple(tuple(row) for row in kept[0].tolist())))
    assert is_commuting(L, f)
