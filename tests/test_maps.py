import numpy as np
import pytest

from identity_reference import lemma_identity_suite
from linalg_helpers import identity_map, zero_matrix
from coclass_lab.constructions import dim5_example, filiform, heisenberg
from coclass_lab.fields import FieldSpec
from coclass_lab.linalg import Matrix, basis_vec, sub_vec
from coclass_lab.maps import (
    NOT_COMMUTING,
    NOT_HOMOMORPHISM,
    NOT_INVERTIBLE,
    LinearMap,
    commuting_defect,
    commuting_witness,
    compose,
    identity_suite_batch,
    inverse,
    is_automorphism,
    is_central,
    is_commuting,
    is_homomorphism,
)

F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
Q = FieldSpec.rational()


def members(aset) -> list:
    """The set's members as LinearMaps, in canonical order."""
    field = aset.algebra.field
    return [LinearMap(Matrix(field, tuple(map(tuple, m)))) for m in aset.member_array().tolist()]


def dim5_beta1(L):
    # swap the two symplectic pairs: x1 <-> x3, x2 <-> x4, fix x5
    return LinearMap.from_image_map(L, {0: [(2, 1)], 1: [(3, 1)], 2: [(0, 1)], 3: [(1, 1)]})


def dim5_beta2(L):
    return LinearMap.from_image_map(
        L, {0: [(0, 1), (3, 1)], 2: [(1, -1), (2, -1)], 3: [(3, -1)]}
    )


# -- homomorphism / automorphism -----------------------------------------------


def test_identity_is_clean_everything():
    L = heisenberg(2, 1, F3)
    ident = identity_map(L)
    assert is_homomorphism(L, ident).clean
    assert is_automorphism(L, ident).clean
    assert commuting_defect(L, ident).clean
    assert is_central(L, ident).clean


def test_scalar_double_not_homomorphism_over_f5():
    # f = 2*id sends [u1,u2] = z1 to 2 z1 but [2u1, 2u2] = 4 z1
    L = heisenberg(2, 1, F5)
    f = LinearMap(Matrix(F5, tuple(tuple(2 if i == j else 0 for j in range(5)) for i in range(5))))
    report = is_homomorphism(L, f)
    assert report.kind == NOT_HOMOMORPHISM
    assert ((0, 1), (0, 0, 0, 0, 3)) in report.witnesses  # 2z1 - 4z1 = -2z1 = 3z1


def test_dim5_beta1_clean_homomorphism():
    L = dim5_example(F3)
    assert is_homomorphism(L, dim5_beta1(L)).clean


def test_singular_map_not_invertible_with_kernel_witness():
    L = heisenberg(1, 1, F3)
    f = LinearMap(zero_matrix(F3, 3, 3))
    report = is_automorphism(L, f)
    assert report.kind == NOT_INVERTIBLE
    idx, kernel_vec = report.witnesses[0]
    assert idx == ()
    assert any(kernel_vec)
    assert f.apply(kernel_vec) == (0, 0, 0)


def test_dim5_beta2_is_automorphism():
    L = dim5_example(F3)
    assert is_automorphism(L, dim5_beta2(L)).clean


# -- commuting -------------------------------------------------------------------


def test_beta1_beta2_commuting():
    for field in (F3, F5, Q):
        L = dim5_example(field)
        assert is_commuting(L, dim5_beta1(L))
        assert is_commuting(L, dim5_beta2(L))


def test_composition_not_commuting_with_published_witness():
    L = dim5_example(F3)
    comp = compose(dim5_beta1(L), dim5_beta2(L))  # beta2 first
    # beta1 beta2 maps x1 to x2 + x3
    assert comp.image_of_basis(0) == (0, 1, 1, 0, 0)
    defect = commuting_defect(L, comp)
    assert defect.kind == NOT_COMMUTING
    x, residual = commuting_witness(L, comp)
    assert x == (1, 0, 0, 0, 0)
    # [x1, beta1 beta2 (x1)] = x5, i.e. [f(x1), x1] = -x5
    assert L.bracket(x, comp.apply(x)) == (0, 0, 0, 0, 1)
    assert residual == (0, 0, 0, 0, 2)
    assert commuting_witness(L, dim5_beta1(L)) is None


def test_is_commuting_requires_automorphism():
    # the zero map trivially satisfies [f(x), x] = 0 but is not an automorphism
    L = heisenberg(1, 1, F3)
    zero = LinearMap(zero_matrix(F3, 3, 3))
    assert commuting_defect(L, zero).clean
    assert not is_commuting(L, zero)


# -- central ----------------------------------------------------------------------


def test_center_shift_on_filiform_is_central():
    for n in (4, 6):
        L = filiform(n, F3)
        f = LinearMap.from_image_map(L, {1: [(1, 1), (n - 1, 1)]})  # v -> v + v_{n-2}
        assert is_automorphism(L, f).clean
        assert is_central(L, f).clean
        assert is_commuting(L, f)


def test_beta1_not_central():
    L = dim5_example(F3)
    report = is_central(L, dim5_beta1(L))
    assert report.kind == "not_central"
    assert ((0,), (2, 0, 1, 0, 0)) in report.witnesses  # x3 - x1 not in span{x5}


def test_central_implies_commuting_on_samples():
    L = dim5_example(F3)
    shift = LinearMap.from_image_map(L, {0: [(0, 1), (4, 1)]})  # x1 -> x1 + x5
    assert is_central(L, shift).clean
    assert is_commuting(L, shift)


# -- compose / inverse --------------------------------------------------------------


def test_compose_inverse_round_trip():
    L = dim5_example(F3)
    b2 = dim5_beta2(L)
    assert compose(b2, inverse(b2)).matrix == Matrix.identity(F3, 5)


def test_compose_applies_right_argument_first():
    L = dim5_example(F3)
    comp = compose(dim5_beta1(L), dim5_beta2(L))
    # beta2(x1) = x1 + x4, then beta1 sends x1 -> x3 and x4 -> x2
    assert comp.apply((1, 0, 0, 0, 0)) == (0, 1, 1, 0, 0)


def test_inverse_of_commuting_is_commuting():
    L = dim5_example(F3)
    for f in (dim5_beta1(L), dim5_beta2(L)):
        assert is_commuting(L, inverse(f))


def test_inverse_of_singular_raises():
    with pytest.raises(ValueError):
        inverse(LinearMap(zero_matrix(F3, 2, 2)))


# -- identity suite ------------------------------------------------------------------


def test_predicates_reject_a_map_of_another_dimension():
    L = filiform(4, F3)
    f = identity_map(filiform(3, F3))
    for predicate in (is_homomorphism, commuting_defect):
        with pytest.raises(ValueError):
            predicate(L, f)


def test_identity_map_passes_suite_everywhere():
    for L in (filiform(5, F3), heisenberg(2, 1, F5), dim5_example(Q)):
        report = lemma_identity_suite(L, identity_map(L))
        assert report.passed


def test_beta2_passes_suite_on_dim5():
    L = dim5_example(F3)
    report = lemma_identity_suite(L, dim5_beta2(L))
    assert report.passed
    # displacement containment is vacuous here: the second center is everything
    assert L.second_center().is_full()


def test_suite_requires_commuting_precondition():
    L = dim5_example(F3)
    comp = compose(dim5_beta1(L), dim5_beta2(L))
    with pytest.raises(ValueError):
        lemma_identity_suite(L, comp)


def test_suite_over_enumerated_filiform5_members():
    from coclass_lab.search import enumerate_commuting

    L = filiform(5, F3)
    second = L.second_center()
    assert second.basis.rows == ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1))  # span{v2, v3}
    for f in members(enumerate_commuting(L)):
        report = lemma_identity_suite(L, f)
        assert report.passed
        for i in range(5):
            d = sub_vec(L.field, f.image_of_basis(i), basis_vec(F3, 5, i))
            assert second.contains(d)


def test_batch_suite_agrees_with_single_map_reports():
    from coclass_lab.search import enumerate_commuting

    L = heisenberg(1, 2, F3)
    aset = enumerate_commuting(L)
    counts = identity_suite_batch(L, aset.member_array())
    assert sum(counts.values()) == 0
    for f in members(aset)[:25]:
        assert lemma_identity_suite(L, f).passed


def test_batch_suite_agrees_with_single_map_on_witness_maps():
    # per identity, a nonzero batch count exactly where the report lists witnesses
    for field in (F3, F5):
        L = dim5_example(field)
        for f in (dim5_beta1(L), dim5_beta2(L)):
            arr = np.array([[list(r) for r in f.matrix.rows]], dtype=np.int64)
            counts = identity_suite_batch(L, arr)
            report = lemma_identity_suite(L, f)
            assert {k: bool(c) for k, c in counts.items()} == {
                k: bool(v) for k, v in report.violations.items()
            }


def test_batch_suite_detects_violations_for_non_commuting_map():
    # an automorphism that is NOT commuting must break at least one identity
    L = filiform(4, F3)
    # v -> v + v1 extends to an automorphism via v1 -> v1 + v2
    f = LinearMap.from_image_map(L, {1: [(1, 1), (2, 1)], 2: [(2, 1), (3, 1)]})
    assert is_automorphism(L, f).clean
    assert not is_commuting(L, f)
    arr = np.array([[list(r) for r in f.matrix.rows]], dtype=np.int64)
    counts = identity_suite_batch(L, arr)
    assert counts["bracket_swap"] > 0


def test_suite_passes_over_rationals_for_witness_maps():
    L = dim5_example(Q)
    for f in (dim5_beta1(L), dim5_beta2(L)):
        assert lemma_identity_suite(L, f).passed
