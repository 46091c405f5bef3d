from itertools import product

import pytest

from coclass_lab.algebra import LieAlgebra, NonNilpotentError, NotSubalgebraError
from coclass_lab.constructions import (
    abelian,
    dim5_example,
    direct_sum,
    filiform,
    heisenberg,
)
from coclass_lab.fields import FieldSpec
from coclass_lab.linalg import Subspace, basis_vec

F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
Q = FieldSpec.rational()


def e(n, i):
    return basis_vec(F3, n, i)


def all_vectors(p, n):
    return list(product(range(p), repeat=n))


# -- validation ---------------------------------------------------------------


def test_abelian_validates_clean():
    assert abelian(3, F3).validate() == []


def test_heisenberg_validates_clean():
    assert heisenberg(2, 1, F3).validate() == []
    assert heisenberg(2, 1, Q).validate() == []


def test_jacobi_violation_named_with_residual():
    # [e1,e2] = e3, [e1,e3] = e1 breaks Jacobi on the only triple
    bad = LieAlgebra(F3, 3, {(0, 1): ((2, 1),), (0, 2): ((0, 1),)})
    violations = bad.validate()
    assert len(violations) == 1
    v = violations[0]
    assert v.triple == (0, 1, 2)
    assert v.residual == (0, 0, 2)  # -e3 over F3


def test_antisymmetry_by_construction():
    L = heisenberg(1, 1, F3)
    assert L.bracket_basis(1, 0) == (0, 0, 2)  # -[e0, e1] = -z
    assert L.bracket_basis(0, 0) == (0, 0, 0)


def test_bad_indices_rejected():
    with pytest.raises(ValueError):
        LieAlgebra(F3, 3, {(1, 1): ((0, 1),)})
    with pytest.raises(ValueError):
        LieAlgebra(F3, 3, {(2, 1): ((0, 1),)})
    with pytest.raises(ValueError):
        LieAlgebra(F3, 2, {(0, 1): ((5, 1),)})


# -- bracket ------------------------------------------------------------------


def test_bracket_heisenberg_pair():
    L = heisenberg(2, 1, F3)
    assert L.bracket(e(5, 0), e(5, 1)) == (0, 0, 0, 0, 1)  # [u1, u2] = z1


def test_bracket_self_is_zero():
    L = dim5_example(F3)
    for v in [(1, 2, 0, 1, 2), (2, 2, 2, 0, 1)]:
        assert L.bracket(v, v) == (0, 0, 0, 0, 0)


def test_bracket_dim5_second_pair():
    L = dim5_example(F3)
    assert L.bracket(e(5, 2), e(5, 3)) == (0, 0, 0, 0, 1)  # [x3, x4] = x5


def test_bracket_bilinear_random_spots():
    L = filiform(5, F5)
    x, y = (1, 2, 3, 4, 0), (0, 1, 2, 0, 3)
    lhs = L.bracket(tuple(2 * a % 5 for a in x), y)
    rhs = tuple(2 * a % 5 for a in L.bracket(x, y))
    assert lhs == rhs


# -- derived / series ----------------------------------------------------------


def test_bracket_subspaces_abelian_vanishes():
    L = abelian(4, F3)
    assert L.derived().dim == 0


def test_derived_heisenberg_is_center_line():
    L = heisenberg(2, 1, F3)
    assert L.derived().basis.rows == ((0, 0, 0, 0, 1),)


def test_bracket_L_with_derived_filiform5_bruteforce():
    L = filiform(5, F3)
    out = L.bracket_subspaces(L.full_space(), L.derived())
    # brute-force span of all pairwise brackets of basis vectors
    vecs = []
    for i in range(5):
        for row in L.derived().basis.rows:
            vecs.append(L.bracket(e(5, i), row))
    expected = Subspace.from_vectors(F3, 5, vecs)
    assert out == expected
    assert out.basis.rows == ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1))  # span{v2, v3}


def test_center_dim5_example():
    L = dim5_example(F3)
    assert L.center().basis.rows == ((0, 0, 0, 0, 1),)
    assert L.second_center().is_full()


def test_center_abelian_is_everything():
    assert abelian(4, F3).center().is_full()


def test_center_filiform6_with_exhaustive_oracle():
    L = filiform(6, F3)
    assert L.center().basis.rows == ((0, 0, 0, 0, 0, 1),)  # span{v4}
    assert L.second_center().basis.rows == (
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
    )  # span{v3, v4}
    # oracle: vectors commuting with every basis vector, all 3^6 of them
    members = {
        v
        for v in all_vectors(3, 6)
        if all(not any(L.bracket(v, e(6, j))) for j in range(6))
    }
    assert members == set(L.center().enumerate_vectors())


def test_upper_series_reaches_L_in_class_steps():
    for L in [filiform(5, F3), heisenberg(2, 1, F3), dim5_example(F3)]:
        c = L.nilpotency_class()
        upper = L.upper_central_series()
        assert len(upper) - 1 == c
        assert upper[-1].is_full()


def test_returned_series_lists_do_not_alias_the_cache():
    L = filiform(5, F3)
    lower = L.lower_central_series()
    upper = L.upper_central_series()
    lower.append(L.zero_space())
    lower[0] = L.zero_space()
    upper.clear()
    assert len(L.lower_central_series()) == 5 and L.lower_central_series()[0].is_full()
    assert len(L.upper_central_series()) == 5 and L.upper_central_series()[0].is_zero
    assert L.nilpotency_class() == 4 and L.center().dim == 1


def test_second_center_sandwich():
    for L in [filiform(6, F3), heisenberg(2, 2, F3), dim5_example(F3)]:
        z, z2 = L.center(), L.second_center()
        assert z2.contains_subspace(z)
        assert z.contains_subspace(L.bracket_subspaces(z2, L.full_space()))


# -- class / coclass ------------------------------------------------------------


def test_filiform_class_and_coclass():
    for n in (4, 5, 6, 7):
        L = filiform(n, F3)
        assert L.nilpotency_class() == n - 1
        assert L.coclass() == 1


def test_abelian_class_one():
    assert abelian(5, F3).nilpotency_class() == 1
    assert abelian(4, F3).coclass() == 3


def test_dim5_example_class_two_coclass_three():
    L = dim5_example(F3)
    assert L.nilpotency_class() == 2
    assert L.coclass() == 3


def test_non_nilpotent_rejected():
    # [e1, e2] = e2 is solvable but not nilpotent
    L = LieAlgebra(F3, 2, {(0, 1): ((1, 1),)})
    assert L.validate() == []
    assert not L.is_nilpotent
    with pytest.raises(NonNilpotentError):
        L.nilpotency_class()
    with pytest.raises(NonNilpotentError):
        L.generator_presentation()


# -- centralizer -----------------------------------------------------------------


def test_centralizer_filiform5_generator():
    L = filiform(5, F3)
    c = L.centralizer((1, 0, 0, 0, 0))  # u
    assert c.basis.rows == ((1, 0, 0, 0, 0), (0, 0, 0, 0, 1))  # span{u, v3}


def test_centralizer_of_zero_vector_is_everything():
    L = heisenberg(1, 1, F3)
    assert L.centralizer((0, 0, 0)).is_full()


def test_centralizer_heisenberg_with_exhaustive_oracle():
    L = heisenberg(2, 1, F3)
    c = L.centralizer((1, 0, 0, 0, 0))
    assert c.basis.rows == (
        (1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
    )
    u1 = e(5, 0)
    members = {v for v in all_vectors(3, 5) if not any(L.bracket(v, u1))}
    assert members == set(c.enumerate_vectors())


# -- subalgebras -------------------------------------------------------------------


def test_second_center_of_dim5_not_abelian():
    L = dim5_example(F3)
    assert not L.is_abelian_subspace(L.second_center())


def test_center_always_abelian():
    for L in [filiform(6, F3), heisenberg(2, 2, F3), dim5_example(F3), abelian(3, F3)]:
        assert L.is_abelian_subspace(L.center())


def test_subalgebra_class_heisenberg_full():
    L = heisenberg(2, 1, F3)
    assert L.subalgebra_class(L.full_space()) == 2


def test_not_a_subalgebra_rejected():
    L = filiform(4, F3)
    s = Subspace.from_vectors(F3, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])  # [u,v]=v1 leaves it
    with pytest.raises(NotSubalgebraError):
        L.subalgebra_class(s)


# -- generator presentation -----------------------------------------------------------


def test_presentation_filiform4():
    P = filiform(4, F3).generator_presentation()
    assert P.generators == (0, 1)  # u and v
    assert P.generator_count == 2


def test_presentation_abelian_all_generators():
    P = abelian(4, F3).generator_presentation()
    assert P.generators == (0, 1, 2, 3)
    assert all(s.kind == "gen" for s in P.steps)


def test_presentation_heisenberg21():
    L = heisenberg(2, 1, F3)
    P = L.generator_presentation()
    assert P.generators == (0, 1, 2, 3)
    assert P.generator_count == L.dim - L.derived().dim
    bracket_steps = [s for s in P.steps if s.kind == "bracket"]
    assert len(bracket_steps) == 1  # z1 = [u1, u2]


@pytest.mark.parametrize(
    "make",
    [
        lambda: filiform(6, F3),
        lambda: heisenberg(2, 2, F3),
        lambda: dim5_example(F3),
        lambda: direct_sum(filiform(4, F3), abelian(1, F3)),
        lambda: filiform(5, Q),
    ],
)
def test_presentation_round_trip_reproduces_basis(make):
    L = make()
    P = L.generator_presentation()
    values = P.evaluate()
    n = L.dim
    expected = tuple(basis_vec(L.field, n, i) for i in range(n))
    assert tuple(sorted(values)) == tuple(sorted(expected))
    # change of basis matrix is a permutation of the identity here
    from coclass_lab.linalg import invert

    assert invert(P.basis_matrix) is not None


def test_center_and_centralizer_exhaustive_at_dim3():
    # every dim <= 3 nilpotent table: sweep all 27 vectors of F3^3
    L = heisenberg(1, 1, F3)
    center_members = {
        v
        for v in all_vectors(3, 3)
        if all(not any(L.bracket(v, e(3, j))) for j in range(3))
    }
    assert center_members == set(L.center().enumerate_vectors())
    for target in all_vectors(3, 3):
        expected = {v for v in all_vectors(3, 3) if not any(L.bracket(v, target))}
        assert expected == set(L.centralizer(target).enumerate_vectors())
