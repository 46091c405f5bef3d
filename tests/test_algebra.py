from itertools import product

import pytest

from algebra_reference import span_vectors
from coclass_lab.algebra import LieAlgebra, NonNilpotentError, NotSubalgebraError
from coclass_lab.constructions import (
    abelian,
    dim5_example,
    direct_sum,
    filiform,
    from_bracket_table,
    heisenberg,
)
from coclass_lab.fields import FieldSpec
from coclass_lab.linalg import Matrix, Subspace, basis_vec

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
    # a repeated pair is refused, not merged into its last copy
    with pytest.raises(ValueError, match=r"duplicate bracket entry \(0, 1\)"):
        LieAlgebra(F3, 3, [((0, 1), ((2, 1),)), ((0, 1), ((2, 2),))])
    with pytest.raises(ValueError, match=r"duplicate bracket entry \(0, 1\)"):
        LieAlgebra(F3, 3, [((0, 1), ()), ((0, 1), ((2, 2),))])
    with pytest.raises(ValueError, match=r"duplicate bracket entry \(0, 1\)"):
        from_bracket_table(F3, 3, [(0, 1, [(2, 1)]), (0, 1, [(2, 2)])])
    # so is a repeated target within one entry, not summed (1 + 2 = 0 at F3)
    with pytest.raises(ValueError, match=r"repeated target 2 in bracket entry \(0, 1\)"):
        LieAlgebra(F3, 3, {(0, 1): ((2, 1), (2, 2))})
    with pytest.raises(ValueError, match="repeated target 2"):
        from_bracket_table(Q, 3, [(0, 1, [(2, 1), (2, -1)])])


@pytest.mark.parametrize("pair", [(0, True), (0, 1.0), (0, None), (False, 1), (0.0, 1)], ids=repr)
def test_index_pair_must_be_ints(pair):
    # a bool or a float compares equal to an int, but no file can say it
    with pytest.raises(ValueError, match="structure constants need ints 0 <= i < j < dim"):
        LieAlgebra(F3, 3, {pair: ((2, 1),)})


@pytest.mark.parametrize("k", [True, 2.0, None], ids=repr)
def test_target_index_must_be_an_int(k):
    with pytest.raises(ValueError, match="bracket target index needs an int 0 <= k < dim"):
        LieAlgebra(F3, 3, {(0, 1): ((k, 1),)})


@pytest.mark.parametrize("dim", [True, 3.0, None, "3"], ids=repr)
def test_dimension_must_be_an_int(dim):
    with pytest.raises(ValueError, match="dimension must be an int"):
        LieAlgebra(F3, dim, {})


@pytest.mark.parametrize("c", [1.5, 1.0, True, None], ids=repr)
@pytest.mark.parametrize("field", [F3, Q], ids=str)
def test_coefficient_must_be_an_int_or_fraction(field, c):
    # 1.5 stored over F3 would save as 1, another algebra
    with pytest.raises(ValueError, match="scalar must be an int or a Fraction"):
        LieAlgebra(field, 3, {(0, 1): ((2, c),)})


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
    assert members == span_vectors(L.center())


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


# -- subalgebras -------------------------------------------------------------------


def test_second_center_of_dim5_not_abelian():
    L = dim5_example(F3)
    assert L.subalgebra_class(L.second_center()) > 1


def test_center_always_abelian():
    for L in [filiform(6, F3), heisenberg(2, 2, F3), dim5_example(F3), abelian(3, F3)]:
        assert L.subalgebra_class(L.center()) <= 1


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
    assert len(P.generators) == 2


def test_presentation_abelian_all_generators():
    P = abelian(4, F3).generator_presentation()
    assert P.generators == (0, 1, 2, 3)
    assert P.steps == ()


def test_presentation_heisenberg21():
    L = heisenberg(2, 1, F3)
    P = L.generator_presentation()
    assert P.generators == (0, 1, 2, 3)
    assert len(P.generators) == L.dim - L.derived().dim
    assert P.steps == ((1, 0),)  # [u2, u1] = -z1


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
    n = L.dim
    # re-evaluate the values in L: the generators, then [g_t, values[s]] per step
    values = [basis_vec(L.field, n, g) for g in P.generators]
    for t, s in P.steps:
        values.append(L.bracket(values[t], values[s]))
    assert len(values) == n
    # the values are raw brackets, not unit vectors; basis_inverse undoes them
    assert Matrix(L.field, tuple(zip(*values))) @ P.basis_inverse == Matrix.identity(L.field, n)


def test_center_and_centralizer_exhaustive_at_dim3():
    # every dim <= 3 nilpotent table: sweep all 27 vectors of F3^3
    L = heisenberg(1, 1, F3)
    center_members = {
        v
        for v in all_vectors(3, 3)
        if all(not any(L.bracket(v, e(3, j))) for j in range(3))
    }
    assert center_members == span_vectors(L.center())
