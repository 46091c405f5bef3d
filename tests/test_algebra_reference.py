"""The per-index bracket and the cached series against the dense definitions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebra_reference as ref
from coclass_lab.algebra import LieAlgebra, NonNilpotentError
from coclass_lab.constructions import default_catalog, filiform, heisenberg
from coclass_lab.fields import FieldSpec
from coclass_lab.linalg import basis_vec, vec

F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
BIG = FieldSpec.prime(65521)
Q = FieldSpec.rational()


def two_step(seed: int, field: FieldSpec, gens: int, central: int) -> LieAlgebra:
    """[x_i, x_j] = sum_k a_ijk z_k with random a; Jacobi holds since L' is central."""
    rng = random.Random(f"two_step/{seed}")

    def coeff():
        if field.is_prime:
            return rng.randrange(field.p)
        return Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))

    sc = {
        (i, j): tuple((gens + k, coeff()) for k in range(central))
        for i in range(gens)
        for j in range(i + 1, gens)
    }
    return LieAlgebra(field, gens + central, sc)


def large_algebras():
    """Two-step, filiform and Heisenberg algebras of dimension 9-16 over F_65521 and Q."""
    out = []
    for field in (BIG, Q):
        for seed, (gens, central) in enumerate(((6, 3), (7, 5), (8, 8))):
            out.append((f"two_step_{gens}_{central}_{field}", two_step(seed, field, gens, central)))
        for n in (9, 12, 16):
            out.append((f"filiform_{n}_{field}", filiform(n, field)))
        for k, m in ((4, 1), (5, 3), (7, 2)):
            out.append((f"heisenberg_{k}_{m}_{field}", heisenberg(k, m, field)))
    return out


SOLVABLE = LieAlgebra(F3, 2, {(0, 1): ((1, 1),)})  # [e1, e2] = e2

CASES = (
    [(f"{e.name}_F3", e.algebra) for e in default_catalog(F3)]
    + [(f"{e.name}_F5", e.algebra) for e in default_catalog(F5)]
    + large_algebras()
    + [("solvable_e1e2", SOLVABLE)]
)


def sample_vectors(alg, count, seed):
    rng = random.Random(seed)
    f = alg.field
    if f.is_prime:
        draw = lambda: rng.randrange(f.p) if rng.random() < 0.6 else 0  # noqa: E731
    else:
        draw = lambda: Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))  # noqa: E731
    return [vec(f, [draw() for _ in range(alg.dim)]) for _ in range(count)]


@pytest.mark.parametrize("name,alg", CASES, ids=[name for name, _ in CASES])
def test_invariants_equal_dense_definitions(name, alg):
    f, n = alg.field, alg.dim
    basis = [basis_vec(f, n, i) for i in range(n)]
    for x in basis:
        for y in basis:
            assert alg.bracket(x, y) == ref.bracket(alg, x, y)
    vs = sample_vectors(alg, 6, name)
    for x in vs:
        for y in vs:
            assert alg.bracket(x, y) == ref.bracket(alg, x, y)
    assert alg.derived() == ref.derived(alg)
    assert alg.center() == ref.center(alg)
    assert alg.second_center() == ref.second_center(alg)
    assert alg.lower_central_series() == ref.lower_central_series(alg)
    assert alg.upper_central_series() == ref.upper_central_series(alg)


def test_solvable_non_nilpotent_invariants():
    L = SOLVABLE
    assert not L.is_nilpotent
    assert L.center().is_zero and L.second_center().is_zero
    assert L.derived().basis.rows == ((0, 1),)
    assert len(L.lower_central_series()) == 2
    assert L.upper_central_series() == [L.zero_space()]
    with pytest.raises(NonNilpotentError):
        L.nilpotency_class()


def test_perfect_algebra_derived_is_whole_algebra():
    # sl_2 over F_5: [h, e] = 2e, [h, f] = -2f, [e, f] = h, so [L, L] = L
    sl2 = LieAlgebra(F5, 3, {(0, 1): ((1, 2),), (0, 2): ((2, -2),), (1, 2): ((0, 1),)})
    assert sl2.validate() == []
    assert sl2.derived() == ref.derived(sl2) == sl2.full_space()
    assert sl2.lower_central_series() == ref.lower_central_series(sl2) == [sl2.full_space()]


HYPOTHESIS_ALGEBRAS = [alg for name, alg in CASES if alg.dim <= 12]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_private_bracket_equals_dense_loop(data):
    alg = data.draw(st.sampled_from(HYPOTHESIS_ALGEBRAS))
    f = alg.field
    if f.is_prime:
        entry = st.integers(min_value=0, max_value=f.p - 1)
    else:
        entry = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    x = vec(f, data.draw(st.lists(entry, min_size=alg.dim, max_size=alg.dim)))
    y = vec(f, data.draw(st.lists(entry, min_size=alg.dim, max_size=alg.dim)))
    assert alg._bracket(x, y) == ref.bracket(alg, x, y)
