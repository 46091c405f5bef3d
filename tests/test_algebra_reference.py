"""The per-index bracket, the cached series, the Jacobi check and the subalgebra
class against the dense definitions."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebra_reference as ref
from coclass_lab.algebra import LieAlgebra, NonNilpotentError, NotSubalgebraError
from coclass_lab.constructions import (
    abelian,
    builtin,
    default_catalog,
    direct_sum,
    filiform,
    heisenberg,
    load_catalog,
)
from coclass_lab.fields import FieldSpec
from coclass_lab.linalg import Matrix, Subspace, basis_vec, invert, vec

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


def sl2(field: FieldSpec) -> LieAlgebra:
    """[h, e] = 2e, [h, f] = -2f, [e, f] = h, so [L, L] = L in odd characteristic and over Q."""
    return LieAlgebra(field, 3, {(0, 1): ((1, 2),), (0, 2): ((2, -2),), (1, 2): ((0, 1),)})


def sl2_plus_heisenberg(field: FieldSpec) -> LieAlgebra:
    """sl2 + heisenberg(1, 1): generator_indices() = [3, 4] generate only the Heisenberg
    part, so series bracketing with them alone would call L nilpotent with sl2 central."""
    return direct_sum(sl2(field), heisenberg(1, 1, field))


def skewed(alg: LieAlgebra) -> LieAlgebra:
    """alg in the basis b_i = e_{i-1} + e_i (b_0 = e_0), whose center and series
    terms are no longer spanned by basis vectors."""
    f, n = alg.field, alg.dim
    b = [vec(f, [int(k in (i - 1, i)) for k in range(n)]) for i in range(n)]
    coordinates = invert(Matrix(f, tuple(zip(*b))))
    sc = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = coordinates.apply(ref.bracket(alg, b[i], b[j]))
            if any(w):
                sc[(i, j)] = tuple((k, c) for k, c in enumerate(w) if c)
    return LieAlgebra(f, n, sc)


SKEWED = [
    ("skewed_filiform_6_F5", skewed(filiform(6, F5))),
    ("skewed_dim6_center1_F3", skewed(builtin("dim6_center1", F3))),
    ("skewed_heisenberg_2_2_Q", skewed(heisenberg(2, 2, Q))),
    ("skewed_sl2_plus_heisenberg_1_1_F5", skewed(sl2_plus_heisenberg(F5))),
]


CASES = (
    [(f"{e.name}_F3", e.algebra) for e in default_catalog(F3)]
    + [(f"{e.name}_F5", e.algebra) for e in default_catalog(F5)]
    + large_algebras()
    + [("solvable_e1e2", SOLVABLE)]
    + [(f"sl2_plus_heisenberg_1_1_{f}", sl2_plus_heisenberg(f)) for f in (F3, F5)]
    + SKEWED
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
    assert alg.is_nilpotent == ref.lower_central_series(alg)[-1].is_zero
    for j in range(n):
        assert alg.ad_matrix(j) == ref.ad_matrix(alg, j)


@pytest.mark.parametrize("field", (F3, F5, Q), ids=str)
def test_upper_series_where_no_term_holds_the_derived_algebra(field):
    # each term is a preimage solved from RREF constraint rows: no Z_k
    # holds L', so the series never ends by the L' in Z_k shortcut; the
    # skewed basis makes Z and Z_2 more than spans of basis vectors
    for alg in (sl2(field), sl2_plus_heisenberg(field), skewed(sl2_plus_heisenberg(field))):
        upper = alg.upper_central_series()
        assert upper == ref.upper_central_series(alg)
        assert not any(z.contains_subspace(alg.derived()) for z in upper)
    assert [z.dim for z in sl2_plus_heisenberg(field).upper_central_series()] == [0, 1, 3]


def test_series_bracket_with_the_generators_of_every_nilpotent_case():
    # X is generator_indices() wherever they generate L, which every
    # nilpotent catalog row and large algebra does; the rest use every index
    nilpotent = [e.algebra for f in (F3, F5, FieldSpec.prime(7), Q) for e in default_catalog(f)]
    nilpotent += [e.algebra for path in sorted(DATA.iterdir()) for e in load_catalog(path)]
    nilpotent += [alg for _, alg in large_algebras()]
    for alg in nilpotent:
        assert alg._bracket_generators == tuple(alg.generator_indices()), alg
    for alg in (SOLVABLE, sl2(F5), sl2_plus_heisenberg(F3), sl2_plus_heisenberg(F5)):
        assert alg._bracket_generators == tuple(range(alg.dim)), alg
    assert sl2_plus_heisenberg(F3).generator_indices() == [3, 4]


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
    L = sl2(F5)
    assert L.validate() == []
    assert L.derived() == ref.derived(L) == L.full_space()
    assert L.lower_central_series() == ref.lower_central_series(L) == [L.full_space()]


@pytest.mark.parametrize("field", (F3, F5, FieldSpec.prime(7), BIG, Q), ids=str)
def test_generator_indices_match_greedy_loop(field):
    # the pivots of the reduced annihilator of L' against the loop that grows
    # L' one basis vector at a time; abelian (L' = 0), perfect (L' = L) and
    # solvable algebras included
    algebras = [e.algebra for e in default_catalog(field)]
    algebras += [abelian(4, field), sl2(field), LieAlgebra(field, 2, {(0, 1): ((1, 1),)})]
    algebras += [alg for _, alg in CASES if alg.field == field]
    for alg in algebras:
        assert alg.generator_indices() == ref.generator_indices(alg), alg
    assert abelian(4, field).generator_indices() == [0, 1, 2, 3]
    assert sl2(field).generator_indices() == []


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


DATA = Path(__file__).resolve().parents[1] / "src" / "coclass_lab" / "data"


def random_tables(seed: int, count: int) -> list:
    """Random structure tables of dimension 3-6 over F5 and Q; most fail Jacobi."""
    rng = random.Random(f"jacobi/{seed}")
    out = []
    for t in range(count):
        field = F5 if t % 2 else Q
        dim = rng.randrange(3, 7)
        sc = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                if rng.random() < 0.4:
                    sc[(i, j)] = tuple((k, rng.randrange(1, 5)) for k in rng.sample(range(dim), 2))
        out.append(LieAlgebra(field, dim, sc))
    return out


@st.composite
def jacobi_tables(draw):
    """A structure table of dimension <= 9 over F3, F5 or Q; most break Jacobi."""
    field = draw(st.sampled_from((F3, F5, Q)))
    dim = draw(st.integers(min_value=1, max_value=9))
    if field.is_prime:
        coeff = st.integers(min_value=-field.p, max_value=field.p)
    else:
        coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    target = st.integers(min_value=0, max_value=dim - 1)
    sc = {key: tuple(draw(st.dictionaries(target, coeff, max_size=3)).items()) for key in keys}
    return LieAlgebra(field, dim, sc)


@given(jacobi_tables())
@settings(max_examples=300, deadline=None)
def test_validate_matches_dense_loop_on_drawn_tables(alg):
    # the sparse sum over table entries against the dense loop over every triple
    assert alg.validate() == ref.validate(alg)


def test_validate_matches_dense_loop():
    # same triples, same order, same residuals as the dense Jacobi loop
    catalogs = [e.algebra for path in sorted(DATA.iterdir()) for e in load_catalog(path)]
    tables = [alg for _, alg in CASES] + catalogs + random_tables(0, 40)
    failing = 0
    for alg in tables:
        got = alg.validate()
        assert got == ref.validate(alg), alg
        failing += bool(got)
    broken = LieAlgebra(F3, 3, {(0, 1): ((2, 1),), (0, 2): ((0, 1),)})
    assert broken.validate() == ref.validate(broken) != []
    assert failing >= 20


@pytest.mark.parametrize("field", (F3, F5), ids=str)
def test_subalgebra_class_matches_restricted_algebra(field):
    for entry in default_catalog(field):
        alg = entry.algebra
        for s in (alg.center(), alg.second_center(), alg.derived(), alg.full_space()):
            want = 0 if s.is_zero else ref.restrict(alg, s).nilpotency_class()
            assert alg.subalgebra_class(s) == want, entry.name


def test_subalgebra_class_rejects_like_restricted_algebra():
    # span(e1, e2) of [e1, e2] = e2, [e1, e3] = e3 is closed but not nilpotent
    alg = LieAlgebra(F3, 3, {(0, 1): ((1, 1),), (0, 2): ((2, 1),)})
    closed = Subspace.from_vectors(F3, 3, [(1, 0, 0), (0, 1, 0)])
    for s in (closed, alg.full_space()):
        with pytest.raises(NonNilpotentError):
            ref.restrict(alg, s).nilpotency_class()
        with pytest.raises(NonNilpotentError):
            alg.subalgebra_class(s)
    # [u, v] = v1 leaves span(u, v)
    L = filiform(4, F3)
    s = Subspace.from_vectors(F3, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(NotSubalgebraError):
        ref.restrict(L, s)
    with pytest.raises(NotSubalgebraError):
        L.subalgebra_class(s)
