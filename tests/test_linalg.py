from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_reference import span_vectors
from dfs_reference import solve_affine
from linalg_helpers import identity_map, zero_matrix
from coclass_lab.constructions import filiform
from coclass_lab.fields import FieldSpec
from coclass_lab.linalg import (
    Matrix,
    Subspace,
    _rref_rows,
    invert,
    is_invertible,
    kernel,
    rank,
    vec,
)
from coclass_lab.maps import LinearMap

F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
Q = FieldSpec.rational()


def matrix(field, rows):
    """Matrix of integer rows, each entry canonicalised."""
    return Matrix(field, tuple(vec(field, r) for r in rows))


def all_vectors(p, n):
    return list(product(range(p), repeat=n))


def rref(m: Matrix) -> Matrix:
    """Unique reduced row-echelon form, zero rows kept; row space preserved."""
    rows, _ = _rref_rows(m.field, list(m.rows))
    return Matrix(m.field, tuple(tuple(r) for r in rows))


# -- rref -------------------------------------------------------------------


def test_rref_identity_fixed_point():
    m = Matrix.identity(F3, 3)
    assert rref(m) == m


def test_rref_zero_fixed_point():
    m = zero_matrix(F3, 2, 4)
    assert rref(m) == m


def test_rref_hand_reduction():
    # pivot scaling uses 2*2 = 4 = 1 mod 3
    m = matrix(F3, [[2, 1], [1, 2]])
    assert rref(m).rows == ((1, 2), (0, 0))
    assert rank(m) == 1  # independent rank oracle: rows are proportional


def test_rref_rational():
    m = matrix(Q, [[2, 4], [1, 3]])
    assert rref(m).rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


# -- kernel -----------------------------------------------------------------


def test_kernel_identity_is_zero_space():
    assert kernel(Matrix.identity(F3, 4)).dim == 0


def test_kernel_zero_matrix_full_space():
    k = kernel(zero_matrix(F3, 2, 3))
    assert k.dim == 3 and k.ambient_dim == 3


def test_kernel_hand_example_with_exhaustive_oracle():
    m = matrix(F3, [[1, 1, 0]])
    k = kernel(m)
    assert k.basis.rows == ((1, 2, 0), (0, 0, 1))
    # oracle: all 27 vectors of F3^3 mapping to zero
    expected = {v for v in all_vectors(3, 3) if (v[0] + v[1]) % 3 == 0}
    assert span_vectors(k) == expected


# -- solve_affine -----------------------------------------------------------


def test_solve_identity():
    sol = solve_affine(Matrix.identity(F3, 3), (1, 2, 0))
    assert sol.particular == (1, 2, 0)
    assert sol.homogeneous.dim == 0


def test_solve_inconsistent():
    assert solve_affine(zero_matrix(F3, 2, 2), (1, 0)) is None


def test_solve_hand_example_with_enumeration_oracle():
    sol = solve_affine(matrix(F3, [[1, 1]]), (1,))
    assert sol.particular == (1, 0)
    assert sol.homogeneous.basis.rows == ((1, 2),)
    # oracle: enumerate F3^2
    expected = {v for v in all_vectors(3, 2) if (v[0] + v[1]) % 3 == 1}
    assert expected == {(1, 0), (2, 2), (0, 1)}
    points = set()
    base = sol.particular
    for c in range(3):
        points.add(tuple((b + c * h) % 3 for b, h in zip(base, sol.homogeneous.basis.rows[0])))
    assert points == expected


# -- subspace calculus ------------------------------------------------------


def test_contains_scaled_vector():
    s = Subspace.from_vectors(F3, 2, [(1, 1)])
    assert s.contains((2, 2))  # (2,2) = 2*(1,1)
    assert not s.contains((1, 2))


def test_subspace_equality_is_canonical():
    a = Subspace.from_vectors(F3, 2, [(1, 1), (2, 2)])
    b = Subspace.from_vectors(F3, 2, [(2, 2)])
    assert a == b
    assert hash(a) == hash(b)


def test_contains_agrees_with_exhaustive_membership():
    basis = [(1, 2, 0), (0, 1, 1)]
    s = Subspace.from_vectors(F3, 3, basis)
    explicit = set()
    for a in range(3):
        for b in range(3):
            explicit.add(tuple((a * x + b * y) % 3 for x, y in zip(*basis)))
    for v in all_vectors(3, 3):
        assert s.contains(v) == (v in explicit)


# -- outside input ----------------------------------------------------------

# over F5, each raw entry and its canonical residue
RAW_F5 = (-1, 5, 11, Fraction(1, 2))
CANON_F5 = (4, 0, 1, 3)


def typed(values):
    """Nested tuples with every scalar paired with its type, so 1 and Fraction(1) differ."""
    if isinstance(values, (tuple, list)):
        return tuple(typed(v) for v in values)
    return (type(values), values)


def _outside_results(field, vectors):
    """What each canonicalising entry point returns on the same four length-4 vectors."""
    algebra = filiform(4, field)
    x, y, u, w = vectors
    f = LinearMap.from_images(algebra, vectors)
    line = Subspace.from_vectors(field, 4, [(1, 0, 0, 0)])
    return {
        "from_vectors": Subspace.from_vectors(field, 4, vectors).basis.rows,
        "bracket": tuple(algebra.bracket(a, b) for a in vectors for b in vectors),
        "from_images": f.matrix.rows,
        "apply": (identity_map(algebra).apply(x), f.apply(y)),
        "contains": (
            Subspace.zero(field, 4).contains(w),
            line.contains(w),
            line.contains(x),
            Subspace.from_vectors(field, 4, [u]).contains(u),
        ),
    }


def test_outside_input_is_canonicalised_over_f5():
    # indices into RAW_F5/CANON_F5; the last vector is all 5s, zero written as a multiple of p
    layout = [(0, 1, 2, 3), (3, 0, 1, 2), (2, 3, 0, 1), (1, 1, 1, 1)]
    raw = [tuple(RAW_F5[i] for i in row) for row in layout]
    canonical = [tuple(CANON_F5[i] for i in row) for row in layout]
    got, want = _outside_results(F5, raw), _outside_results(F5, canonical)
    assert want["contains"][0]  # the zero vector lies in every subspace
    for name in want:
        assert typed(got[name]) == typed(want[name]), name


def test_outside_input_is_canonicalised_over_q():
    ints = [(1, -2, 0, 3), (0, 4, -1, 0), (2, 0, 0, 5), (0, 0, 0, 0)]
    fractions = [tuple(Fraction(x) for x in row) for row in ints]
    got, want = _outside_results(Q, ints), _outside_results(Q, fractions)
    for name in want:
        assert typed(got[name]) == typed(want[name]), name
    assert all(t is Fraction for row in typed(got["from_images"]) for t, _ in row)


# -- invert -----------------------------------------------------------------


def test_invert_singular_returns_none():
    assert invert(matrix(F3, [[1, 2], [2, 4]])) is None
    assert not is_invertible(matrix(F3, [[1, 2], [2, 4]]))


def test_invert_times_matrix_is_identity():
    m = matrix(F5, [[1, 2], [3, 4]])
    inv = invert(m)
    assert inv @ m == Matrix.identity(F5, 2)


# -- property tests ---------------------------------------------------------

fields = st.sampled_from([F3, F5])


@st.composite
def small_matrix(draw, field=None):
    f = draw(fields) if field is None else field
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entries = draw(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return matrix(f, entries)


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_rref_idempotent(m):
    r = rref(m)
    assert rref(r) == r


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel(m).dim == m.ncols


@given(small_matrix())
@settings(max_examples=100, deadline=None)
def test_kernel_vectors_annihilated(m):
    k = kernel(m)
    for row in k.basis.rows:
        assert not any(m.apply(row))


@given(st.data())
@settings(max_examples=75, deadline=None)
def test_invert_round_trip(data):
    f = data.draw(st.sampled_from([F3, F5, Q]))
    n = data.draw(st.integers(1, 3))
    entries = data.draw(
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    m = matrix(f, entries)
    inv = invert(m)
    if inv is None:
        assert rank(m) < n
    else:
        assert inv @ m == Matrix.identity(f, n)


def test_solve_affine_agrees_with_enumeration_dim3():
    # oracle sweep over all small systems with fixed shapes
    for rows in product(all_vectors(3, 3), repeat=2):
        m = matrix(F3, rows)
        b = (1, 2)
        sol = solve_affine(m, b)
        expected = {
            v
            for v in all_vectors(3, 3)
            if tuple(sum(r[i] * v[i] for i in range(3)) % 3 for r in rows) == b
        }
        if sol is None:
            assert not expected
        else:
            got = set()
            for coeffs in product(range(3), repeat=sol.homogeneous.dim):
                v = list(sol.particular)
                for c, h in zip(coeffs, sol.homogeneous.basis.rows):
                    v = [(x + c * y) % 3 for x, y in zip(v, h)]
                got.add(tuple(v))
            assert got == expected
