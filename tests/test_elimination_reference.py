"""The exact core's row-level elimination against the per-scalar reference.

``elimination_reference`` keeps the Gauss-Jordan that ran one scalar at a
time over whole rows.  The library's ``_rref_rows`` works per row and only
right of each pivot; the reduced row-echelon form is unique, so rows,
pivots, kernels, inverses, ranks and memberships must agree exactly, over
F3, F5, F65521 and Q, on seeded random matrices of every shape the
package builds: no rows, zero rows, the tall n^2 x n stacked ad rows,
wide, and rank-deficient.  Over Q the entries are fractions with
denominators up to 7, and every result entry must be a Fraction.
"""

import random
from fractions import Fraction

import pytest

import elimination_reference as ref
from coclass_lab.constructions import default_catalog, filiform, heisenberg
from coclass_lab.fields import FieldSpec
from coclass_lab.linalg import Matrix, _rref_rows, invert, kernel, rank

FIELDS = [FieldSpec.prime(3), FieldSpec.prime(5), FieldSpec.prime(65521), FieldSpec.rational()]
IDS = [str(f) for f in FIELDS]


def scalar(field, rng):
    """A random canonical scalar, zero about a third of the time."""
    if rng.random() < 0.35:
        return field.canon(0)
    if field.p:
        return rng.randrange(1, field.p)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def random_rows(field, rng, nrows, ncols, rank_bound=None):
    """nrows x ncols canonical rows; of rank at most rank_bound when it is given."""
    if rank_bound is None:
        return [tuple(scalar(field, rng) for _ in range(ncols)) for _ in range(nrows)]
    left = random_rows(field, rng, nrows, rank_bound)
    right = random_rows(field, rng, rank_bound, ncols)
    product = Matrix(field, tuple(left)) @ Matrix(field, tuple(right))
    return list(product.rows)


def stacked_ad_rows(algebra):
    """The n^2 x n rows of ad(e_0), ..., ad(e_{n-1}) stacked: their kernel is the center."""
    return [row for j in range(algebra.dim) for row in algebra.ad_matrix(j).rows]


def shapes(field, seed):
    """(label, rows) for every shape, seeded."""
    rng = random.Random(seed)
    cases = [("empty", []), ("zero", [tuple(field.canon(0) for _ in range(4))] * 3)]
    with_zero_rows = random_rows(field, rng, 5, 6)
    with_zero_rows[1] = with_zero_rows[3] = tuple(field.canon(0) for _ in range(6))
    cases.append(("zero rows", with_zero_rows))
    for n in (3, 5, 7):
        cases.append((f"square {n}", random_rows(field, rng, n, n)))
        cases.append((f"tall {n * n} x {n}", random_rows(field, rng, n * n, n, rank_bound=n - 2)))
        cases.append((f"wide {n} x {2 * n + 1}", random_rows(field, rng, n, 2 * n + 1)))
        deficient = random_rows(field, rng, n + 2, n, rank_bound=n - 1)
        cases.append((f"deficient {n + 2} x {n}", deficient))
        cases.append((f"singular {n}", random_rows(field, rng, n, n, rank_bound=n - 1)))
    dim6_center3 = default_catalog(field)[-1].algebra
    for algebra in (filiform(6, field), heisenberg(2, 2, field), dim6_center3):
        cases.append((f"ad rows dim {algebra.dim}", stacked_ad_rows(algebra)))
    return cases


def typed(rows):
    """Rows as (type, value) pairs, so Fraction(1) and 1 differ."""
    return [[(type(x), x) for x in row] for row in rows]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rref_rank_and_kernel_match_per_scalar_reference(field, seed):
    for label, rows in shapes(field, seed):
        got_rows, got_pivots = _rref_rows(field, rows)
        want_rows, want_pivots = ref.rref_rows(field, rows)
        assert (got_pivots, typed(got_rows)) == (want_pivots, typed(want_rows)), label
        if not rows:
            continue
        m = Matrix(field, tuple(rows))
        assert rank(m) == ref.rank(field, rows), label
        ncols = len(rows[0])
        assert typed(kernel(m).basis.rows) == typed(ref.kernel(field, rows, ncols)), label


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_invert_matches_per_scalar_reference(field, seed):
    singular = 0
    for label, rows in shapes(field, seed):
        if not rows or len(rows) != len(rows[0]):
            continue
        got = invert(Matrix(field, tuple(rows)))
        want = ref.reference_invert(field, rows)
        if want is None:
            singular += 1
            assert got is None, label
        else:
            assert typed(got.rows) == typed(want), label
    assert singular >= 3  # the rank-deficient squares


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_contains_matches_per_scalar_reference(field, seed):
    rng = random.Random(100 + seed)
    seen = {True: 0, False: 0}
    for label, rows in shapes(field, seed):
        if not rows:
            continue
        ncols = len(rows[0])
        space = kernel(Matrix(field, tuple(rows)))
        basis = space.basis.rows
        # members: combinations of the basis; others: random vectors
        probes = [tuple(field.canon(0) for _ in range(ncols)), *random_rows(field, rng, 4, ncols)]
        for _ in range(4):
            v = [field.canon(0)] * ncols
            for row in basis:
                v = field.sub_multiple(v, scalar(field, rng), row)
            probes.append(tuple(v))
        for v in probes:
            want = ref.contains(field, basis, v)
            assert space.contains(v) == want, label
            seen[want] += 1
    assert seen[True] and seen[False]
