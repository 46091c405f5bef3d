"""The recursive generator-image DFS, kept as a reference for the tests.

This is the commuting enumerator as it was before the frontier rewrite:
one ``solve_affine`` (kept here, beside the point iterator it feeds) per
branch and one ``Subspace.from_vectors`` per candidate image to test
independence modulo L'.  The library now draws the assignments from one
kernel over all generator images at once; this searches them one level
and one branch at a time, so the two share no solver.  With
``prune_second_center=False`` it also drops the rows that confine f(g)
to the coset g + Z_2(L), so it checks that lemma instead of relying on
it.  Completed assignments go through the reference filter of
``elimination_reference``, invertibility test included, and then the
library's canonicalisation, so the two enumerators share no filter.
"""

from dataclasses import dataclass
from itertools import product
from typing import Optional

from elimination_reference import filter_assignments
from linalg_helpers import zero_vec
from coclass_lab.linalg import (
    Matrix,
    Subspace,
    Vector,
    _rref_rows,
    add_vec,
    basis_vec,
    kernel,
    vec,
)
from coclass_lab.search import BudgetExceededError, _finish_set


def scale_vec(field, c, a) -> Vector:
    return tuple(field.scale(c, a))


@dataclass(frozen=True)
class AffineSolution:
    """Full solution set of m x = b: one particular point plus the kernel."""

    particular: Vector
    homogeneous: Subspace


def solve_affine(m: Matrix, b: Vector) -> Optional[AffineSolution]:
    """Solve m x = b by one elimination of (m | b); None when inconsistent."""
    f = m.field
    b = vec(f, b)
    if len(b) != m.nrows:
        raise ValueError("rhs length != row count")
    n = m.ncols
    aug = [list(row) + [rhs] for row, rhs in zip(m.rows, b)]
    if not aug:
        return AffineSolution(zero_vec(f, n), Subspace.full(f, n))
    rows, pivots = _rref_rows(f, aug)
    if n in pivots:  # pivot in the augmented column
        return None
    x = [f.zero] * n
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][n]
    return AffineSolution(tuple(x), kernel(m))


def solution_points(sol: AffineSolution):
    """Iterate the full affine solution set (prime fields), deterministic order."""
    f = sol.homogeneous.field
    if not f.is_prime:
        raise ValueError("point enumeration needs a finite field")
    base = sol.particular
    rows = sol.homogeneous.basis.rows
    for coeffs in product(range(f.p), repeat=len(rows)):
        v = base
        for c, row in zip(coeffs, rows):
            if c:
                v = add_vec(f, v, scale_vec(f, c, row))
        yield v


def projected_count(algebra, prune_second_center: bool = True) -> int:
    return _plan(algebra, prune_second_center)[2]


def _plan(algebra, prune_second_center: bool):
    field = algebra.field
    gens = algebra.generator_presentation().generators
    z2 = algebra.second_center()
    coset_rows = None if z2.is_full() or not prune_second_center else z2.annihilator()
    level_rows = []
    projected = 1
    for t in range(len(gens)):
        rows = []
        if coset_rows is not None:
            rows.extend(coset_rows.rows)
        for s in (t,) + tuple(range(t)):
            rows.extend(algebra.ad_matrix(gens[s]).rows)
        h = Matrix(field, tuple(rows))
        level_rows.append(h)
        projected *= field.p ** kernel(h).dim
    return coset_rows, level_rows, projected


def enumerate_commuting(algebra, budget: int, prune_second_center: bool = True):
    field = algebra.field
    n = algebra.dim
    pres = algebra.generator_presentation()
    gens = pres.generators
    r = len(gens)
    coset_rows, level_rows, projected = _plan(algebra, prune_second_center)
    if projected > budget:
        raise BudgetExceededError(budget, projected, "reference DFS")
    gen_vectors = [basis_vec(field, n, g) for g in gens]

    def level_rhs(t: int, images: list) -> tuple:
        rhs = []
        if coset_rows is not None:
            rhs.extend(coset_rows.apply(gen_vectors[t]))
        rhs.extend(zero_vec(field, n))
        for s in range(t):
            b = algebra.bracket(images[s], gen_vectors[t])
            rhs.extend(scale_vec(field, -1, b))
        return tuple(rhs)

    assignments = []

    def dfs(t: int, images: list, span: Subspace):
        if t == r:
            assignments.append(tuple(images))
            return
        sol = solve_affine(level_rows[t], level_rhs(t, images))
        if sol is None:
            return
        for w in solution_points(sol):
            # generator images must stay independent modulo L'
            grown = Subspace.from_vectors(field, n, span.basis.rows + (w,))
            if grown.dim == span.dim:
                continue
            images.append(w)
            dfs(t + 1, images, grown)
            images.pop()

    dfs(0, [], algebra.derived())
    return _finish_set(algebra, "commuting", filter_assignments(algebra, pres, assignments))
