"""The original dense definitions of the algebra invariants, kept as references.

``LieAlgebra`` now brackets through a per-index table of nonzero brackets
and reads every invariant from its cached central series, which it
builds from L' read off the table and from brackets with a generating
set X only (X is every index when ``generator_indices`` do not generate
L, as in the non-nilpotent cases).  These are the definitions it
replaced: the bracket as a loop over the whole structure table, L' as
the span of all basis brackets, ad e_j as the dense bracket columns,
Z(L) as the centralizer of L, Z_2(L) as the preimage of Z(L), through
its annihilator, under every ad e_j, and the two series as
iterations of those, bracketing with every basis vector, and the
generators of L/L' grown one basis vector at a time.  Beside them: the
Jacobi check on dense basis vectors, and the subalgebra s rebuilt as an
algebra of its own (``restrict``), whose class
``LieAlgebra.subalgebra_class`` now computes inside L, and
``span_vectors``, a subspace listed vector by vector.  The tests require
the library to agree with them.
"""

from itertools import product

from elimination_reference import add, mul, sub
from coclass_lab.algebra import JacobiViolation, LieAlgebra, NotSubalgebraError
from coclass_lab.linalg import Matrix, Subspace, add_vec, basis_vec, is_zero_vec, kernel, vec


def span_vectors(s: Subspace) -> set:
    """Every vector of a subspace over F_p: each combination of its basis rows."""
    f = s.field
    vectors = set()
    for coeffs in product(range(f.p), repeat=s.dim):
        v = [f.zero] * s.ambient_dim
        for c, row in zip(coeffs, s.basis.rows):
            v = [add(f, x, mul(f, c, y)) for x, y in zip(v, row)]
        vectors.add(tuple(v))
    return vectors


def bracket(alg, x, y) -> tuple:
    f = alg.field
    x = vec(f, x)
    y = vec(f, y)
    out = [f.zero] * alg.dim
    for (i, j), terms in alg.sc.items():
        coeff = sub(f, mul(f, x[i], y[j]), mul(f, x[j], y[i]))
        if coeff:
            for k, c in terms:
                out[k] = add(f, out[k], mul(f, coeff, c))
    return tuple(out)


def bracket_subspaces(alg, a: Subspace, b: Subspace) -> Subspace:
    vecs = [bracket(alg, x, y) for x in a.basis.rows for y in b.basis.rows]
    return Subspace.from_vectors(alg.field, alg.dim, vecs)


def derived(alg) -> Subspace:
    full = alg.full_space()
    return bracket_subspaces(alg, full, full)


def centralizer(alg, s: Subspace) -> Subspace:
    f, n = alg.field, alg.dim
    rows = []
    for t in s.basis.rows:
        cols = [bracket(alg, basis_vec(f, n, i), t) for i in range(n)]
        rows.extend(zip(*cols))
    if not rows:
        return alg.full_space()
    return kernel(Matrix(f, tuple(rows)))


def center(alg) -> Subspace:
    return centralizer(alg, alg.full_space())


def ad_matrix(alg, j: int) -> Matrix:
    """Matrix of x -> [x, e_j]: column i is the dense [e_i, e_j]."""
    f, n = alg.field, alg.dim
    cols = [bracket(alg, basis_vec(f, n, i), basis_vec(f, n, j)) for i in range(n)]
    return Matrix(f, tuple(zip(*cols)))


def center_preimage(alg, z: Subspace) -> Subspace:
    if z.is_full():
        return alg.full_space()
    constraints = z.annihilator()
    rows = []
    for j in range(alg.dim):
        rows.extend((constraints @ ad_matrix(alg, j)).rows)
    if not rows:
        return alg.full_space()
    return kernel(Matrix(alg.field, tuple(rows)))


def second_center(alg) -> Subspace:
    return center_preimage(alg, center(alg))


def lower_central_series(alg) -> list:
    full = alg.full_space()
    series = [full]
    while True:
        nxt = bracket_subspaces(alg, full, series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
        if nxt.is_zero:
            break
    return series


def upper_central_series(alg) -> list:
    series = [alg.zero_space()]
    while True:
        nxt = center_preimage(alg, series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
        if nxt.is_full():
            break
    return series


def generator_indices(alg) -> list:
    """Each i with e_i outside L' + span of the indices kept before it."""
    f, n = alg.field, alg.dim
    span = derived(alg)
    out = []
    for i in range(n):
        if span.is_full():
            break
        grown = Subspace.from_vectors(f, n, span.basis.rows + (basis_vec(f, n, i),))
        if grown.dim > span.dim:
            out.append(i)
            span = grown
    return out


def validate(alg) -> list:
    """Jacobi residuals over basis triples, from dense bracket_basis and basis_vec tuples."""
    f, n = alg.field, alg.dim
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                r = alg._bracket(alg.bracket_basis(i, j), basis_vec(f, n, k))
                r = add_vec(f, r, alg._bracket(alg.bracket_basis(j, k), basis_vec(f, n, i)))
                r = add_vec(f, r, alg._bracket(alg.bracket_basis(k, i), basis_vec(f, n, j)))
                if not is_zero_vec(r):
                    violations.append(JacobiViolation((i, j, k), r))
    return violations


def check_subalgebra(alg, s: Subspace) -> None:
    for x in s.basis.rows:
        for y in s.basis.rows:
            if not s.contains(alg._bracket(x, y)):
                raise NotSubalgebraError(f"[{x}, {y}] leaves the subspace")


def restrict(alg, s: Subspace) -> LieAlgebra:
    """The bracket of s in its own basis coordinates (s must be closed)."""
    check_subalgebra(alg, s)
    f = alg.field
    rows = s.basis.rows
    if not rows:
        return LieAlgebra(f, 1, {})
    # coordinates w.r.t. the rref basis: read off pivot positions
    pivots = [next(c for c, xv in enumerate(row) if xv) for row in rows]
    sc = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            w = alg._bracket(rows[i], rows[j])
            terms = [(k, w[pc]) for k, pc in enumerate(pivots) if w[pc]]
            if terms:
                sc[(i, j)] = tuple(terms)
    return LieAlgebra(f, len(rows), sc)
