"""The original dense definitions of the algebra invariants, kept as references.

``LieAlgebra`` now brackets through a per-index table of nonzero brackets
and reads every invariant from its cached central series.  These are the
definitions it replaced: the bracket as a loop over the whole structure
table, L' as the span of all basis brackets, Z(L) as the centralizer of
L, Z_2(L) as the preimage of Z(L) under every ad e_j, and the two series
as iterations of those.  The tests require the library to agree with them.
"""

from coclass_lab.linalg import Matrix, Subspace, basis_vec, kernel, vec


def bracket(alg, x, y) -> tuple:
    f = alg.field
    x = vec(f, x)
    y = vec(f, y)
    out = [f.zero] * alg.dim
    for (i, j), terms in alg.sc.items():
        coeff = f.sub(f.mul(x[i], y[j]), f.mul(x[j], y[i]))
        if coeff:
            for k, c in terms:
                out[k] = f.add(out[k], f.mul(coeff, c))
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


def center_preimage(alg, z: Subspace) -> Subspace:
    if z.is_full():
        return alg.full_space()
    constraints = z.annihilator()
    rows = []
    for j in range(alg.dim):
        rows.extend((constraints @ alg.ad_matrix(j)).rows)
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
