"""Eliminations the library no longer runs, kept as references for the tests.

* ``rref_rows``, ``rank``, ``reference_invert``, ``kernel`` and ``contains``: the
  exact core's Gauss-Jordan as it was before arithmetic moved to rows,
  one scalar at a time through ``add``, ``sub``, ``mul``, ``neg`` and
  ``canon``, over the whole row at every step, with every input vector
  canonicalised and the kernel's basis built by per-scalar negation.
* ``spanning_rows``: the pivot columns of one forward elimination of the
  (m, N) transpose, across all N rows at once.
* ``batch_invertible`` and ``batch_inverse``: Gaussian and Gauss-Jordan
  elimination that swaps each pivot row into place and reduces the whole
  array mod p after every column.
* ``homomorphism_mask``: the homomorphism check on all n^2 basis pairs.
* ``filter_assignments``: the extension filter with its n x n
  invertibility test and its commuting mask, so it keeps invertible &
  homomorphism & commuting.
* ``central_candidates``: every candidate id + phi of the central
  enumerator as an n x n matrix, with the n x n invertibility mask,
  built through the (generators | basis of L') transition matrix that
  the library replaced by the reduced annihilator of L'.
* ``invertible_points``: the invertible points of I + U X with a k x k
  test on every one of the p^m points and an n x n inverse of every
  member, which must be a member.

The library's streamed span basis, its swap-free elimination with delayed
reduction, its filter (which relies on the generator images being
independent modulo L' and on the level rows) and its head/tail split with
Woodbury inverses must agree with these.
"""

import numpy as np

from coclass_lab import modp
from coclass_lab.linalg import Matrix, basis_vec, invert


def add(field, a, b):
    return (a + b) % field.p if field.p else a + b


def sub(field, a, b):
    return (a - b) % field.p if field.p else a - b


def mul(field, a, b):
    return (a * b) % field.p if field.p else a * b


def neg(field, a):
    return (-a) % field.p if field.p else -a


def rref_rows(field, rows) -> tuple:
    """Gauss-Jordan over whole rows, one scalar at a time: (reduced rows, pivot columns)."""
    rows = [[field.canon(x) for x in r] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [mul(field, inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [sub(field, x, mul(field, factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(field, rows) -> int:
    return len(rref_rows(field, rows)[1])


def reference_invert(field, rows):
    """Rows of the inverse of a square matrix, or None when it is singular."""
    n = len(rows)
    one, zero = field.canon(1), field.canon(0)
    aug = [list(row) + [one if j == i else zero for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = rref_rows(field, aug)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in reduced)


def span_rows(field, rows) -> tuple:
    """The reduced row-echelon basis of the span of rows."""
    if not rows:
        return ()
    reduced, pivots = rref_rows(field, rows)
    return tuple(tuple(reduced[i]) for i in range(len(pivots)))


def kernel(field, rows, ncols: int) -> tuple:
    """The reduced row-echelon basis of {x : rows x = 0}."""
    reduced, pivots = rref_rows(field, rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.canon(0)] * ncols
        v[fc] = field.canon(1)
        for r, pc in enumerate(pivots):
            v[pc] = neg(field, reduced[r][fc])
        basis.append(v)
    return span_rows(field, basis)


def contains(field, basis_rows, v) -> bool:
    """v in the span of a reduced row-echelon basis, by the residual after elimination."""
    residual = [field.canon(x) for x in v]
    for row in basis_rows:
        c = next(i for i, x in enumerate(row) if x)
        if residual[c]:
            factor = residual[c]
            residual = [sub(field, x, mul(field, factor, y)) for x, y in zip(residual, row)]
    return not any(residual)


def spanning_rows(rows: np.ndarray, p: int) -> list:
    A = rows.T % p
    inv = modp.inverse_table(p)
    picked = []
    for row in range(A.shape[0]):
        live = A[row:].any(axis=0)
        if not live.any():
            break
        c = int(np.argmax(live))
        piv = row + int(np.argmax(A[row:, c] != 0))
        A[[row, piv], c:] = A[[piv, row], c:]
        A[row, c:] = A[row, c:] * inv[A[row, c]] % p
        A[row + 1 :, c:] = (A[row + 1 :, c:] - A[row + 1 :, c : c + 1] * A[row, c:]) % p
        picked.append(c)
    return picked


def _pivot(M: np.ndarray, c: int, p: int, ok: np.ndarray) -> None:
    """In place: swap the first row >= c with a nonzero in column c into row c, scale
    that entry to 1; clear ``ok`` where the column has no such row."""
    nz = M[:, c:, c] != 0
    ok &= nz.any(axis=1)
    piv = c + np.argmax(nz, axis=1)
    idx = np.arange(len(M))
    rows_c = M[idx, c, :].copy()
    M[idx, c, :] = M[idx, piv, :]
    M[idx, piv, :] = rows_c
    pivval = M[:, c, c]
    M[:, c, :] = (M[:, c, :] * modp.inverse_table(p)[np.where(pivval == 0, 1, pivval)][:, None]) % p


def batch_invertible(mats: np.ndarray, p: int) -> np.ndarray:
    A = (mats % p).astype(np.int64)
    B, n, _ = A.shape
    ok = np.ones(B, dtype=bool)
    for c in range(n):
        _pivot(A, c, p, ok)
        factors = A[:, c + 1 :, c]
        A[:, c + 1 :, :] = (A[:, c + 1 :, :] - factors[:, :, None] * A[:, c, None, :]) % p
    return ok


def batch_inverse(mats: np.ndarray, p: int) -> tuple:
    B, n, _ = mats.shape
    M = np.zeros((B, n, 2 * n), dtype=np.int64)
    M[:, :, :n] = mats % p
    M[:, :, n:] = np.eye(n, dtype=np.int64)
    ok = np.ones(B, dtype=bool)
    for c in range(n):
        _pivot(M, c, p, ok)
        factors = M[:, :, c].copy()
        factors[:, c] = 0
        M -= factors[:, :, None] * M[:, c, None, :]
        np.remainder(M, p, out=M)
    return M[:, :, n:], ok


def extend_assignments(algebra, pres, assignments) -> np.ndarray:
    """Full (B, n, n) maps of (B, r, n) generator assignments, through the presentation."""
    p = algebra.field.p
    n = algebra.dim
    arr = np.asarray(assignments, dtype=np.int64).reshape(-1, len(pres.generators), n)
    T = modp.structure_tensor(algebra)
    values = [arr[:, t, :] for t in range(len(pres.generators))]
    for t, s in pres.steps:
        values.append(np.einsum("bi,bj,ijk->bk", values[t], values[s], T) % p)
    cols = np.stack(values, axis=2) if values else np.zeros((len(arr), n, 0), dtype=np.int64)
    return np.matmul(cols, modp.matrix_to_array(pres.basis_inverse, n)) % p


def homomorphism_mask(mats: np.ndarray, S: np.ndarray, T: np.ndarray, p: int) -> np.ndarray:
    """f([e_i, e_j]) == [f(e_i), f(e_j)] on all n^2 pairs, through two (B, n, n, n) tensors."""
    lhs = np.matmul(T, mats.transpose(0, 2, 1)[:, None] % p)  # f([e_i, e_j]), (b,i,j,r)
    rhs = np.matmul(S.transpose(0, 1, 3, 2), mats[:, None] % p)  # (b,i,r,j)
    diff = lhs - rhs.transpose(0, 1, 3, 2)
    return ~np.remainder(diff, p, out=diff).any(axis=(1, 2, 3))


def filter_masks(algebra, mats: np.ndarray) -> tuple:
    """(invertible, homomorphism & commuting) masks over a (B, n, n) batch."""
    p = algebra.field.p
    T = modp.structure_tensor(algebra)
    S = modp.batch_commuting_form(mats, T, p)
    return (
        modp.batch_invertible(mats, p),
        homomorphism_mask(mats, S, T, p) & modp.batch_is_commuting(mats, T, p),
    )


def filter_assignments(algebra, pres, assignments, chunk: int = 8192) -> np.ndarray:
    """The kept maps of the full mask: invertible & homomorphism & commuting."""
    n = algebra.dim
    arr = np.asarray(assignments, dtype=np.int64).reshape(-1, len(pres.generators), n)
    kept = [np.zeros((0, n, n), dtype=np.int64)]
    for start in range(0, len(arr), chunk):
        mats = extend_assignments(algebra, pres, arr[start : start + chunk])
        invertible, genuine = filter_masks(algebra, mats)
        kept.append(mats[invertible & genuine])
    return np.concatenate(kept)


def central_candidates(algebra) -> tuple:
    """(every candidate id + phi as a (count, n, n) array, its n x n invertibility mask)."""
    field = algebra.field
    p = field.p
    n = algebra.dim
    center = algebra.center()
    derived = algebra.derived()
    comp = algebra.generator_indices()
    r = len(comp)
    d = center.dim
    count = p ** (d * r)
    cols = [basis_vec(field, n, i) for i in comp] + list(derived.basis.rows)
    minv_np = modp.matrix_to_array(invert(Matrix(field, tuple(zip(*cols)))), n)
    zb = modp.matrix_to_array(center.basis, n).reshape(d, n)

    idx = np.arange(count, dtype=np.int64)
    digits = np.empty((count, d * r), dtype=np.int64)
    for q in range(d * r):
        digits[:, q] = idx % p
        idx //= p
    coeffs = digits.reshape(count, d, r)
    phi_cols = np.einsum("qn,bqt->bnt", zb, coeffs) % p
    phi_ext = np.concatenate([phi_cols, np.zeros((count, n, n - r), dtype=np.int64)], axis=2)
    mats = (np.matmul(phi_ext, minv_np) + np.eye(n, dtype=np.int64)) % p
    return mats, modp.batch_invertible(mats, p)


def invertible_points(algebra, U: np.ndarray, X_basis: np.ndarray) -> np.ndarray:
    """Sorted (B, n, n) array of the invertible I + U X, X in the span of the (m, k, n) X_basis.

    Each of the p^m points is tested by det(I_k + X U), each member is
    inverted as an n x n matrix, and every inverse must be a member.
    """
    p = algebra.field.p
    n, k = U.shape
    m = len(X_basis)
    idx = np.arange(p**m, dtype=np.int64)
    coeffs = np.empty((p**m, m), dtype=np.int64)
    for i in range(m - 1, -1, -1):
        coeffs[:, i] = idx % p
        idx //= p
    X = (coeffs @ X_basis.reshape(m, k * n) % p).reshape(-1, k, n)
    X = X[batch_invertible(np.matmul(X, U) % p + np.eye(k, dtype=np.int64), p)]
    mats = (np.matmul(U, X) + np.eye(n, dtype=np.int64)) % p
    inverses, invertible = batch_inverse(mats, p)
    flat = mats.reshape(len(mats), n * n)
    closure = np.concatenate([flat, inverses.reshape(len(mats), n * n)])
    rows = np.dtype((np.void, 8 * n * n))  # one opaque item per matrix, for np.unique
    assert invertible.all()
    assert len(np.unique(flat.view(rows))) == len(flat) == len(np.unique(closure.view(rows)))
    return flat[np.lexsort(flat.T[::-1])].reshape(-1, n, n)  # row-major entry order
