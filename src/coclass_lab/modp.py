"""Vectorized exact arithmetic mod p on numpy int64 arrays.

These are the hot-path counterparts of :mod:`linalg` for prime fields:
batches of candidate matrices are filtered with tensor contractions and
explicit reductions mod p.  int64 arithmetic is exact only while every
contraction step satisfies ``terms * (p - 1)**k < 2**63``, where the step
sums ``terms`` products of ``k`` residues in [0, p).  At p < 2^16 a
two-factor step allows about 2^31 terms and a three-factor step about
2^15, which is why large contractions are split into two-operand steps
and each step's result is reduced before the next step multiplies it.

Every reduction on an array goes through ``residue``, x - (x // p) p in
place, which costs half of ``x % p`` or less: numpy divides an integer
array by a scalar with a multiply and a shift, but ``%`` divides entry by
entry.  The batched eliminations, ``batch_pivot_rows`` (and with it
``batch_invertible``) and ``batch_inverse``, share one swap-free
elimination that delays reduction:
only the pivot column and the scaled pivot row are reduced per column,
and the bound in ``_eliminate`` keeps every unreduced entry exact.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

# rows per block that spanning_rows reduces with one matmul
SPAN_BLOCK = 1024


def residue(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce an int64 array mod p in place, as x - (x // p) p; returns x.

    Equal to ``np.remainder(x, p)``, negative entries included, for p > 0.
    x is written, so it must be an array the caller owns (a read-only
    member array raises); pass a copy to keep the input.
    """
    q = x // p
    q *= p
    x -= q
    return x


@lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """inverse_table(p)[a] = a^-1 mod p for a in 1..p-1 (index 0 unused)."""
    table = np.zeros(p, dtype=np.int64)
    table[1:] = [pow(a, p - 2, p) for a in range(1, p)]
    return table


def structure_tensor(algebra) -> np.ndarray:
    """Dense T[i, j, k] with [e_i, e_j]_k = T[i, j, k] (prime field only)."""
    if not algebra.field.is_prime:
        raise ValueError("structure tensor fast path needs a prime field")
    n = algebra.dim
    T = np.zeros((n, n, n), dtype=np.int64)
    for (i, j), terms in algebra.sc.items():
        for k, c in terms:
            T[i, j, k] = c
            T[j, i, k] = (-c) % algebra.field.p
    return T


def matrix_to_array(m, ncols: int) -> np.ndarray:
    """The matrix as a (rows, ncols) int64 array; ncols is needed when it has no rows."""
    return np.array(m.rows, dtype=np.int64).reshape(len(m.rows), ncols)


def subspace_constraints(s) -> np.ndarray:
    """Rows C with s = {x : C x = 0}; shape (n - dim, n)."""
    return matrix_to_array(s.annihilator, s.ambient_dim)


def spanning_rows(rows: np.ndarray, p: int, rank: Optional[int] = None) -> list:
    """Indices of the rows of an (N, m) array that span its row space mod p.

    Each row that is not a combination of earlier rows is kept.  Rows are
    streamed in blocks of SPAN_BLOCK against the basis found so far, kept
    fully reduced (a 1 in each pivot column, 0 in the other pivot columns),
    so one matmul reduces a whole block against it and a row is dependent
    exactly when its residue is zero.  Only the first nonzero residue of a
    block joins the basis at a time; the rest of the block after it is
    reduced by that one row.  The work is O(N m r) for a span of dimension
    r, instead of an elimination across all N rows.

    The scan stops once it has m rows, or ``rank`` rows when the caller
    knows the dimension of the row space: no block after the one holding
    the last pick is read.  A ``rank`` below the true dimension returns
    only that many of the spanning rows.
    """
    inv = inverse_table(p)
    m = rows.shape[1]
    limit = m if rank is None else rank
    basis = np.zeros((0, m), dtype=np.int64)
    pivots = []
    picked = []
    for start in range(0, len(rows), SPAN_BLOCK):
        if len(picked) == limit:
            break
        R = residue(rows[start : start + SPAN_BLOCK].astype(np.int64), p)
        if pivots:
            R = residue(R - R[:, pivots] @ basis, p)
        live = R.any(axis=1)
        while live.any():
            i = int(np.argmax(live))
            c = int(np.argmax(R[i] != 0))
            v = residue(R[i] * inv[R[i, c]], p)
            basis = np.concatenate([residue(basis - basis[:, c : c + 1] * v, p), v[None]])
            pivots.append(c)
            picked.append(start + i)
            rest = R[i + 1 :]
            rest -= rest[:, c : c + 1] * v
            residue(rest, p)
            live[: i + 1] = False
            live[i + 1 :] = rest.any(axis=1)
    return picked


def spanning_maps(maps: np.ndarray, p: int) -> np.ndarray:
    """The maps of a (B, n, n) array that ``spanning_rows`` keeps, as (d, n, n)."""
    count, n, _ = maps.shape
    return maps[np.array(spanning_rows(maps.reshape(count, n * n), p), dtype=np.int64)]


def displacement_basis(maps: np.ndarray, p: int) -> np.ndarray:
    """A (d, n, n) basis of span{F - I} mod p for a (B, n, n) array of maps F:
    the displacements, reduced to [0, p), that ``spanning_maps`` keeps."""
    return spanning_maps(residue(maps - np.eye(maps.shape[1], dtype=np.int64), p), p)


def _eliminate(M: np.ndarray, n: int, p: int, full: bool) -> tuple:
    """Eliminate the first n columns of a (B, h, w) batch, h >= n, in place, without row swaps.

    Entries must start in [0, p).  For each column c every matrix takes as
    pivot its first row that has not been a pivot yet and whose entry in
    column c is nonzero mod p; that row, scaled so the entry is 1, is
    subtracted from the other rows over columns c + 1 and after: from every
    row when ``full`` (Gauss-Jordan), from the rows not yet used otherwise.
    Column c itself is never read again.  Returns (invertible mask, (B, n)
    pivot rows): pivot row c holds the row that reduced column c, and where
    the mask is False the pivots are meaningless.

    Reduction is delayed: only column c (to pick the pivot and its factors)
    and the scaled pivot row are reduced, through ``residue``; the other
    rows are not.  A factor and a pivot-row entry lie in [0, p), so each
    column moves an entry by less than p^2 and every entry stays below
    p + n p^2 in absolute value.  The unreduced pivot row times an inverse
    in [0, p) stays below n p^3, which is under 2^63 for p < 2^16 and
    n < 2^15.  The caller reduces what it reads.
    """
    B = len(M)
    idx = np.arange(B)
    inv = inverse_table(p)
    used = np.zeros(M.shape[:2], dtype=bool)
    pivots = np.zeros((B, n), dtype=np.int64)
    ok = np.ones(B, dtype=bool)
    for c in range(n):
        col = residue(M[:, :, c].copy(), p)
        free = np.where(used, 0, col)
        piv = np.argmax(free != 0, axis=1)
        pivval = free[idx, piv]
        ok &= pivval != 0
        factors = col if full else free
        factors[idx, piv] = 0
        row = M[idx, piv, c + 1 :]
        row *= inv[pivval][:, None]  # a singular column has pivval 0, so nothing is subtracted
        residue(row, p)
        M[:, :, c + 1 :] -= factors[:, :, None] * row[:, None, :]
        if full:
            M[idx, piv, c + 1 :] = row
        used[idx, piv] = True
        pivots[:, c] = piv
    return ok, pivots


def batch_invertible(mats: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of invertibility for a (B, n, n) batch, Gaussian mod p."""
    return batch_pivot_rows(mats, p)[0]


def batch_pivot_rows(mats: np.ndarray, p: int) -> tuple:
    """(full column rank mask, (B, w) pivot rows) of a (B, h, w) batch, h >= w.

    Where the mask is True the w pivot rows of the elimination are
    independent; elsewhere they are meaningless.
    """
    A = residue(mats.astype(np.int64), p)
    return _eliminate(A, A.shape[2], p, full=False)


def batch_inverse(mats: np.ndarray, p: int) -> tuple:
    """Gauss-Jordan mod p on a (B, n, n) batch: (inverses, invertible mask).

    Without row swaps the row operations E take the matrix A to a
    permutation P, with its 1 in column c at pivot row c, so
    A^-1 = P^T E: row c of the inverse is the right block's pivot row c.
    Rows of the inverse of a singular matrix are meaningless; callers read
    them only where the mask is True.
    """
    B, n, _ = mats.shape
    M = np.zeros((B, n, 2 * n), dtype=np.int64)
    M[:, :, :n] = residue(mats.astype(np.int64), p)
    M[:, :, n:] = np.eye(n, dtype=np.int64)
    ok, pivots = _eliminate(M, n, p, full=True)
    return residue(np.take_along_axis(M[:, :, n:], pivots[:, :, None], axis=1), p), ok


def batch_commuting_form(mats: np.ndarray, T: np.ndarray, p: int) -> np.ndarray:
    """S[b,i,j,:] = [f(e_i), e_j]; f commuting iff S + S^T(i<->j) vanishes."""
    n = T.shape[0]
    S = np.matmul(residue(mats.transpose(0, 2, 1).astype(np.int64), p), T.reshape(n, n * n))
    return residue(S, p).reshape(-1, n, n, n)


def batch_is_homomorphism(mats: np.ndarray, T: np.ndarray, p: int) -> np.ndarray:
    """Mask of f([e_i,e_j]) == [f(e_i), f(e_j)] over all basis pairs.

    With S = batch_commuting_form(mats, T, p),
    [f(e_i), f(e_j)] = sum_m f_mj [f(e_i), e_m] = sum_m S[b,i,m,:] f_mj.

    Both f([e_i, e_j]) and [f(e_i), f(e_j)] are antisymmetric in (i, j), so
    they agree on every pair once they agree on the pairs i < j (at i = j
    both vanish).  Those pairs are checked one basis row i at a time, on
    (B, n - i - 1, n) slices, so no (B, n, n, n) temporary is built beside S.
    """
    n = T.shape[0]
    S = batch_commuting_form(mats, T, p)
    F = residue(mats.astype(np.int64), p)
    Ft = F.transpose(0, 2, 1)
    ok = np.ones(len(mats), dtype=bool)
    for i in range(n - 1):
        lhs = np.matmul(T[i, i + 1 :], Ft)  # f([e_i, e_j]) for j > i, (b, j, r)
        lhs -= np.matmul(Ft[:, i + 1 :], S[:, i])  # [f(e_i), f(e_j)]
        ok &= ~residue(lhs, p).any(axis=(1, 2))
    return ok


def batch_is_commuting(mats: np.ndarray, T: np.ndarray, p: int) -> np.ndarray:
    """Mask of [f(e_i), e_j] + [f(e_j), e_i] == 0 over all basis pairs."""
    S = batch_commuting_form(mats, T, p)
    sym = S + S.transpose(0, 2, 1, 3)
    # for odd p the symmetrized condition subsumes the diagonal [f(e_i), e_i] = 0
    return ~residue(sym, p).any(axis=(1, 2, 3))


def batch_outside(columns: np.ndarray, constraints: np.ndarray, p: int) -> np.ndarray:
    """(B, k) mask: column j of columns[b] lies outside {x : C x = 0} (none for C of shape (0, n))."""
    return residue(np.matmul(constraints, columns), p).any(axis=1)
