"""Vectorized exact arithmetic mod p on numpy int64 arrays.

These are the hot-path counterparts of :mod:`linalg` for prime fields:
batches of candidate matrices are filtered with tensor contractions and
explicit ``% p`` reductions.  int64 arithmetic is exact only while every
contraction step satisfies ``terms * (p - 1)**k < 2**63``, where the step
sums ``terms`` products of ``k`` residues in [0, p); so every intermediate
is reduced mod p before the next step uses it.  At p < 2^16 a two-factor
step allows about 2^31 terms and a three-factor step about 2^15, which is
why large contractions are split into two-operand steps.  The two batched
eliminations, ``batch_invertible`` and ``batch_inverse``, share one pivot step.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# rows per block that spanning_rows reduces with one matmul
SPAN_BLOCK = 1024


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
    return matrix_to_array(s.annihilator(), s.ambient_dim)


def spanning_rows(rows: np.ndarray, p: int) -> list:
    """Indices of the rows of an (N, m) array that span its row space mod p.

    Each row that is not a combination of earlier rows is kept.  Rows are
    streamed in blocks of SPAN_BLOCK against the basis found so far, kept
    fully reduced (a 1 in each pivot column, 0 in the other pivot columns),
    so one matmul reduces a whole block against it and a row is dependent
    exactly when its residue is zero.  Only the first nonzero residue of a
    block joins the basis at a time; the rest of the block after it is
    reduced by that one row.  The work is O(N m r) for a span of dimension
    r, instead of an elimination across all N rows.
    """
    inv = inverse_table(p)
    m = rows.shape[1]
    basis = np.zeros((0, m), dtype=np.int64)
    pivots = []
    picked = []
    for start in range(0, len(rows), SPAN_BLOCK):
        if len(picked) == m:
            break
        R = rows[start : start + SPAN_BLOCK] % p
        if pivots:
            R = (R - R[:, pivots] @ basis) % p
        live = R.any(axis=1)
        while live.any():
            i = int(np.argmax(live))
            c = int(np.argmax(R[i] != 0))
            v = R[i] * inv[R[i, c]] % p
            basis = np.concatenate([(basis - basis[:, c : c + 1] * v) % p, v[None]])
            pivots.append(c)
            picked.append(start + i)
            rest = R[i + 1 :]
            rest -= rest[:, c : c + 1] * v
            np.remainder(rest, p, out=rest)
            live[: i + 1] = False
            live[i + 1 :] = rest.any(axis=1)
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
    M[:, c, :] = (M[:, c, :] * inverse_table(p)[np.where(pivval == 0, 1, pivval)][:, None]) % p


def batch_invertible(mats: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of invertibility for a (B, n, n) batch, Gaussian mod p."""
    A = (mats % p).astype(np.int64)
    B, n, _ = A.shape
    ok = np.ones(B, dtype=bool)
    for c in range(n):
        _pivot(A, c, p, ok)
        factors = A[:, c + 1 :, c]
        A[:, c + 1 :, :] = (A[:, c + 1 :, :] - factors[:, :, None] * A[:, c, None, :]) % p
    return ok


def batch_inverse(mats: np.ndarray, p: int) -> tuple:
    """Gauss-Jordan mod p on a (B, n, n) batch: (inverses, invertible mask).

    Rows of the inverse of a singular matrix are meaningless; callers read
    them only where the mask is True.
    """
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


def batch_commuting_form(mats: np.ndarray, T: np.ndarray, p: int) -> np.ndarray:
    """S[b,i,j,:] = [f(e_i), e_j]; f commuting iff S + S^T(i<->j) vanishes."""
    n = T.shape[0]
    S = np.matmul(mats.transpose(0, 2, 1) % p, T.reshape(n, n * n))
    return np.remainder(S, p, out=S).reshape(-1, n, n, n)


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
    F = mats % p
    Ft = F.transpose(0, 2, 1)
    ok = np.ones(len(mats), dtype=bool)
    for i in range(n - 1):
        lhs = np.matmul(T[i, i + 1 :], Ft)  # f([e_i, e_j]) for j > i, (b, j, r)
        lhs -= np.matmul(Ft[:, i + 1 :], S[:, i])  # [f(e_i), f(e_j)]
        ok &= ~np.remainder(lhs, p, out=lhs).any(axis=(1, 2))
    return ok


def batch_is_commuting(mats: np.ndarray, T: np.ndarray, p: int) -> np.ndarray:
    """Mask of [f(e_i), e_j] + [f(e_j), e_i] == 0 over all basis pairs."""
    S = batch_commuting_form(mats, T, p)
    sym = S + S.transpose(0, 2, 1, 3)
    # for odd p the symmetrized condition subsumes the diagonal [f(e_i), e_i] = 0
    return ~np.remainder(sym, p, out=sym).any(axis=(1, 2, 3))


def batch_outside(columns: np.ndarray, constraints: np.ndarray, p: int) -> np.ndarray:
    """(B, k) mask: column j of columns[b] lies outside {x : C x = 0} (none for C of shape (0, n))."""
    return (np.matmul(constraints, columns) % p).any(axis=1)
