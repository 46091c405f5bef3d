"""Commuting enumerators the library replaced, kept as oracles for the tests.

* ``assignment_blocks``: every point of g + V, V the kernel of the level
  rows, in blocks of at most ``search.CHUNK`` rows, without splitting V
  into Z^r and a complement.
* ``filtered_commuting``: the assignments whose images are independent
  modulo L', through the homomorphism filter.  It lists the commuting set
  S point by point, with no classes modulo the central maps.
* ``commuting_derivations`` and ``derivation_path``: the invertible points
  of I + W, W the derivations D with D(L) in Z_2 and B_D = 0, where
  B_D(x, y) = [Dx, y] + [Dy, x].  When [Z_2, Z_2] = 0 that is S: take
  f = I + D commuting and invertible.  Then D(L) lies in Z_2 (the filter
  argument in the ``search`` docstring), so [Dx, Dy] = 0 and the
  homomorphism identity D[x, y] = [Dx, y] + [x, Dy] + [Dx, Dy] says
  exactly that D is a derivation; as p is odd, f commutes exactly when
  B_D = 0.  Conversely every such D with I + D invertible gives a
  commuting automorphism.  p^(dim W) is at most p^(dim V), since D is
  fixed by the D(g_t) and those satisfy the level rows.

The library's enumerator, class representatives times the central set,
must agree with these wherever they apply.
"""

import numpy as np

from coclass_lab import modp, search
from coclass_lab.linalg import Matrix, kernel


def assignment_blocks(algebra, budget: int):
    """Every generator assignment that satisfies the level rows, as (B, r, n) blocks."""
    p = algebra.field.p
    n = algebra.dim
    g, V = search._assignment_space(algebra, budget)
    count = p ** len(V)
    starts = range(0, count, search.CHUNK)
    points = (search._span_points(V, p, np.arange(start, min(count, start + search.CHUNK))) for start in starts)
    return (modp.residue(g + block.reshape(-1, len(g), n), p) for block in points)


def filtered_commuting(algebra, budget: int):
    """The commuting set from every assignment with images independent modulo L'."""
    p = algebra.field.p
    n = algebra.dim
    blocks = assignment_blocks(algebra, budget)  # refuses before the presentation is built
    pres = algebra.generator_presentation()
    T = modp.structure_tensor(algebra)
    quotient = modp.subspace_constraints(algebra.derived())  # Λ, (r, n)
    kept = [np.zeros((0, n, n), dtype=np.int64)]
    for block in blocks:
        block = block[modp.batch_invertible(block @ quotient.T, p)]
        if len(block):
            kept.append(search._filter_assignments(algebra, pres, T, block))
    return search._finish_set(algebra, "commuting", kept)


def commuting_derivations(algebra, U: np.ndarray) -> np.ndarray:
    """Basis, as (m, k, n), of the X with D = U X a derivation and B_D = 0.

    U is an n x k basis of Z_2 as columns.  Both conditions are linear in
    X, so each unknown X[q, j] contributes the residues of D = U e_q e_j^T:
    B_D(e_a, e_b) = [De_a, e_b] + [De_b, e_a] and the derivation rows
    D[e_a, e_b] - [De_a, e_b] - [e_a, De_b].  W = U X is their joint kernel.
    """
    p = algebra.field.p
    n, k = U.shape
    T = modp.structure_tensor(algebra)
    units = np.einsum("aq,jb->qjab", U, np.eye(n, dtype=np.int64)).reshape(k * n, n, n)
    S = modp.batch_commuting_form(units, T, p)  # [De_a, e_b]
    swapped = S.transpose(0, 2, 1, 3)
    image = np.matmul(T.reshape(n * n, n), units.transpose(0, 2, 1)).reshape(k * n, n, n, n)  # D[e_a, e_b]
    residues = np.concatenate([(S + swapped).reshape(k * n, -1), (image - S + swapped).reshape(k * n, -1)], axis=1)
    system = modp.residue(residues, p).T
    system = system[modp.spanning_rows(system, p)]
    W = kernel(Matrix(algebra.field, tuple(map(tuple, system.tolist()))))
    return modp.matrix_to_array(W.basis, k * n).reshape(W.dim, k, n)


def second_center_columns(algebra) -> np.ndarray:
    """U, a basis of Z_2 as the columns of an (n, k) array."""
    return modp.matrix_to_array(algebra.second_center().basis, algebra.dim).T


def derivation_path(algebra):
    """(I + W) ∩ GL, whether or not Z_2 is abelian (it is S only when it is)."""
    U = second_center_columns(algebra)
    return search._invertible_points(algebra, "commuting", U, commuting_derivations(algebra, U))
