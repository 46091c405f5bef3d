"""Linear maps on a Lie algebra and the commuting/central predicates.

Every predicate returns a :class:`DefectReport` whose witness list is
empty exactly when the property holds; failures carry the basis indices
and the residual vector, so a verdict is always replayable by hand.

The commuting property [f(x), x] = 0 for all x is checked on the basis
via its quadratic-form decomposition: with B(x) = [f(x), x] and
S(x, y) = [f(x), y] + [f(y), x],

    B(sum a_i e_i) = sum a_i^2 B(e_i) + sum_{i<j} a_i a_j S(e_i, e_j),

so B(e_i) = 0 for all i together with S(e_i, e_j) = 0 for all i < j is
equivalent to the full quantified statement, over any field and at any
field size.  The identity sweep :func:`identity_suite_batch` is two
contractions, U and W; the Jacobi identity gives every other tensor from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import modp
from .algebra import LieAlgebra
from .linalg import (
    Matrix,
    Vector,
    add_vec,
    basis_vec,
    invert,
    is_invertible,
    is_zero_vec,
    kernel,
    sub_vec,
    vec,
)

NOT_HOMOMORPHISM = "not_homomorphism"
NOT_INVERTIBLE = "not_invertible"
NOT_COMMUTING = "not_commuting"
NOT_CENTRAL = "not_central"

# members per block of the identity sweep; bounds its (B, n, n, n, n) tensors
IDENTITY_BLOCK = 2048


@dataclass(frozen=True)
class LinearMap:
    """n x n matrix acting on coordinates; column j is the image of e_j."""

    matrix: Matrix

    def __post_init__(self):
        if self.matrix.nrows != self.matrix.ncols:
            raise ValueError("linear maps on L must be square")

    @staticmethod
    def from_images(algebra: LieAlgebra, images: Sequence) -> "LinearMap":
        cols = [vec(algebra.field, img) for img in images]
        if len(cols) != algebra.dim:
            raise ValueError("need one image per basis vector")
        return LinearMap(Matrix(algebra.field, tuple(zip(*cols))))

    @staticmethod
    def from_image_map(algebra: LieAlgebra, assignments: dict) -> "LinearMap":
        """Images from {basis index: [(index, coeff), ...]}; others fixed."""
        f = algebra.field
        images = []
        for j in range(algebra.dim):
            if j in assignments:
                img = [f.zero] * algebra.dim
                for k, c in assignments[j]:
                    img[k] += f.canon(c)
                images.append(img)
            else:
                images.append(basis_vec(f, algebra.dim, j))
        return LinearMap.from_images(algebra, images)

    @property
    def dim(self) -> int:
        return self.matrix.nrows

    def apply(self, v: Vector) -> Vector:
        return self.matrix.apply(vec(self.matrix.field, v))

    def image_of_basis(self, j: int) -> Vector:
        return tuple(row[j] for row in self.matrix.rows)


@dataclass(frozen=True)
class DefectReport:
    """kind is None when the checked property holds (witnesses empty)."""

    kind: Optional[str]
    witnesses: tuple = ()

    @property
    def clean(self) -> bool:
        return not self.witnesses

    def __str__(self) -> str:
        if self.clean:
            return "clean"
        shown = ", ".join(f"{idx}: {res}" for idx, res in self.witnesses[:3])
        more = "" if len(self.witnesses) <= 3 else f" (+{len(self.witnesses) - 3} more)"
        return f"{self.kind} [{shown}{more}]"


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """compose(f, g)(x) = f(g(x)): g is applied first."""
    return LinearMap(f.matrix @ g.matrix)


def inverse(f: LinearMap) -> LinearMap:
    inv = invert(f.matrix)
    if inv is None:
        raise ValueError("map is singular")
    return LinearMap(inv)


def is_homomorphism(algebra: LieAlgebra, f: LinearMap) -> DefectReport:
    """f([e_i, e_j]) = [f(e_i), f(e_j)] on basis pairs (bilinearity suffices).

    f([e_i, e_j]) is sum c_k f(e_k) over the table's terms (k, c) of [e_i, e_j].
    """
    if f.dim != algebra.dim:
        raise ValueError("map/algebra dimension mismatch")
    field, n = algebra.field, algebra.dim
    witnesses = []
    images = f.matrix.transpose().rows
    zero = (field.zero,) * n
    for i in range(n):
        for j in range(i + 1, n):
            lhs = zero
            for k, c in algebra.sc.get((i, j), ()):
                lhs = field.sub_multiple(lhs, -c, images[k])
            rhs = algebra._bracket(images[i], images[j])
            residual = sub_vec(field, lhs, rhs)
            if not is_zero_vec(residual):
                witnesses.append(((i, j), residual))
    return DefectReport(None if not witnesses else NOT_HOMOMORPHISM, tuple(witnesses))


def is_automorphism(algebra: LieAlgebra, f: LinearMap) -> DefectReport:
    """Homomorphism plus invertibility; singularity is witnessed by a kernel vector."""
    hom = is_homomorphism(algebra, f)
    if not hom.clean:
        return hom
    if not is_invertible(f.matrix):
        witness = kernel(f.matrix).basis.rows[0]
        return DefectReport(NOT_INVERTIBLE, (((), witness),))
    return DefectReport(None)


def commuting_defect(algebra: LieAlgebra, f: LinearMap) -> DefectReport:
    """Residuals of B(e_i) = [f(e_i), e_i] and S(e_i, e_j), see module docstring."""
    if f.dim != algebra.dim:
        raise ValueError("map/algebra dimension mismatch")
    witnesses = []
    n, images = algebra.dim, f.matrix.transpose().rows
    # ad[i][j] = [f(e_i), e_j], from the brackets of e_j alone
    ad = [[algebra._bracket_with_basis(x, j) for j in range(n)] for x in images]
    for i in range(n):
        b = ad[i][i]
        if not is_zero_vec(b):
            witnesses.append(((i,), b))
    for i in range(n):
        for j in range(i + 1, n):
            s = add_vec(algebra.field, ad[i][j], ad[j][i])
            if not is_zero_vec(s):
                witnesses.append(((i, j), s))
    return DefectReport(None if not witnesses else NOT_COMMUTING, tuple(witnesses))


def is_commuting(algebra: LieAlgebra, f: LinearMap) -> bool:
    """Commuting automorphism: automorphism with [f(x), x] = 0 for all x."""
    return is_automorphism(algebra, f).clean and commuting_defect(algebra, f).clean


def central_defect(algebra: LieAlgebra, f: LinearMap) -> DefectReport:
    """(f - id)(e_i) must land in the center for every i."""
    center = algebra.center()
    witnesses = []
    for i in range(algebra.dim):
        d = sub_vec(algebra.field, f.image_of_basis(i), basis_vec(algebra.field, algebra.dim, i))
        if not center.contains(d):
            witnesses.append(((i,), d))
    return DefectReport(None if not witnesses else NOT_CENTRAL, tuple(witnesses))


def is_central(algebra: LieAlgebra, f: LinearMap) -> DefectReport:
    aut = is_automorphism(algebra, f)
    if not aut.clean:
        return aut
    return central_defect(algebra, f)


def commuting_witness(algebra: LieAlgebra, f: LinearMap):
    """(x, [f(x), x]) for one vector x with [f(x), x] != 0; None when f commutes.

    x is read off :func:`commuting_defect`: a diagonal failure
    B(e_i) != 0 yields x = e_i; a pure cross-term failure
    S(e_i, e_j) != 0 yields x = e_i + e_j, because
    B(e_i + e_j) = B(e_i) + B(e_j) + S(e_i, e_j).
    """
    defect = commuting_defect(algebra, f)
    if defect.clean:
        return None
    diag = {idx[0]: res for idx, res in defect.witnesses if len(idx) == 1}
    if diag:
        i = min(diag)
        x = basis_vec(algebra.field, algebra.dim, i)
    else:
        (i, j), _ = defect.witnesses[0]
        x = add_vec(
            algebra.field,
            basis_vec(algebra.field, algebra.dim, i),
            basis_vec(algebra.field, algebra.dim, j),
        )
    return x, algebra._bracket(f.matrix.apply(x), x)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

IDENTITY_NAMES = (
    "bracket_swap",                 # [f(x), y] = [x, f(y)]
    "displacement_swap",            # [f(x)-x, y] = [x, f(y)-y]
    "center_preserved",             # f(Z) inside Z
    "displacement_bracket_swap",    # [f(x)-x, [y,z]] = [f(y)-y, [x,z]]
    "double_bracket_vanishes",      # [y, [y, f(x)-x]] = 0, plus cross terms
    "double_bracket_factor",        # [f(x)-x, [y,z]] = 2 [z, [y, f(x)-x]]
    "displacement_kills_brackets",  # [f(x)-x, [y,z]] = 0
    "displacement_in_second_center",
)


def _count_nonzero_residues(a: np.ndarray, p: int) -> int:
    """Index tuples (all axes but the last) whose residue vector mod p is nonzero.

    Reduces ``a`` in place.
    """
    modp.residue(a, p)
    return int(np.count_nonzero(a.any(axis=-1)))


def identity_suite_batch(algebra: LieAlgebra, mats: np.ndarray, *, moves: Optional[np.ndarray] = None) -> dict:
    """Violation counts of the identity family over a (B, n, n) member batch.

    Vectorized for prime fields, so the suite can sweep every enumerated
    commuting automorphism of a catalog algebra.  Returns {identity name:
    count}.  It is tested against the pure-Python single-map report in
    ``tests/identity_reference.py``, which lists one witness per failing
    basis tuple and also runs over Q.

    A count is the number of (member, basis tuple) pairs that fail, so it
    is zero exactly when the single-map report is clean, but otherwise
    need not equal the length of that report's witness list:
    ``double_bracket_vanishes`` counts ordered pairs (j, j2), diagonal
    included, where the reference lists unordered ones.  Only zero versus
    nonzero is comparable between the two.

    Each residue is linear in the displacement D = F - I (``bracket_swap``
    is linear in F and vanishes at F = I, ``center_preserved`` is
    C_Z F z = C_Z D z as C_Z z = 0, the rest are built from D), so it
    vanishes on the batch when it vanishes on maps I + D whose D span the
    batch's displacements.  ``moves``, a (d, n, n) basis of that span that
    the caller holds (an ``AutomorphismSet``'s ``_moves``), gives those
    maps as I + moves; without it ``modp.displacement_basis`` computes the
    basis from the batch.  Only a nonzero count sends
    every member through the sweep, so counts stay exact.  Spanning F would
    not do: a residue is only affine in F, so on [I, 2I] the member I spans
    every F and passes while 2I, whose displacement is I, can fail.

    The sweep is two two-operand contractions, each reduced mod p:
    U[b,i,l,:] = [d_i, e_l] (d_i the displacement f(e_i) - e_i) and
    W[b,i,j,k,:] = [e_k, [d_i, e_j]] = sum_l U[b,i,j,l] T[k,l,:].  The rest is
    read from these two, X[b,i,j,k,:] = [d_i, [e_j, e_k]] = W[b,i,k,j,:] - W[b,i,j,k,:]
    by Jacobi, so T must satisfy the Jacobi identity (``load_catalog`` and the
    builtins ensure it, ``LieAlgebra.validate`` checks it).  Jacobi also gives the
    two double-bracket identities one residue, so their counts are equal.
    """
    p = algebra.field.p
    if not p:
        raise ValueError("batch suite needs a prime field")
    if moves is None:
        moves = modp.displacement_basis(mats, p)
    counts = _identity_counts(algebra, moves + np.eye(algebra.dim, dtype=np.int64))
    return _identity_counts(algebra, mats) if any(counts.values()) else counts


def _identity_counts(algebra: LieAlgebra, mats: np.ndarray) -> dict:
    """The sweep of :func:`identity_suite_batch` over every member, IDENTITY_BLOCK at a time."""
    p = algebra.field.p
    T = modp.structure_tensor(algebra)
    n = algebra.dim
    eye = np.eye(n, dtype=np.int64)
    T_l_kr = T.transpose(1, 0, 2).reshape(n, n * n)
    center = algebra.center()
    zbasis = modp.matrix_to_array(center.basis, n)
    cz = modp.subspace_constraints(center)
    cz2 = modp.subspace_constraints(algebra.second_center())
    counts = {name: 0 for name in IDENTITY_NAMES}
    for start in range(0, mats.shape[0], IDENTITY_BLOCK):
        F = modp.residue(mats[start : start + IDENTITY_BLOCK].astype(np.int64), p)
        D = modp.residue(F - eye, p)
        B = F.shape[0]
        # bracket_swap's residue S + S^T, S[i,j] = [f(e_i), e_j], is U + U^T, U[i,j] = [d_i, e_j]:
        # S - U = [e_i, e_j] is antisymmetric, so both identities get one count
        U = modp.batch_commuting_form(D, T, p)
        swap = _count_nonzero_residues(U + U.transpose(0, 2, 1, 3), p)
        counts["bracket_swap"] += swap
        counts["displacement_swap"] += swap
        imgs = modp.residue(np.matmul(F, zbasis.T), p)  # column z is f(z) for z in the center's basis
        counts["center_preserved"] += int(modp.batch_outside(imgs, cz, p).sum())
        W = np.matmul(U, T_l_kr).reshape(B, n, n, n, n)
        modp.residue(W, p)
        Wt = W.transpose(0, 1, 3, 2, 4)
        # Jacobi: [d, [a, b]] = -[a, [b, d]] - [b, [d, a]] = [a, [d, b]] - [b, [d, a]],
        # so X[i,j,k] = [d_i, [e_j, e_k]] = W[i,k,j] - W[i,j,k]; its entries lie in (-p, p)
        X = Wt - W
        counts["displacement_bracket_swap"] += _count_nonzero_residues(
            X - X.transpose(0, 2, 1, 3, 4), p
        )
        counts["displacement_kills_brackets"] += int(np.count_nonzero(X.any(axis=4)))
        del X
        # [e_j, [e_k, d_i]] + [e_k, [e_j, d_i]] = -(W[i,j,k] + W[i,k,j]), and the residue
        # [d_i, [e_j, e_k]] - 2 [e_k, [e_j, d_i]] = X + 2W is the same W[i,k,j] + W[i,j,k]
        double = _count_nonzero_residues(W + Wt, p)
        counts["double_bracket_vanishes"] += double
        counts["double_bracket_factor"] += double
        counts["displacement_in_second_center"] += int(modp.batch_outside(D, cz2, p).sum())
    return counts
