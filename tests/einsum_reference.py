"""The unfactored three-operand contractions, kept as references for the tests.

These are the original ``np.einsum`` formulas of ``modp.batch_is_homomorphism``
and ``maps.identity_suite_batch``, read straight from D and T with no
Jacobi step, and reduced mod p only at the end.  ``optimize=True`` lets
einsum contract them pairwise in its cheapest order; every entry of an
intermediate and every partial sum is then below n^2 (p - 1)^3, the bound
of the one-shot evaluation.  A three-factor product of residues is below
2^48 for p < 2^16, so at the dimensions the tests use they are exact in
int64 at every allowed prime; the library's factored versions must agree
with them.
"""

import numpy as np

from coclass_lab import modp
from coclass_lab.maps import IDENTITY_NAMES


def is_homomorphism(mats: np.ndarray, T: np.ndarray, p: int) -> np.ndarray:
    lhs = np.einsum("ijl,brl->bijr", T, mats, optimize=True)
    rhs = np.einsum("bli,bmj,lmr->bijr", mats, mats, T, optimize=True)
    return (((lhs - rhs) % p) == 0).all(axis=(1, 2, 3))


def identity_counts(algebra, mats: np.ndarray, chunk: int = 2048) -> dict:
    p = algebra.field.p
    T = modp.structure_tensor(algebra)
    n = algebra.dim
    eye = np.eye(n, dtype=np.int64)
    cz = modp.subspace_constraints(algebra.center())
    cz2 = modp.subspace_constraints(algebra.second_center())
    zbasis = modp.matrix_to_array(algebra.center().basis, algebra.dim) if algebra.center().dim else None
    counts = {name: 0 for name in IDENTITY_NAMES}
    for start in range(0, mats.shape[0], chunk):
        F = mats[start : start + chunk] % p
        D = (F - eye) % p
        S1 = np.einsum("bli,ljr->bijr", F, T, optimize=True)
        S2 = np.einsum("imr,bmj->bijr", T, F, optimize=True)
        counts["bracket_swap"] += int(np.count_nonzero(((S1 - S2) % p).any(axis=3)))
        Sd1 = np.einsum("bli,ljr->bijr", D, T, optimize=True)
        Sd2 = np.einsum("imr,bmj->bijr", T, D, optimize=True)
        counts["displacement_swap"] += int(np.count_nonzero(((Sd1 - Sd2) % p).any(axis=3)))
        if zbasis is not None and cz.shape[0]:
            imgs = np.einsum("brl,zl->brz", F, zbasis, optimize=True)
            res = np.einsum("cn,bnz->bcz", cz, imgs, optimize=True) % p
            counts["center_preserved"] += int(np.count_nonzero(res.any(axis=1)))
        X = np.einsum("bai,jkl,alr->bijkr", D, T, T, optimize=True) % p
        counts["displacement_bracket_swap"] += int(
            np.count_nonzero(((X - X.transpose(0, 2, 1, 3, 4)) % p).any(axis=4))
        )
        Y = np.einsum("pal,bai,jlr->bjpir", T, D, T, optimize=True) % p
        sym = (Y + Y.transpose(0, 2, 1, 3, 4)) % p
        counts["double_bracket_vanishes"] += int(np.count_nonzero(sym.any(axis=4)))
        rhs = 2 * Y.transpose(0, 3, 2, 1, 4)  # Y[b,k,j,i,r] -> axes (b,i,j,k,r)
        counts["double_bracket_factor"] += int(np.count_nonzero(((X - rhs) % p).any(axis=4)))
        counts["displacement_kills_brackets"] += int(np.count_nonzero(X.any(axis=4)))
        if cz2.shape[0]:
            res = np.einsum("cn,bni->bci", cz2, D, optimize=True) % p
            counts["displacement_in_second_center"] += int(np.count_nonzero(res.any(axis=1)))
    return counts
