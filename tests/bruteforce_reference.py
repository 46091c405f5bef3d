"""The brute force over all p^(n^2) matrices, kept as a reference for the tests.

The library's oracle (``search._bruteforce``) filters only the points of
the commuting hull C, which hold every commuting and every central
automorphism.  Aut(L) does not lie in C, so ``enumerate_aut_bruteforce``
needs every matrix; ``bruteforce`` filters them all once and then masks
them per kind, as the oracle did before it drew from C.  Both refuse, as
the oracle does, when p^(n^2) exceeds ``search.BRUTE_FORCE_LIMIT``, read
at call time.
"""

import numpy as np

from coclass_lab import modp, search


def bruteforce(algebra, kinds: tuple) -> tuple:
    """One set per kind ("full", "commuting" or "central") among all p^(n^2) matrices."""
    p, n = algebra.field.p, algebra.dim
    count = p ** (n * n)
    if count > search.BRUTE_FORCE_LIMIT:
        raise search.BudgetExceededError(search.BRUTE_FORCE_LIMIT, count, f"p^(n^2) = {p}^{n * n}")
    mats = search._digits(p, n * n, np.arange(count)).reshape(count, n, n)
    T = modp.structure_tensor(algebra)
    mats = mats[modp.batch_invertible(mats, p)]
    mats = mats[modp.batch_is_homomorphism(mats, T, p)]
    sets = []
    for kind in kinds:
        keep = slice(None)
        if kind == "commuting":
            keep = modp.batch_is_commuting(mats, T, p)
        elif kind == "central":
            disp = modp.residue(mats - np.eye(n, dtype=np.int64), p)
            keep = ~modp.batch_outside(disp, modp.subspace_constraints(algebra.center()), p).any(axis=1)
        sets.append(search._finish_set(algebra, kind, mats[keep]))
    return tuple(sets)


def enumerate_aut_bruteforce(algebra):
    """Ground truth: filter all p^(n^2) matrices by the automorphism predicate."""
    return bruteforce(algebra, ("full",))[0]
