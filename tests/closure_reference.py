"""The ordered all-pairs closure scan, kept as a reference for the tests.

This is the closure check as it was before ``search.closure_check`` moved
to the spanning members: compose every member f with every member g, f
outer and g inner in canonical order, and stop at the first row that
holds a pair whose composition g o f does not commute.  It shares the
witness builder with the library but not the span argument, so it checks
that argument instead of relying on it.
"""

import numpy as np

from coclass_lab import modp
from coclass_lab.search import ClosureVerdict, _make_witness


def closure_scan(aset) -> ClosureVerdict:
    """Verdict of the ordered scan; ``pair_count`` counts the compositions it tested."""
    algebra = aset.algebra
    p = algebra.field.p
    T = modp.structure_tensor(algebra)
    arr = aset.member_array()
    for fi in range(len(arr)):
        ok = modp.batch_is_commuting(np.matmul(arr, arr[fi]) % p, T, p)
        if not ok.all():
            witness = _make_witness(algebra, arr, fi, int(np.argmin(ok)))
            return ClosureVerdict(False, witness, (fi + 1) * len(arr), "pairs")
    return ClosureVerdict(True, None, len(arr) ** 2, "pairs")
