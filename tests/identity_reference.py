"""The single-map identity report, kept as a reference for the tests.

``lemma_identity_suite`` checks the identity family of one commuting
automorphism in pure Python, over any field, and lists a witness (basis
tuple and residual) for every failure.  The library sweeps whole member
batches with ``maps.identity_suite_batch`` instead; these tests compare
the two on the same maps, and this report is also the only check of the
family over Q.
"""

from dataclasses import dataclass

from coclass_lab.algebra import LieAlgebra
from coclass_lab.linalg import add_vec, basis_vec, is_zero_vec, sub_vec
from coclass_lab.maps import IDENTITY_NAMES, LinearMap, is_commuting


@dataclass(frozen=True)
class IdentitySuiteReport:
    violations: dict

    @property
    def passed(self) -> bool:
        return all(not v for v in self.violations.values())

    def __str__(self) -> str:
        if self.passed:
            return "all identities hold"
        bad = {k: len(v) for k, v in self.violations.items() if v}
        return f"identity violations: {bad}"


def lemma_identity_suite(algebra: LieAlgebra, f: LinearMap) -> IdentitySuiteReport:
    """Check the full identity family satisfied by commuting automorphisms.

    Precondition: f must be a commuting automorphism (raises otherwise).
    All identities are multilinear or bilinearizable in the quantified
    vectors, so basis tuples suffice; the one quadratic slot (y in the
    double-bracket identity) is checked together with its polarized
    cross terms, same decomposition as the commuting predicate.
    """
    if not is_commuting(algebra, f):
        raise ValueError("identity suite requires a commuting automorphism")
    fld = algebra.field
    n = algebra.dim
    basis = [basis_vec(fld, n, i) for i in range(n)]
    images = [f.image_of_basis(i) for i in range(n)]
    disp = [sub_vec(fld, images[i], basis[i]) for i in range(n)]
    pair_brackets = [[algebra.bracket_basis(j, k) for k in range(n)] for j in range(n)]
    center = algebra.center()
    second = algebra.second_center()
    two = fld.canon(2)

    v = {name: [] for name in IDENTITY_NAMES}

    for i in range(n):
        for j in range(n):
            lhs = algebra.bracket(images[i], basis[j])
            rhs = algebra.bracket(basis[i], images[j])
            r = sub_vec(fld, lhs, rhs)
            if not is_zero_vec(r):
                v["bracket_swap"].append(((i, j), r))
            lhs = algebra.bracket(disp[i], basis[j])
            rhs = algebra.bracket(basis[i], disp[j])
            r = sub_vec(fld, lhs, rhs)
            if not is_zero_vec(r):
                v["displacement_swap"].append(((i, j), r))

    for z in center.basis.rows:
        img = f.apply(z)
        if not center.contains(img):
            v["center_preserved"].append(((), img))

    # double bracket in y with polarization: Y[j, j2, i] = [e_j, [e_j2, d_i]]
    for i in range(n):
        inner = [algebra.bracket(basis[j2], disp[i]) for j2 in range(n)]
        for j in range(n):
            diag = algebra.bracket(basis[j], inner[j])
            if not is_zero_vec(diag):
                v["double_bracket_vanishes"].append(((i, j, j), diag))
            for j2 in range(j + 1, n):
                cross = add_vec(
                    fld,
                    algebra.bracket(basis[j], inner[j2]),
                    algebra.bracket(basis[j2], inner[j]),
                )
                if not is_zero_vec(cross):
                    v["double_bracket_vanishes"].append(((i, j, j2), cross))

    for i in range(n):
        lhs_row = [
            [algebra.bracket(disp[i], pair_brackets[j][k]) for k in range(n)] for j in range(n)
        ]
        for j in range(n):
            for k in range(n):
                lhs = lhs_row[j][k]
                swapped = algebra.bracket(disp[j], pair_brackets[i][k])
                r = sub_vec(fld, lhs, swapped)
                if not is_zero_vec(r):
                    v["displacement_bracket_swap"].append(((i, j, k), r))
                inner = algebra.bracket(basis[j], disp[i])
                rhs = algebra.bracket(basis[k], inner)
                r = sub_vec(fld, lhs, fld.scale(two, rhs))
                if not is_zero_vec(r):
                    v["double_bracket_factor"].append(((i, j, k), r))
                if not is_zero_vec(lhs):
                    v["displacement_kills_brackets"].append(((i, j, k), lhs))

    for i in range(n):
        if not second.contains(disp[i]):
            v["displacement_in_second_center"].append(((i,), disp[i]))

    return IdentitySuiteReport({name: tuple(v[name]) for name in IDENTITY_NAMES})
