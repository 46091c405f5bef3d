"""Exact enumeration of commuting and central automorphisms over F_p.

The commuting enumerator does a depth-first search over generator images
with affine constraint propagation instead of brute force over p^(n^2)
matrices.  For a commuting automorphism f and generators g_1, ..., g_r:

  * f(g_t) lies in the coset g_t + Z_2(L)  (skipped when Z_2 = L),
  * [f(g_t), g_t] = 0,
  * [f(g_t), g_s] + [f(g_s), g_t] = 0 for every earlier generator g_s,

all of which are necessary conditions, so nothing is pruned that should
survive; each completed generator assignment is extended to a full map
through the generator presentation and kept only if the full automorphism
and commuting checks pass, which restores sufficiency.

The homogeneous part of every level's constraint system is branch
independent, so the product of the per-level solution-set sizes is an
exact upper bound for the number of candidate extensions; enumeration
refuses to start when that projection exceeds the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from . import modp
from .algebra import LieAlgebra, NonNilpotentError
from .linalg import (
    Matrix,
    Subspace,
    basis_vec,
    invert,
    kernel,
    scale_vec,
    solution_points,
    solve_affine,
    zero_vec,
)
from .maps import (
    LinearMap,
    commuting_defect,
    commuting_witness_vector,
    compose,
)

DEFAULT_BUDGET = 10**8
BRUTE_FORCE_LIMIT = 250_000
PAIR_BUDGET = 1_000_000


class BudgetExceededError(RuntimeError):
    """Projected or actual candidate count went past the configured budget."""

    def __init__(self, budget: int, projected: int, detail: str = ""):
        self.budget = budget
        self.projected = projected
        self.detail = detail
        msg = f"projected {projected} candidates exceeds budget {budget}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class AbelianShortCircuit(Exception):
    """Abelian algebras are not enumerated: every invertible map commutes.

    The commuting set equals all of GL(n, p); callers handle the verdict
    analytically instead of materializing a huge set.
    """

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        self.aut_order = gl_order(algebra.field.p, algebra.dim)
        super().__init__(
            f"abelian algebra: commuting set = GL({algebra.dim}, {algebra.field.p}) "
            f"of order {self.aut_order}"
        )


def gl_order(p: int, n: int) -> int:
    total = 1
    pn = p**n
    for i in range(n):
        total *= pn - p**i
    return total


@dataclass(frozen=True)
class AutomorphismSet:
    """A finite, canonically ordered set of automorphisms of one algebra."""

    algebra: LieAlgebra
    kind: str  # "commuting" | "central" | "full"
    members: tuple
    # the members as a read-only (B, n, n) int64 array, when built from one
    _array: Optional[np.ndarray] = dataclass_field(default=None, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.members)

    def member_keys(self) -> frozenset:
        return frozenset(m.key() for m in self.members)

    def member_array(self) -> np.ndarray:
        if self._array is not None:
            return self._array
        n = self.algebra.dim
        if not self.members:
            return np.zeros((0, n, n), dtype=np.int64)
        return np.array([[list(r) for r in m.matrix.rows] for m in self.members], dtype=np.int64)

    def __contains__(self, f: LinearMap) -> bool:
        return f.key() in self.member_keys()


def _row_keys(mats: np.ndarray) -> np.ndarray:
    """One opaque key per matrix whose byte order is the order of LinearMap.key().

    Entries are residues in [0, p), and big-endian bytes of non-negative
    integers compare like the integers, so comparing the keys compares
    the flattened entry tuples lexicographically.
    """
    n = mats.shape[1]
    flat = np.ascontiguousarray(mats.reshape(len(mats), n * n), dtype=">i8")
    return flat.view(np.dtype((np.void, flat.shape[1] * 8))).ravel()


def _contains_rows(sorted_keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Mask: which query keys occur in the sorted key array."""
    if len(sorted_keys) == 0:
        return np.zeros(len(query), dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, query), len(sorted_keys) - 1)
    return sorted_keys[at] == query


def _finish_set(algebra: LieAlgebra, kind: str, mats: np.ndarray) -> AutomorphismSet:
    """Canonical set from a (B, n, n) int64 array of member matrices, entries in [0, p).

    Rows are sorted in LinearMap.key() order with duplicates dropped, and
    the set must contain the identity and the inverse of every member.
    """
    p = algebra.field.p
    n = algebra.dim
    keys = np.unique(_row_keys(mats))
    arr = keys.view(">i8").reshape(len(keys), n, n).astype(np.int64)
    if not _contains_rows(keys, _row_keys(np.eye(n, dtype=np.int64)[None]))[0]:
        raise AssertionError(f"{kind} enumeration lost the identity map")
    inverses, invertible = modp.batch_inverse(arr, p)
    if not (invertible.all() and _contains_rows(keys, _row_keys(inverses)).all()):
        raise AssertionError(f"{kind} enumeration is not closed under inverse")
    arr.flags.writeable = False
    fld = algebra.field
    members = tuple(
        LinearMap(Matrix(fld, tuple(tuple(row) for row in mat))) for mat in arr.tolist()
    )
    return AutomorphismSet(algebra, kind, members, arr)


# ---------------------------------------------------------------------------
# commuting automorphisms
# ---------------------------------------------------------------------------


def enumerate_commuting(algebra: LieAlgebra, budget: int = DEFAULT_BUDGET) -> AutomorphismSet:
    """The exact set of commuting automorphisms of a nilpotent algebra over F_p."""
    field = algebra.field
    if not field.is_prime:
        raise ValueError("enumeration needs a prime field")
    if not algebra.is_nilpotent:
        raise NonNilpotentError("enumeration requires a nilpotent algebra")
    if algebra.is_abelian:
        raise AbelianShortCircuit(algebra)

    p = field.p
    n = algebra.dim
    pres = algebra.generator_presentation()
    gens = pres.generators
    r = len(gens)
    z2 = algebra.second_center()
    coset_rows = None if z2.is_full() else z2.annihilator()
    ad = {g: algebra.ad_matrix(g) for g in gens}
    derived = algebra.derived()

    # Per-level homogeneous systems; kernels are branch independent.
    level_rows = []
    level_kernel_dim = []
    for t in range(r):
        rows = []
        if coset_rows is not None:
            rows.extend(coset_rows.rows)
        rows.extend(ad[gens[t]].rows)
        for s in range(t):
            rows.extend(ad[gens[s]].rows)
        h = Matrix(field, tuple(rows))
        level_rows.append(h)
        level_kernel_dim.append(kernel(h).dim)

    projected = 1
    for k in level_kernel_dim:
        projected *= p**k
    if projected > budget:
        widths = " x ".join(f"p^{k}" for k in level_kernel_dim)
        raise BudgetExceededError(budget, projected, f"level widths {widths}")

    gen_vectors = [basis_vec(field, n, g) for g in gens]

    def level_rhs(t: int, images: list) -> tuple:
        rhs = []
        if coset_rows is not None:
            rhs.extend(coset_rows.apply(gen_vectors[t]))
        rhs.extend(zero_vec(field, n))
        for s in range(t):
            b = algebra.bracket(images[s], gen_vectors[t])
            rhs.extend(scale_vec(field, field.neg(field.one), b))
        return tuple(rhs)

    assignments = []
    count = 0

    def dfs(t: int, images: list, span: Subspace):
        nonlocal count
        if t == r:
            count += 1
            if count > budget:
                raise BudgetExceededError(budget, count, "live assignment count")
            assignments.append(tuple(images))
            return
        sol = solve_affine(level_rows[t], level_rhs(t, images))
        if sol is None:
            return
        for w in solution_points(sol):
            # generator images must stay independent modulo L'
            grown = Subspace.from_vectors(field, n, span.basis.rows + (w,))
            if grown.dim == span.dim:
                continue
            images.append(w)
            dfs(t + 1, images, grown)
            images.pop()

    dfs(0, [], derived)

    return _finish_set(algebra, "commuting", _filter_assignments(algebra, pres, assignments))


def _filter_assignments(algebra: LieAlgebra, pres, assignments) -> np.ndarray:
    """Extend generator assignments to full maps; keep genuine members.

    Returns the kept matrices as a (B, n, n) int64 array.
    """
    p = algebra.field.p
    n = algebra.dim
    if not assignments:
        return np.zeros((0, n, n), dtype=np.int64)
    T = modp.structure_tensor(algebra)
    binv = invert(pres.basis_matrix)
    assert binv is not None
    binv_np = modp.matrix_to_array(binv)

    arr = np.array(assignments, dtype=np.int64)  # (B, r, n)
    kept = []
    chunk = 65536
    for start in range(0, arr.shape[0], chunk):
        block = arr[start : start + chunk]
        values = []
        gi = 0
        for step in pres.steps:
            if step.kind == "gen":
                values.append(block[:, gi, :])
                gi += 1
            else:
                w = np.einsum("bi,bj,ijk->bk", values[step.gen_index], values[step.operand], T)
                values.append((int(step.scale) * (w % p)) % p)
        cols = np.stack(values, axis=2)  # (B, n, steps) images as columns
        mats = np.matmul(cols, binv_np) % p
        S = modp.batch_commuting_form(mats, T, p)
        mask = modp.batch_invertible(mats, p)
        mask &= modp.homomorphism_mask(mats, S, T, p)
        mask &= modp.commuting_mask(S, p)
        kept.append(mats[mask])
    return np.concatenate(kept)


# ---------------------------------------------------------------------------
# central automorphisms
# ---------------------------------------------------------------------------


def _complement_mod_derived(algebra: LieAlgebra) -> list:
    """Lexicographically first basis indices independent modulo L'."""
    span = algebra.derived()
    out = []
    for i in range(algebra.dim):
        if span.is_full():
            break
        grown = Subspace.from_vectors(
            algebra.field, algebra.dim, span.basis.rows + (basis_vec(algebra.field, algebra.dim, i),)
        )
        if grown.dim > span.dim:
            out.append(i)
            span = grown
    return out


def enumerate_central(algebra: LieAlgebra, budget: int = DEFAULT_BUDGET) -> AutomorphismSet:
    """Aut_c(L) = {id + phi : phi(L) in Z(L), phi(L') = 0, id + phi invertible}.

    That id + phi is a homomorphism exactly when phi kills L' (given the
    image lies in the center) is not hard to see, and the brute-force
    oracle cross-checks it at small dimensions.
    """
    field = algebra.field
    if not field.is_prime:
        raise ValueError("enumeration needs a prime field")
    p = field.p
    n = algebra.dim
    center = algebra.center()
    derived = algebra.derived()
    comp = _complement_mod_derived(algebra)
    r = len(comp)
    d = center.dim
    count = p ** (d * r)
    if count > budget:
        raise BudgetExceededError(budget, count, f"p^(dim Z * dim L/L') = {p}^{d * r}")
    if d == 0 or r == 0:
        return _finish_set(algebra, "central", np.eye(n, dtype=np.int64)[None])

    # transition from (complement | derived-basis) coordinates to standard ones
    cols = [basis_vec(field, n, i) for i in comp] + list(derived.basis.rows)
    M = Matrix(field, tuple(zip(*cols)))
    minv = invert(M)
    assert minv is not None
    minv_np = modp.matrix_to_array(minv)
    zb = modp.matrix_to_array(center.basis)  # (d, n)

    idx = np.arange(count, dtype=np.int64)
    digits = np.empty((count, d * r), dtype=np.int64)
    for q in range(d * r):
        digits[:, q] = idx % p
        idx //= p
    coeffs = digits.reshape(count, d, r)

    phi_cols = np.einsum("qn,bqt->bnt", zb, coeffs) % p  # images of complement vectors
    phi_ext = np.concatenate([phi_cols, np.zeros((count, n, n - r), dtype=np.int64)], axis=2)
    phi_std = np.matmul(phi_ext, minv_np) % p
    mats = (phi_std + np.eye(n, dtype=np.int64)) % p
    return _finish_set(algebra, "central", mats[modp.batch_invertible(mats, p)])


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def _all_matrices(p: int, n: int, limit: int) -> np.ndarray:
    count = p ** (n * n)
    if count > limit:
        raise BudgetExceededError(limit, count, f"p^(n^2) = {p}^{n * n}")
    idx = np.arange(count, dtype=np.int64)
    digits = np.empty((count, n * n), dtype=np.int64)
    for q in range(n * n):
        digits[:, q] = idx % p
        idx //= p
    return digits.reshape(count, n, n)


def enumerate_aut_bruteforce(algebra: LieAlgebra, limit: int = BRUTE_FORCE_LIMIT) -> AutomorphismSet:
    """Ground truth: filter all p^(n^2) matrices by the automorphism predicate."""
    field = algebra.field
    if not field.is_prime:
        raise ValueError("brute force needs a prime field")
    p = field.p
    mats = _all_matrices(p, algebra.dim, limit)
    T = modp.structure_tensor(algebra)
    mask = modp.batch_invertible(mats, p)
    mask &= modp.batch_is_homomorphism(mats, T, p)
    return _finish_set(algebra, "full", mats[mask])


def enumerate_commuting_bruteforce(
    algebra: LieAlgebra, limit: int = BRUTE_FORCE_LIMIT
) -> AutomorphismSet:
    field = algebra.field
    if not field.is_prime:
        raise ValueError("brute force needs a prime field")
    p = field.p
    mats = _all_matrices(p, algebra.dim, limit)
    T = modp.structure_tensor(algebra)
    mask = modp.batch_invertible(mats, p)
    mask &= modp.batch_is_homomorphism(mats, T, p)
    mask &= modp.batch_is_commuting(mats, T, p)
    return _finish_set(algebra, "commuting", mats[mask])


def enumerate_central_bruteforce(
    algebra: LieAlgebra, limit: int = BRUTE_FORCE_LIMIT
) -> AutomorphismSet:
    field = algebra.field
    if not field.is_prime:
        raise ValueError("brute force needs a prime field")
    p = field.p
    n = algebra.dim
    mats = _all_matrices(p, n, limit)
    T = modp.structure_tensor(algebra)
    mask = modp.batch_invertible(mats, p)
    mask &= modp.batch_is_homomorphism(mats, T, p)
    cz = modp.subspace_constraints(algebra.center())
    disp = (mats - np.eye(n, dtype=np.int64)) % p
    mask &= modp.batch_in_subspace(disp, cz, p)
    return _finish_set(algebra, "central", mats[mask])


# ---------------------------------------------------------------------------
# closure and equality verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosureWitness:
    f: LinearMap
    g: LinearMap
    f_index: int
    g_index: int
    vector: tuple
    residual: tuple


@dataclass(frozen=True)
class ClosureVerdict:
    closed: bool
    witness: Optional[ClosureWitness]
    pair_count: int
    method: str


def _make_witness(algebra, members, fi, gi) -> ClosureWitness:
    f, g = members[fi], members[gi]
    h = compose(g, f)
    defect = commuting_defect(algebra, h)
    x, residual = commuting_witness_vector(algebra, h, defect)
    return ClosureWitness(f, g, fi, gi, x, residual)


def closure_check(
    aset: AutomorphismSet, exhaustive: bool = False, pair_budget: int = PAIR_BUDGET
) -> ClosureVerdict:
    """Decide whether the commuting set is closed under composition.

    Ordered pairs (f, g) are tested via commuting_defect(g o f); the first
    failing pair in canonical member order is the witness.  Because the
    commuting condition is linear in the matrix of g o f, and that matrix
    is bilinear in (g, f), closure over the whole set is equivalent to
    closure over ordered pairs drawn from members spanning the set's linear
    span.  Large sets are decided that way; the witness, if any, is then
    located by the ordered scan so the reported pair stays canonical.
    """
    if aset.kind != "commuting":
        raise ValueError("closure_check applies to commuting sets")
    algebra = aset.algebra
    members = aset.members
    n_members = len(members)
    if n_members == 0:
        return ClosureVerdict(True, None, 0, "pairs")

    if not algebra.field.is_prime:
        return _closure_pairs_exact(aset, exhaustive)

    if exhaustive or n_members * n_members <= pair_budget:
        return _closure_pairs(aset, exhaustive)

    # span reduction
    p = algebra.field.p
    T = modp.structure_tensor(algebra)
    arr = aset.member_array()
    reps = _spanning_member_indices(arr, p)
    rep_arr = arr[reps]
    bad = None
    for a, fi in enumerate(reps):
        comps = np.matmul(rep_arr, arr[fi]) % p  # g o f for all rep g
        ok = modp.batch_is_commuting(comps, T, p)
        if not ok.all():
            bad = (fi, reps[int(np.argmin(ok))])
            break
    pair_count = len(reps) * len(reps)
    if bad is None:
        return ClosureVerdict(True, None, pair_count, "span")
    # not closed: recover the canonical first witness by the ordered scan
    verdict = _closure_pairs(aset, exhaustive=False, pair_budget=pair_budget)
    if not verdict.closed:
        return ClosureVerdict(False, verdict.witness, verdict.pair_count, "span")
    witness = _make_witness(algebra, members, bad[0], bad[1])
    return ClosureVerdict(False, witness, pair_count, "span")


def _closure_pairs(
    aset: AutomorphismSet, exhaustive: bool, pair_budget: Optional[int] = None
) -> ClosureVerdict:
    algebra = aset.algebra
    members = aset.members
    p = algebra.field.p
    T = modp.structure_tensor(algebra)
    arr = aset.member_array()
    n_members = len(members)
    first = None
    checked = 0
    for fi in range(n_members):
        comps = np.matmul(arr, arr[fi]) % p
        ok = modp.batch_is_commuting(comps, T, p)
        if ok.all():
            checked += n_members
        else:
            gi = int(np.argmin(ok))
            checked += gi + 1
            if first is None:
                first = (fi, gi)
            if not exhaustive:
                witness = _make_witness(algebra, members, fi, gi)
                return ClosureVerdict(False, witness, checked, "pairs")
            checked += n_members - gi - 1
        if pair_budget is not None and checked > pair_budget and first is None:
            # caller falls back to a non-canonical witness
            return ClosureVerdict(True, None, checked, "pairs")
    if first is None:
        return ClosureVerdict(True, None, checked, "pairs")
    witness = _make_witness(algebra, members, first[0], first[1])
    return ClosureVerdict(False, witness, n_members * n_members, "pairs")


def _closure_pairs_exact(aset: AutomorphismSet, exhaustive: bool) -> ClosureVerdict:
    """Pure-field fallback (rationals); small sets only."""
    algebra = aset.algebra
    members = aset.members
    first = None
    checked = 0
    for fi, f in enumerate(members):
        for gi, g in enumerate(members):
            checked += 1
            defect = commuting_defect(algebra, compose(g, f))
            if not defect.clean:
                if first is None:
                    first = (fi, gi)
                if not exhaustive:
                    witness = _make_witness(algebra, members, fi, gi)
                    return ClosureVerdict(False, witness, checked, "pairs")
    if first is None:
        return ClosureVerdict(True, None, checked, "pairs")
    witness = _make_witness(algebra, members, first[0], first[1])
    return ClosureVerdict(False, witness, checked, "pairs")


def _spanning_member_indices(arr: np.ndarray, p: int) -> list:
    """Indices of members (canonical order) spanning the set's linear span."""
    n_members = arr.shape[0]
    dim = arr.shape[1] * arr.shape[2]
    rows = np.zeros((0, dim), dtype=np.int64)
    pivots: list = []
    reps = []
    inv = modp.inverse_table(p)
    for i in range(n_members):
        v = arr[i].reshape(dim) % p
        # eliminate against current rows
        for row, piv in zip(rows, pivots):
            if v[piv]:
                v = (v - v[piv] * row) % p
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            continue
        piv = int(nz[0])
        v = (v * int(inv[v[piv]])) % p
        rows = np.vstack([rows, v])
        pivots.append(piv)
        reps.append(i)
        if len(reps) == dim:
            break
    return reps


@dataclass(frozen=True)
class EqualityReport:
    equal: bool
    only_in_a: tuple
    only_in_b: tuple

    def __bool__(self) -> bool:
        return self.equal


def sets_equal(a: AutomorphismSet, b: AutomorphismSet) -> EqualityReport:
    """Canonical-order comparison with up to 5 one-sided witnesses per side."""
    if a.algebra != b.algebra:
        raise ValueError("sets_equal needs sets over the same algebra")
    keys_a = a.member_keys()
    keys_b = b.member_keys()
    if keys_a == keys_b:
        return EqualityReport(True, (), ())
    only_a = tuple(m for m in a.members if m.key() not in keys_b)[:5]
    only_b = tuple(m for m in b.members if m.key() not in keys_a)[:5]
    return EqualityReport(False, only_a, only_b)
