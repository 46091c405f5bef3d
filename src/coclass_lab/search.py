"""Exact enumeration of commuting and central automorphisms over F_p.

The commuting enumerator searches generator images with affine
constraint propagation instead of brute force over p^(n^2) matrices.
For a commuting automorphism f and generators g_1, ..., g_r:

  * f(g_t) lies in the coset g_t + Z_2(L)  (skipped when Z_2 = L),
  * [f(g_t), g_t] = 0,
  * [f(g_t), g_s] + [f(g_s), g_t] = 0 for every earlier generator g_s,

all of which are necessary conditions, so nothing is pruned that should
survive; each completed generator assignment is extended to a full map
through the generator presentation and kept only if the full automorphism
and commuting checks pass, which restores sufficiency.

The search is a level-synchronous frontier expansion.  Level t's
constraint matrix is the same for every branch and its right-hand side is
linear in the earlier images, so it is row-reduced once into a
consistency operator, a particular-solution operator and a kernel basis;
a level is then one matmul over a (B, t, n) int64 frontier, a consistency
mask and a broadcast add of the p^k kernel points.  The frontier streams
depth first in blocks of at most CHUNK rows.  Independence of the images
modulo L' is tested once, on completed assignments.

The product of the per-level kernel sizes p^k is therefore an exact upper
bound on the completed assignments, and so on everything the filter sees;
enumeration refuses to start when that projection exceeds the budget, and
no later count can pass it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Optional

import numpy as np

from . import modp
from .algebra import LieAlgebra, NonNilpotentError
from .linalg import Matrix, affine_operators, basis_vec, invert, kernel
from .maps import (
    LinearMap,
    commuting_defect,
    commuting_witness_vector,
    compose,
)

DEFAULT_BUDGET = 10**8
BRUTE_FORCE_LIMIT = 250_000
# rows per array block in the enumerators' hot loops; bounds their memory
CHUNK = 8192


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


@dataclass(frozen=True, eq=False)
class AutomorphismSet:
    """A finite, canonically ordered set of automorphisms of one algebra.

    Stored once, as a read-only (B, n, n) int64 array of member matrices,
    entries in [0, p), sorted in LinearMap.key() order without duplicates,
    beside the sorted row keys that membership queries search (computed
    from the array unless the builder hands them over).  ``members``
    builds the LinearMaps from its rows on first access; verdicts build
    only the maps they return.  == compares members.
    """

    algebra: LieAlgebra
    kind: str  # "commuting" | "central" | "full"
    _array: np.ndarray = dataclass_field(repr=False)
    _keys: Optional[np.ndarray] = dataclass_field(default=None, repr=False)

    def __post_init__(self):
        if self._keys is None:
            object.__setattr__(self, "_keys", _row_keys(self._array, self.algebra.field.p))
        self._keys.flags.writeable = False

    @cached_property
    def members(self) -> tuple:
        return _linear_maps(self.algebra, self._array)

    @property
    def size(self) -> int:
        return len(self._array)

    def member_keys(self) -> frozenset:
        return frozenset(map(tuple, self._array.reshape(self.size, -1).tolist()))

    def member_array(self) -> np.ndarray:
        return self._array

    def outside(self, other: "AutomorphismSet") -> np.ndarray:
        """Mask over this set's members: True where the member is not in other."""
        return ~_contains_rows(other._keys, self._keys)

    def __contains__(self, f: LinearMap) -> bool:
        query = np.array(f.matrix.rows, dtype=np.int64)[None]
        return bool(_contains_rows(self._keys, _row_keys(query, self.algebra.field.p))[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, AutomorphismSet):
            return NotImplemented
        same_kind = (self.algebra, self.kind) == (other.algebra, other.kind)
        return same_kind and np.array_equal(self._array, other._array)


def _linear_maps(algebra: LieAlgebra, mats: np.ndarray) -> tuple:
    """LinearMaps of the rows of a (k, n, n) member array."""
    return tuple(LinearMap(Matrix(algebra.field, tuple(map(tuple, m)))) for m in mats.tolist())


def _row_keys(mats: np.ndarray, p: int) -> np.ndarray:
    """One opaque key per matrix whose byte order is the order of LinearMap.key().

    The flattened entries, residues in [0, p), are packed base p, first
    entry most significant, into big-endian int64 words of d digits each,
    d the most with p^d < 2^63.  Big-endian bytes of non-negative integers
    compare like the integers, so comparing the keys compares the
    flattened entry tuples lexicographically.
    """
    flat = mats.reshape(len(mats), mats.shape[1] * mats.shape[2])
    d = next(d for d in range(63, 0, -1) if p**d < 2**63)
    words = np.empty((len(mats), -(-flat.shape[1] // d)), dtype=">i8")
    for w in range(words.shape[1]):
        digits = flat[:, w * d : (w + 1) * d]
        powers = np.array([p**e for e in range(digits.shape[1] - 1, -1, -1)], dtype=np.int64)
        words[:, w] = digits @ powers
    return words.view(np.dtype((np.void, words.shape[1] * 8))).ravel()


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
    keys, first = np.unique(_row_keys(mats, p), return_index=True)
    arr = mats[first].astype(np.int64, copy=False)
    if not _contains_rows(keys, _row_keys(np.eye(n, dtype=np.int64)[None], p))[0]:
        raise AssertionError(f"{kind} enumeration lost the identity map")
    inverses, invertible = modp.batch_inverse(arr, p)
    if not (invertible.all() and _contains_rows(keys, _row_keys(inverses, p)).all()):
        raise AssertionError(f"{kind} enumeration is not closed under inverse")
    arr.flags.writeable = False
    return AutomorphismSet(algebra, kind, arr, keys)


# ---------------------------------------------------------------------------
# commuting automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Level:
    """Branch-independent solution of one level's system, as int64 arrays.

    For a frontier whose rows flatten the images f(g_0), ..., f(g_{t-1}),
    ``images @ linear + offset`` is (consistency residual | particular
    point) of the level's system; a row is consistent when the residual
    vanishes, and its solutions are the particular point plus every
    combination of ``kernel``.
    """

    linear: np.ndarray  # (t * n, q + n)
    offset: np.ndarray  # (q + n,)
    checks: int  # q, the number of consistency rows
    kernel: np.ndarray  # (k, n)


def _level(system: Matrix, coset_rhs: np.ndarray, bracket: np.ndarray, t: int, p: int) -> _Level:
    """Row-reduce level t's system once and fold its right-hand side in.

    The right-hand side is the constant ``coset_rhs`` on the coset rows,
    zero on the [w, g_t] rows, and -[f(g_s), g_t] on the rows for each
    earlier generator g_s, which is linear in the earlier images:
    [f(g_s), g_t] = f(g_s) @ bracket with bracket = T[:, g_t, :].
    """
    ops = affine_operators(system)
    m, n = system.nrows, system.ncols
    c = len(coset_rhs)
    K = np.array(ops.consistency.rows, dtype=np.int64).reshape(-1, m)
    P = np.array(ops.particular.rows, dtype=np.int64).reshape(n, m)
    KP = np.concatenate([K, P])  # (q + n, m)
    neg = -bracket % p
    linear = [neg @ KP[:, c + n * (s + 1) : c + n * (s + 2)].T % p for s in range(t)]
    return _Level(
        np.concatenate(linear) if linear else np.zeros((0, len(KP)), dtype=np.int64),
        KP[:, :c] @ coset_rhs % p,
        len(K),
        np.array(ops.homogeneous.basis.rows, dtype=np.int64).reshape(-1, n),
    )


def _span_points(basis: np.ndarray, p: int, start: int, stop: int) -> np.ndarray:
    """Combinations start..stop-1 of the basis rows, first coefficient slowest."""
    idx = np.arange(start, stop, dtype=np.int64)
    coeffs = np.empty((len(idx), len(basis)), dtype=np.int64)
    for i in range(len(basis) - 1, -1, -1):
        coeffs[:, i] = idx % p
        idx //= p
    return coeffs @ basis % p


def _frontier_blocks(levels: list, p: int, n: int, frontier: np.ndarray):
    """Every consistent generator assignment, as (B, r, n) blocks of at most CHUNK rows.

    Each level maps a (B, t, n) frontier to its (B', t + 1, n) children
    with one matmul, a consistency mask and a broadcast add of the kernel
    points; blocks go depth first, so only one block per level is alive.
    """
    t = frontier.shape[1]
    if t == len(levels):
        yield frontier
        return
    lv = levels[t]
    solved = (frontier.reshape(len(frontier), t * n) @ lv.linear + lv.offset) % p
    consistent = ~solved[:, : lv.checks].any(axis=1)
    frontier = frontier[consistent]
    particular = solved[consistent, lv.checks :]
    width = p ** len(lv.kernel)
    for q0 in range(0, width, CHUNK):
        points = _span_points(lv.kernel, p, q0, min(width, q0 + CHUNK))
        step = max(1, CHUNK // len(points))
        for b0 in range(0, len(frontier), step):
            parents = frontier[b0 : b0 + step]
            images = (particular[b0 : b0 + step, None, :] + points[None]) % p
            children = np.concatenate(
                [np.repeat(parents, len(points), axis=0), images.reshape(-1, 1, n)], axis=1
            )
            yield from _frontier_blocks(levels, p, n, children)


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
    coset_rows = () if z2.is_full() else z2.annihilator().rows
    ad = [algebra.ad_matrix(g).rows for g in gens]
    # level t solves for w = f(g_t): C w = C g_t on the coset rows C, then
    # [w, g_t] = 0, then [w, g_s] = -[f(g_s), g_t] for each s < t
    systems = [Matrix(field, coset_rows + ad[t] + sum(ad[:t], ())) for t in range(r)]
    widths = [kernel(h).dim for h in systems]

    projected = 1
    for k in widths:
        projected *= p**k
    if projected > budget:
        shown = " x ".join(f"p^{k}" for k in widths)
        raise BudgetExceededError(budget, projected, f"level widths {shown}")

    T = modp.structure_tensor(algebra)
    coset_cols = np.array(coset_rows, dtype=np.int64).reshape(-1, n)
    levels = [
        _level(systems[t], coset_cols[:, gens[t]], T[:, gens[t], :], t, p) for t in range(r)
    ]

    # generator images must be independent modulo L': their projections
    # to L/L' (through the annihilator of L') form an invertible r x r matrix
    to_quotient = modp.subspace_constraints(algebra.derived())  # (r, n)
    kept = [np.zeros((0, n, n), dtype=np.int64)]
    for block in _frontier_blocks(levels, p, n, np.zeros((1, 0, n), dtype=np.int64)):
        block = block[modp.batch_invertible(block @ to_quotient.T % p, p)]
        if len(block):
            kept.append(_filter_assignments(algebra, pres, block))
    return _finish_set(algebra, "commuting", np.concatenate(kept))


def _filter_assignments(algebra: LieAlgebra, pres, assignments) -> np.ndarray:
    """Extend (B, r, n) generator assignments to full maps; keep genuine members.

    Returns the kept matrices as a (B, n, n) int64 array.
    """
    p = algebra.field.p
    n = algebra.dim
    arr = np.asarray(assignments, dtype=np.int64).reshape(-1, len(pres.generators), n)
    T = modp.structure_tensor(algebra)
    binv = invert(pres.basis_matrix)
    assert binv is not None
    binv_np = modp.matrix_to_array(binv)

    kept = [np.zeros((0, n, n), dtype=np.int64)]
    for start in range(0, arr.shape[0], CHUNK):
        block = arr[start : start + CHUNK]
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
    comp = algebra.generator_indices()
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
    return _bruteforce(algebra, "full", limit)


def enumerate_commuting_bruteforce(algebra: LieAlgebra, limit: int = BRUTE_FORCE_LIMIT) -> AutomorphismSet:
    return _bruteforce(algebra, "commuting", limit)


def enumerate_central_bruteforce(algebra: LieAlgebra, limit: int = BRUTE_FORCE_LIMIT) -> AutomorphismSet:
    return _bruteforce(algebra, "central", limit)


def _bruteforce(algebra: LieAlgebra, kind: str, limit: int) -> AutomorphismSet:
    """The automorphisms among all p^(n^2) matrices, then the kind's own mask."""
    if not algebra.field.is_prime:
        raise ValueError("brute force needs a prime field")
    p, n = algebra.field.p, algebra.dim
    mats = _all_matrices(p, n, limit)
    T = modp.structure_tensor(algebra)
    S = modp.batch_commuting_form(mats, T, p)
    mask = modp.batch_invertible(mats, p)
    mask &= modp.homomorphism_mask(mats, S, T, p)
    if kind == "commuting":
        mask &= modp.commuting_mask(S, p)
    elif kind == "central":
        disp = (mats - np.eye(n, dtype=np.int64)) % p
        mask &= modp.batch_in_subspace(disp, modp.subspace_constraints(algebra.center()), p)
    return _finish_set(algebra, kind, mats[mask])


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


def _make_witness(algebra, arr, fi, gi) -> ClosureWitness:
    f, g = _linear_maps(algebra, arr[[fi, gi]])
    h = compose(g, f)
    defect = commuting_defect(algebra, h)
    x, residual = commuting_witness_vector(algebra, h, defect)
    return ClosureWitness(f, g, fi, gi, x, residual)


def closure_check(aset: AutomorphismSet, exhaustive: bool = False) -> ClosureVerdict:
    """Decide whether the commuting set is closed under composition.

    The witness, when there is one, is the first ordered pair (f, g) in
    canonical member order whose composition g o f does not commute.

    By default both come from the d <= n^2 members that span the set's
    linear span, picked greedily in canonical order (each member that is
    not a combination of the ones before it).  The commuting defect of
    g o f is linear in g and linear in f, so:

      * the set is closed exactly when all d^2 ordered pairs of
        representatives compose to commuting maps;
      * the witness's f is a representative: were it a combination of
        earlier members, which all pass against every g, it would pass too.
        Likewise its g is a representative, so the witness is the first
        failing pair of the d x d check.

    ``pair_count`` is the number of compositions tested, d^2.
    ``exhaustive=True`` is the plain ordered scan over all N^2 pairs
    instead, the reference the span method is tested against.
    """
    if aset.kind != "commuting":
        raise ValueError("closure_check applies to commuting sets")
    algebra = aset.algebra
    if not algebra.field.is_prime:
        raise ValueError("closure check needs a prime field")
    if not aset.size:
        return ClosureVerdict(True, None, 0, "pairs")
    if exhaustive:
        return _closure_pairs(aset)

    p = algebra.field.p
    n = algebra.dim
    T = modp.structure_tensor(algebra)
    arr = aset.member_array()
    reps = modp.spanning_rows(arr.reshape(len(arr), n * n), p)
    d = len(reps)
    rep_arr = arr[reps]
    comps = np.matmul(rep_arr[None], rep_arr[:, None]) % p  # [a, b] = rep_b o rep_a
    ok = modp.batch_is_commuting(comps.reshape(d * d, n, n), T, p).reshape(d, d)
    if ok.all():
        return ClosureVerdict(True, None, d * d, "span")
    a = int(np.argmin(ok.all(axis=1)))
    witness = _make_witness(algebra, arr, reps[a], reps[int(np.argmin(ok[a]))])
    return ClosureVerdict(False, witness, d * d, "span")


def _closure_pairs(aset: AutomorphismSet) -> ClosureVerdict:
    """Every ordered pair, f outer and g inner in canonical order."""
    algebra = aset.algebra
    p = algebra.field.p
    T = modp.structure_tensor(algebra)
    arr = aset.member_array()
    first = None
    for fi in range(len(arr)):
        ok = modp.batch_is_commuting(np.matmul(arr, arr[fi]) % p, T, p)
        if first is None and not ok.all():
            first = (fi, int(np.argmin(ok)))
    pair_count = len(arr) * len(arr)
    if first is None:
        return ClosureVerdict(True, None, pair_count, "pairs")
    return ClosureVerdict(False, _make_witness(algebra, arr, *first), pair_count, "pairs")


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
    out_a = a.outside(b)
    out_b = b.outside(a)
    if not (out_a.any() or out_b.any()):
        return EqualityReport(True, (), ())
    only_a = _linear_maps(a.algebra, a.member_array()[np.flatnonzero(out_a)[:5]])
    only_b = _linear_maps(b.algebra, b.member_array()[np.flatnonzero(out_b)[:5]])
    return EqualityReport(False, only_a, only_b)
