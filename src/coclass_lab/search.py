"""Exact enumeration of commuting and central automorphisms over F_p.

The commuting enumerator solves for generator images instead of
searching all p^(n^2) matrices.  For a commuting automorphism f and
generators g_1, ..., g_r, the level rows say:

  * f(g_t) lies in the coset g_t + Z_2(L)  (skipped when Z_2 = L),
  * [f(g_t), g_t] = 0,
  * [f(g_t), g_s] + [f(g_s), g_t] = 0 for every earlier generator g_s,

all of them necessary, so nothing is pruned that should survive; an
assignment that satisfies them is extended through the generator
presentation and kept if it is a homomorphism, which commutes and, with
images independent modulo L', is invertible (the two arguments below).

The level rows are linear in the images jointly.  Write f(g_t) = g_t +
z_t; then C f(g_t) = C g_t becomes C z_t = 0 (C the coset rows),
[f(g_t), g_t] = 0 becomes [z_t, g_t] = 0, and in [f(g_t), g_s] +
[f(g_s), g_t] the terms [g_t, g_s] + [g_s, g_t] cancel, leaving
[z_t, g_s] + [z_s, g_t] = 0.  So the assignments are exactly g + V, V
the kernel of one homogeneous system over z = (z_0, ..., z_{r-1}).

The budget is checked first, before V or the generator presentation is
built, so a refusal costs one elimination per level.  Given the earlier
images, f(g_t) ranges over a coset of the kernel of level t's rows, of
size p^k (k = n - their rank); the product of these p^k bounds the
p^(dim V) assignments, and enumeration refuses to start when it exceeds
the budget.

The filter tests no commuting.  Write f = I + D and B(x, y) = [Dx, y] +
[Dy, x], symmetric and bilinear; as B(x, x) = 2 [f(x), x] and p is odd,
f commutes exactly when B = 0.  The level rows give D(g_t) in Z_2 and
B(g_s, g_t) = 0 for s <= t.  If f is a homomorphism, D[x, y] =
[Dx, y] + [x, Dy] + [Dx, Dy]; induction over the presentation's bracket
steps then puts D(L) in Z_2, as [Z_2, L] lies in Z, and the same identity
puts D(L') in Z.  For z in Z_2, [z, [a, b]] = [[z, a], b] + [a, [z, b]] = 0
(Jacobi, with [z, a] and [z, b] central), so [Z_2, L'] = 0 and
B(x, [a, b]) = [Dx, [a, b]] + [D[a, b], x] = 0.  So B vanishes on
generator pairs and on L x L', hence on L = span(g_t) + L': f commutes.
The brute-force oracle keeps its own commuting mask.

The filter tests no invertibility either.  A homomorphism f whose
generator images are independent modulo L' has an image H, a subalgebra,
with H + L' = L.  If H + L^k = L for some k >= 2 (L^k the lower central
series, L^2 = L'), then L' = [H + L^k, H + L^k] lies in [H, H] + L^(k+1),
inside H + L^(k+1), so L = H + L' = H + L^(k+1).  By induction H + L^k = L
for every k, and L^k = 0 for large k in a nilpotent algebra, so H = L:
f is onto, hence invertible.  ``_finish_set`` still proves every member
invertible (f g = I), so the argument saves work without being trusted.

Classes modulo the central maps.  Let Φ = Hom(L/L', Z), the maps φ with
φ(L) in Z and φ(L') = 0, so Aut_c = (I + Φ) ∩ GL; let W hold the D with
D(L) in Z_2 and B_D = 0, which holds every f - I for f in S (above).

  * Φ ⊆ W and V ⊇ Z^r: φ(L) lies in Z, and B_φ = 0 as φ's values are
    central; a central z_t has C z_t = 0 and [z_t, g_s] = 0, so Z^r meets
    every level row.  So d r <= dim V (d = dim Z): once the level check
    passes, the central enumeration, p^(d r) points, cannot refuse.
  * Adding z in Z^r to an assignment adds φ_z to its extension: bracket
    steps do not see central summands, so φ_z(g_t) = z_t and φ_z kills
    the n - r bracket values, a basis of L'.  So z -> φ_z maps Z^r onto Φ.
  * The filter is constant on classes f + Φ: (f + φ)[x, y] = f[x, y] as
    φ kills L', [(f + φ)x, (f + φ)y] = [fx, fy] and [(f + φ)x, x] =
    [fx, x] as φ's values are central.
  * f^-1 Φ = Φ for an automorphism f, which keeps Z and L' (and f^-1 is
    injective on the finite Φ).  So for f in S, (f + Φ) ∩ GL =
    f (I + f^-1 Φ) ∩ GL = f ∘ Aut_c, inside S by the previous fact.
  * A class f + Φ of homomorphisms meets GL exactly when the f(g_t) span
    L/(L' + Z).  An automorphism's images span L/L', and f + φ agrees
    with f modulo Z.  Conversely, in L/L' coordinates (Λ) whose basis is
    c vectors Λ z_q (z_q central) spanning (Z + L')/L', then r - c unit
    vectors, the images' last r - c coordinates form an r x (r - c)
    matrix A_1 of rank r - c with independent pivot rows J
    (``modp.batch_pivot_rows``).  Choose central parts that set the first
    c coordinates of image t to 0 for t in J and to the k-th unit vector
    for the k-th t outside J; the coordinate matrix is then block
    triangular with blocks A_1[J] and I_c, so the images are independent
    modulo L' and f + φ is onto (above), so in S.
  * The products r ∘ c are distinct: r ∘ (I + ψ) = r + r ψ lies in the
    class of r, and r ∘ c = r ∘ c' gives c = c' for invertible r.

So only the p^(dim V') points g + V', V = Z^r ⊕ V', go through the class
test (choosing central parts) and the filter, in blocks of CHUNK rows,
which leaves one invertible representative of each of the N classes.
S is listed as the N |Aut_c| products r ∘ c, with candidate inverses
c^-1 ∘ r^-1 that ``_finish_set`` proves as any other; c^-1 is read from
Aut_c's inverse index, which its own ``_finish_set`` proved.  For N = 1
the one class is the identity's and S = Aut_c.  The paths this replaced,
the filter over all of g + V and, where [Z_2, Z_2] = 0, the invertible
points of I + W, are in ``tests/commuting_reference.py``.

The central set is enumerated by ``_invertible_points``: I + U X is
invertible exactly when the k x k block I + X U is (Sylvester), which
takes only p^s values.  Every member is one invertible head plus one
tail combination, I + U X_h + U T_t with T_t U = 0, so the h head maps
I + U X_h are computed once, each of the p^(m-s) tail maps U T_t once
for all heads, and a member is their sum.  Its inverse comes from
Woodbury, split the same way: (I + U X_h + U T_t)^-1 = G_h - (U M_h) T_t,
with M_h = (I + X_h U)^-1 and G_h = I - U M_h X_h.

Every listing is of distinct members, and ``_finish_set`` checks it: a
repeated member is an error, so each listed size is exact, |S| = N |Aut_c|
and |Aut_c| = h p^(m-s).

  * Aut_c's members I + U (X_h + T_t) are distinct: U has independent
    columns, and a head combination with (sum y_i X_i) U = 0 has y = 0, as
    the N_i = X_i U are independent, so the span of the heads meets the
    span of the tails only in 0.
  * The products r ∘ c are distinct (above).
  * The brute-force oracle filters the p^(n^2) distinct matrices.

Each set carries a basis ``_moves`` of the span of its displacements
F - I, from how it was built.  The identity sweep decides on it, and
``closure_check`` on the basis of the set's linear span it gives.

  * Aut_c: a member minus I is U X_h + sum_j t_j U T_j, T_j the tail
    basis.  Each I + U X_h is a member (tail 0).  The zero head has
    K = I, so it is invertible, and U T_j is the difference of the two
    members I + U T_j and I.  So the displacements span what the h head
    displacements U X_h and the m - s tail maps U T_j span.
  * S = R ∘ Aut_c: r c - I = (r - I) + r (c - I).  Every r is a member,
    r ∘ I, and composition is bilinear, so the displacements span what
    the r - I (r in R) and the products b ∘ m span, b over a basis of
    span(R) and m over Aut_c's ``_moves``.
  * A set that holds I has the linear span span{F - I} + <I>: every
    member is I + D with D in span{F - I}, and I is a member.  Every
    enumerated set holds I, which ``_finish_set`` asserts, and
    ``closure_check`` rejects a set without it.

``modp.spanning_maps`` of these few maps is the basis each time.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from typing import Optional

import numpy as np

from . import modp
from .algebra import LieAlgebra, NonNilpotentError
from .linalg import Matrix, _span, kernel
from .maps import LinearMap, commuting_witness, compose

DEFAULT_BUDGET = 10**8
BRUTE_FORCE_LIMIT = 250_000
# rows per array block in the enumerators' hot loops; bounds their memory
CHUNK = 8192
# members per block of _finish_set's inverse-closure check
INVERSE_BLOCK = 2048


class BudgetExceededError(RuntimeError):
    """Projected or actual candidate count went past the configured budget."""

    def __init__(self, budget: int, projected: int, detail: str = ""):
        self.budget = budget
        self.projected = projected
        msg = f"projected {projected} candidates exceeds budget {budget}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class AbelianShortCircuit(Exception):
    """Abelian algebras are not enumerated: the commuting set is all of GL(n, p)."""

    def __init__(self, algebra: LieAlgebra):
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

    The algebra's field must be F_p: every enumerator works over F_p, and
    the row keys below pack residues base p, so a set over Q raises
    ValueError before its array is read.  This is the one place that
    rule is checked for a set.

    Stored once, as a read-only (B, n, n) int64 array of member matrices,
    entries in [0, p), sorted in row-major entry order without
    duplicates.  Beside it are two facts about the members, each handed
    over by the enumerator that made and proved it and otherwise computed
    here from the array:

      * ``_keys``, the sorted row keys that ``outside`` searches; when
        they are computed here, the array is checked canonical first (a
        hand-built array that is unsorted, repeats a member or has an
        entry outside [0, p) raises ValueError);
      * ``_moves``, a (d, n, n) basis of the span of the displacements
        F - I mod p, on which ``run_suite``'s identity sweep and
        ``closure_check`` decide; its rows are not members.

    ``_inverse`` holds, when ``_finish_set`` built the set, the index of
    each member's inverse; it is None otherwise.  A member is named by its
    index in the array; only a closure witness builds LinearMaps.  ==
    compares members.
    """

    algebra: LieAlgebra
    kind: str  # "commuting" | "central" | "full"
    _array: np.ndarray = dataclass_field(repr=False)
    _keys: Optional[np.ndarray] = dataclass_field(default=None, repr=False)
    _inverse: Optional[np.ndarray] = dataclass_field(default=None, repr=False)
    _moves: Optional[np.ndarray] = dataclass_field(default=None, repr=False)

    def __post_init__(self):
        if not self.algebra.field.is_prime:
            raise ValueError("an automorphism set needs a prime field")
        p = self.algebra.field.p
        if self._keys is None:
            if not ((self._array >= 0) & (self._array < p)).all():
                raise ValueError(f"a set's entries must lie in [0, {p})")
            keys = _row_keys(self._array, p)
            if not np.array_equal(np.unique(keys), keys):
                raise ValueError("a set's members must be sorted in row-major entry order, without repeats")
            object.__setattr__(self, "_keys", keys)
        if self._moves is None:
            object.__setattr__(self, "_moves", modp.displacement_basis(self._array, p))
        for fact in (self._keys, self._inverse, self._moves):
            if fact is not None:
                fact.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self._array)

    def member_keys(self) -> frozenset:
        n = self.algebra.dim
        return frozenset(map(tuple, self._array.reshape(self.size, n * n).tolist()))

    def member_array(self) -> np.ndarray:
        return self._array

    def outside(self, other: "AutomorphismSet") -> np.ndarray:
        """Mask over this set's members: True where the member is not in other."""
        return ~_contains_rows(other._keys, self._keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AutomorphismSet):
            return NotImplemented
        same_kind = (self.algebra, self.kind) == (other.algebra, other.kind)
        return same_kind and np.array_equal(self._array, other._array)


def _row_keys(mats: np.ndarray, p: int) -> np.ndarray:
    """One opaque key per matrix whose order is row-major entry order.

    The flattened entries, residues in [0, p), are packed base p, first
    entry most significant, into int64 words of d digits each, d the most
    with p^d < 2^63, so each word is non-negative.  When one word holds
    every entry, that word is the key, a native int64.  Otherwise the
    words are big-endian and the key is their bytes (``void``):
    big-endian bytes of non-negative integers compare like the integers.
    Either way comparing the keys compares the flattened entry tuples
    lexicographically.
    """
    flat = mats.reshape(len(mats), mats.shape[1] * mats.shape[2])
    d = next(d for d in range(63, 0, -1) if p**d < 2**63)
    count = -(-flat.shape[1] // d)
    words = np.empty((len(mats), count), dtype=np.int64 if count == 1 else ">i8")
    for w in range(count):
        digits = flat[:, w * d : (w + 1) * d]
        powers = np.array([p**e for e in range(digits.shape[1] - 1, -1, -1)], dtype=np.int64)
        words[:, w] = digits @ powers
    if count == 1:
        return words[:, 0]
    return words.view(np.dtype((np.void, count * 8))).ravel()


def _contains_rows(sorted_keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Mask: which query keys occur in the sorted key array."""
    if len(sorted_keys) == 0:
        return np.zeros(len(query), dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, query), len(sorted_keys) - 1)
    return sorted_keys[at] == query


def _holds_identity(keys: np.ndarray, p: int, n: int) -> bool:
    """Whether the sorted row keys of a set of n x n maps hold the identity's."""
    return bool(_contains_rows(keys, _row_keys(np.eye(n, dtype=np.int64)[None], p))[0])


def _finish_set(algebra: LieAlgebra, kind: str, mats, inverses=None, moves=None) -> AutomorphismSet:
    """Canonical set from member matrices, entries in [0, p), as one
    (B, n, n) int64 array or a list of blocks: sorted in row-major entry
    order; a repeated member is an error, as every enumerator lists
    distinct members (module docstring).  Each block is written to the
    canonical positions of its rows, so the blocks and that array are the
    only member copies alive.

    The set must hold the identity and every member's inverse.
    ``inverses(members, sources)`` (default ``modp.batch_inverse``) gives
    a candidate inverse for each of a block of canonical members, sources
    being their positions in the concatenated input.  No candidate is
    trusted: it must satisfy f g = I mod p and be found among the members,
    and then g^-1 = f needs no check of its own.  So blocks of
    INVERSE_BLOCK members, in canonical order, ask only for the members
    that no earlier check has paired.  Each proof is kept: f at index a
    and g at index b give inverse[a] = b and inverse[b] = a, the set's
    inverse index (8 bytes per member).

    ``moves``, a (d, n, n) basis of the span of the members'
    displacements F - I that the caller derived from how it made them, is
    handed to the set as is; without it the set computes one from its
    members.
    """
    p = algebra.field.p
    n = algebra.dim
    blocks = [mats] if isinstance(mats, np.ndarray) else mats
    source_keys = np.concatenate([_row_keys(b, p) for b in blocks])
    # the source of each canonical position; keys that pass the repeat check
    # are distinct, so every sort kind gives this one order
    first = np.argsort(source_keys)
    keys = source_keys[first]
    if (keys[1:] == keys[:-1]).any():
        raise AssertionError(f"{kind} enumeration listed a member twice")
    at = np.empty_like(first)  # the canonical position of each source
    at[first] = np.arange(len(first))
    arr = np.empty((len(keys), n, n), dtype=np.int64)
    start = 0
    for block in blocks:
        arr[at[start : start + len(block)]] = block
        start += len(block)
    if not _holds_identity(keys, p, n):
        raise AssertionError(f"{kind} enumeration lost the identity map")
    eye = np.eye(n, dtype=np.int64)
    if inverses is None:

        def inverses(members, sources):
            return modp.batch_inverse(members, p)[0]

    paired = np.zeros(len(arr), dtype=bool)
    inverse = np.empty(len(arr), dtype=np.int64)
    for start in range(0, len(arr), INVERSE_BLOCK):
        todo = start + np.flatnonzero(~paired[start : start + INVERSE_BLOCK])
        members = arr[todo]
        candidates = inverses(members, first[todo])
        inverse_keys = _row_keys(candidates, p)
        at = np.minimum(np.searchsorted(keys, inverse_keys), len(keys) - 1)  # keys holds the identity
        proven = (modp.residue(np.matmul(members, candidates), p) == eye).all()
        if not (proven and (keys[at] == inverse_keys).all()):
            raise AssertionError(f"{kind} enumeration is not closed under inverse")
        paired[at] = True
        inverse[todo] = at
        inverse[at] = todo
    arr.flags.writeable = False
    return AutomorphismSet(algebra, kind, arr, keys, inverse, moves)


# ---------------------------------------------------------------------------
# points of spans, and the invertible points of I + W
# ---------------------------------------------------------------------------


def _digits(p: int, width: int, idx: np.ndarray) -> np.ndarray:
    """Base-p digit rows of the non-negative integers idx, width digits each, first digit slowest."""
    digits = np.empty((len(idx), width), dtype=np.int64)
    for i in range(width - 1, -1, -1):
        quotient = idx // p
        digits[:, i] = idx - quotient * p
        idx = quotient
    return digits


def _span_points(basis: np.ndarray, p: int, idx: np.ndarray) -> np.ndarray:
    """Combinations idx of the basis rows, first coefficient slowest."""
    return modp.residue(_digits(p, len(basis), idx) @ basis, p)


def _pair_blocks(left: np.ndarray, right: np.ndarray, combine) -> list:
    """The (n, n) maps combine makes of every pair (i, j), pair (i, j) at source i len(right) + j.

    Blocks hold at most CHUNK pairs, in source order: CHUNK // len(right)
    left rows times all of right, or one left row times a CHUNK slice of
    right when len(right) >= CHUNK.  combine takes a block of a left rows
    and one of b right rows and returns their (a, b, n, n) maps.
    """
    m = len(right)
    step, width = max(1, CHUNK // m), min(m, CHUNK)
    blocks = []
    for i in range(0, len(left), step):
        for j in range(0, m, width):
            block = combine(left[i : i + step], right[j : j + width])
            blocks.append(block.reshape(block.shape[0] * block.shape[1], *block.shape[2:]))
    return blocks


def _invertible_points(algebra: LieAlgebra, kind: str, U: np.ndarray, X_basis: np.ndarray) -> AutomorphismSet:
    """The invertible points of I + W, W = {U X : X in the span of X_basis}.

    U is an n x k basis of the image subspace, as columns, and X_basis an
    (m, k, n) array of independent k x n matrices.  By Sylvester's identity
    det(I_n + U X) = det(I_k + X U).  With N_i = X_i U, the s heads are the
    X_i whose N_i are independent (``modp.spanning_rows``) and the m - s
    tails a basis T_j of the X with X U = 0 (the left kernel of N), so
    I + U X is invertible exactly when its head part y gives an invertible
    K_y = I_k + sum y_h N_h.  One ``modp.batch_inverse`` over the p^s
    blocks K_y gives the h invertible heads X_h and M_h = K_h^-1.
    dim6_center3's central set over F3 (m = 9, s = 3) needs 27 k x k
    eliminations and has 18 heads times 729 tails.

    The head maps H_h = I + U X_h and the p^(m-s) tail combinations T_t
    are computed once.  Member (h, t), at source t c + h (c the number of
    heads), is H_h + U T_t, listed tail by tail in blocks of at most CHUNK
    rows (``_pair_blocks``): each block makes the tail maps U T_t of its
    tails once for all heads, and no more than one block of them is held,
    which a listing head by head would need all of at once.  Its
    candidate inverse is Woodbury's I - U M_h (X_h + T_t) =
    G_h - (U M_h) T_t, with G_h = I - U M_h X_h: T_t U = 0 leaves K_h as
    it is.  ``_finish_set`` proves it.

    The displacements span what the h head displacements U X_h and the
    m - s tail maps U T_j span (module docstring); ``modp.spanning_maps``
    of those maps is the set's displacement basis.
    """
    p = algebra.field.p
    n, k = U.shape
    m = len(X_basis)
    flat = X_basis.reshape(m, k * n)
    xu = modp.residue(np.matmul(X_basis, U), p).reshape(m, k * k)
    heads = modp.spanning_rows(xu, p)
    left_kernel = kernel(Matrix(algebra.field, tuple(map(tuple, xu.T.tolist()))))
    tail_flat = modp.residue(modp.matrix_to_array(left_kernel.basis, m) @ flat, p)
    head_coeffs = _digits(p, len(heads), np.arange(p ** len(heads)))
    K = modp.residue(head_coeffs @ xu[heads], p).reshape(len(head_coeffs), k, k) + np.eye(k, dtype=np.int64)
    M, invertible = modp.batch_inverse(K, p)
    M = M[invertible]
    X_heads = modp.residue(head_coeffs[invertible] @ flat[heads], p).reshape(len(M), k, n)
    tails = p ** len(tail_flat)
    T = _span_points(tail_flat, p, np.arange(tails)).reshape(tails, k, n)
    eye_n = np.eye(n, dtype=np.int64)
    head_moves = modp.residue(np.matmul(U, X_heads), p)
    head_maps = modp.residue(head_moves + eye_n, p)
    UM = modp.residue(np.matmul(U, M), p)
    G = modp.residue(eye_n - modp.residue(np.matmul(UM, X_heads), p), p)
    h_count = len(M)

    def woodbury(members: np.ndarray, sources: np.ndarray) -> np.ndarray:
        h = sources % h_count
        return modp.residue(G[h] - modp.residue(np.matmul(UM[h], T[sources // h_count]), p), p)

    kept = _pair_blocks(T, head_maps, lambda t, heads: modp.residue(np.matmul(U, t)[:, None] + heads[None], p))
    tail_basis = modp.residue(np.matmul(U, tail_flat.reshape(len(tail_flat), k, n)), p)
    return _finish_set(algebra, kind, kept, woodbury, modp.spanning_maps(np.concatenate([head_moves, tail_basis]), p))


# ---------------------------------------------------------------------------
# commuting automorphisms
# ---------------------------------------------------------------------------


def enumerate_commuting(algebra: LieAlgebra, budget: int = DEFAULT_BUDGET) -> AutomorphismSet:
    """The exact commuting automorphisms of a nilpotent algebra over F_p: class representatives times Aut_c."""
    return _commuting_and_central(algebra, budget)[0]


def _commuting_and_central(algebra: LieAlgebra, budget: int) -> tuple:
    """(commuting set, central set), the central set enumerated once for both."""
    field = algebra.field
    if not field.is_prime:
        raise ValueError("enumeration needs a prime field")
    if not algebra.is_nilpotent:
        raise NonNilpotentError("enumeration requires a nilpotent algebra")
    if algebra.is_abelian:
        raise AbelianShortCircuit(algebra)
    p = field.p
    g, V = _assignment_space(algebra, budget)  # refuses before V or the presentation is built
    central = enumerate_central(algebra, budget)  # p^(d r) <= p^(dim V): no refusal
    reps = _class_representatives(algebra, g, V)
    C = central.member_array()
    if len(reps) == 1:  # only the identity's class, I + Φ: S = Aut_c
        return replace(central, kind="commuting"), central
    m = len(C)
    n = algebra.dim
    reps_inv = modp.batch_inverse(reps, p)[0]
    c_inv = central._inverse  # proven by _finish_set; a wrong one fails f g = I there again
    products = _pair_blocks(reps, C, lambda a, b: modp.residue(np.matmul(a[:, None], b[None]), p))
    # r c - I = (r - I) + r (c - I): the r - I and a basis of span(R) composed with
    # Aut_c's displacement basis span S's displacements (composition is bilinear)
    left, right = modp.spanning_maps(reps, p), central._moves
    moves = modp.spanning_maps(np.concatenate([
        modp.residue(reps - np.eye(n, dtype=np.int64), p),
        modp.residue(np.matmul(left[:, None], right[None]), p).reshape(len(left) * len(right), n, n),
    ]), p)

    def inverses(members: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """(r ∘ c)^-1 = c^-1 ∘ r^-1 for the product r ∘ c at each source."""
        return modp.residue(np.matmul(C[c_inv[sources % m]], reps_inv[sources // m]), p)

    return _finish_set(algebra, "commuting", products, inverses, moves), central


def _level_rows(algebra: LieAlgebra, budget: int) -> tuple:
    """(generators, coset rows, ad(g_t) rows) of the level systems, within the budget.

    Level t's rows on w = f(g_t) are the coset rows C, [w, g_t], and
    [w, g_s] for each s < t, so its kernel has width n - rank(C + ad_0 +
    ... + ad_t).  One span grows through the levels: level t eliminates
    level t - 1's RREF basis together with ad(g_t)'s rows, once.
    BudgetExceededError is raised when the projection, the product of the
    per-level kernel sizes, exceeds the budget; it is an upper bound on
    p^(dim V), not the count (dim6_center1 over F3 projects 3^9 and has
    3^7 assignments).
    """
    field = algebra.field
    p = field.p
    n = algebra.dim
    gens = algebra.generator_indices()
    coset_rows = algebra.second_center().annihilator().rows
    ad = [algebra.ad_matrix(g).rows for g in gens]
    widths = []
    span = coset_rows
    for rows in ad:
        span = _span(field, n, span + rows).basis.rows
        widths.append(n - len(span))

    projected = 1
    for k in widths:
        projected *= p**k
    if projected > budget:
        shown = " x ".join(f"p^{k}" for k in widths)
        raise BudgetExceededError(budget, projected, f"level widths {shown}")
    return gens, coset_rows, ad


def _assignment_space(algebra: LieAlgebra, budget: int) -> tuple:
    """(g, V): the generators as (r, n) rows and a basis of V as (dim V, r n) rows.

    The assignments that satisfy the level rows are g + V, each point read
    as r images of n entries; ``_level_rows`` refuses before V is built.
    """
    field = algebra.field
    n = algebra.dim
    gens, coset_rows, ad = _level_rows(algebra, budget)
    r = len(gens)
    zero = (field.zero,) * n

    def placed(parts: dict) -> tuple:
        """One row of the joint system: parts[u] acts on z_u."""
        return sum((parts.get(u, zero) for u in range(r)), ())

    # block t: C z_t = 0, ad(g_t) z_t = 0, ad(g_s) z_t + ad(g_t) z_s = 0 for s < t
    system = []
    for t in range(r):
        system += [placed({t: row}) for row in coset_rows + ad[t]]
        for s in range(t):
            system += [placed({t: a, s: b}) for a, b in zip(ad[s], ad[t])]
    V = np.array(kernel(Matrix(field, tuple(system))).basis.rows, dtype=np.int64).reshape(-1, r * n)
    return np.eye(n, dtype=np.int64)[gens], V


def _class_representatives(algebra: LieAlgebra, g: np.ndarray, V: np.ndarray) -> np.ndarray:
    """One invertible member of each class f + Φ of the commuting set, as (N, n, n),
    from g + V', V' the rows of V that ``modp.spanning_rows`` keeps after Z^r's."""
    p = algebra.field.p
    n = algebra.dim
    r = len(g)
    center = modp.matrix_to_array(algebra.center().basis, n)  # (d, n)
    d = len(center)
    z_rows = (np.eye(r, dtype=np.int64)[:, None, :, None] * center[None, :, None, :]).reshape(r * d, r * n)
    V_prime = V[np.array(modp.spanning_rows(np.concatenate([z_rows, V]), p)[r * d :], dtype=np.int64) - r * d]
    keep = _class_test(algebra, center)
    pres = algebra.generator_presentation()
    T = modp.structure_tensor(algebra)
    count = p ** len(V_prime)
    kept = [np.zeros((0, n, n), dtype=np.int64)]
    for start in range(0, count, CHUNK):
        points = _span_points(V_prime, p, np.arange(start, min(count, start + CHUNK))).reshape(-1, r, n)
        block = keep(modp.residue(g + points, p))
        if len(block):
            kept.append(_filter_assignments(algebra, pres, T, block))
    return np.concatenate(kept)


def _class_test(algebra: LieAlgebra, center: np.ndarray):
    """The class test, as a function on (B, r, n) assignments; center is a basis of Z as rows.

    It keeps the assignments whose images span L/(L' + Z), each moved by
    central parts to have images independent modulo L' (module docstring).
    """
    p = algebra.field.p
    quotient = modp.subspace_constraints(algebra.derived())  # Λ, (r, n)
    r = len(quotient)
    lift = center[modp.spanning_rows(modp.residue(center @ quotient.T, p), p)]  # (c, n)
    c = len(lift)
    basis = np.concatenate([modp.residue(lift @ quotient.T, p), np.eye(r, dtype=np.int64)])
    to_basis = modp.batch_inverse(basis[modp.spanning_rows(basis, p)][None], p)[0][0]

    def keep(assignments: np.ndarray) -> np.ndarray:
        coords = modp.residue(modp.residue(assignments @ quotient.T, p) @ to_basis, p)  # (B, r, r)
        spans, pivots = modp.batch_pivot_rows(coords[:, :, c:], p)
        coords, pivots, assignments = coords[spans], pivots[spans], assignments[spans]
        free = np.ones(coords.shape[:2], dtype=bool)
        np.put_along_axis(free, pivots, False, axis=1)
        rank = np.cumsum(free, axis=1) - 1  # row t outside the pivots gets unit vector rank[t]
        target = (free[:, :, None] & (rank[:, :, None] == np.arange(c))).astype(np.int64)
        return modp.residue(assignments + (target - coords[:, :, :c]) @ lift, p)

    return keep


def _filter_assignments(algebra: LieAlgebra, pres, T: np.ndarray, assignments) -> np.ndarray:
    """Extend (B, r, n) generator assignments to full maps; keep the homomorphisms.

    The block must hold at most CHUNK assignments that satisfy every
    level's rows, with generator images independent modulo L' (as
    ``_class_test`` leaves them).  Such homomorphisms commute and are
    invertible (see the module docstring).  T is the algebra's structure
    tensor.  Returns them as a (B, n, n) int64 array.
    """
    p = algebra.field.p
    n = algebra.dim
    block = np.asarray(assignments, dtype=np.int64).reshape(-1, len(pres.generators), n)
    T_i_jk = T.reshape(n, n * n)
    values = list(block.transpose(1, 0, 2))
    for t, s in pres.steps:
        # [x, y]: x @ T gives the rows [x, e_j], then y combines them
        ad_x = modp.residue(values[t] @ T_i_jk, p).reshape(-1, n, n)
        values.append(modp.residue(np.matmul(values[s][:, None, :], ad_x)[:, 0, :], p))
    cols = np.stack(values, axis=2)  # (B, n, n) value images as columns
    mats = modp.residue(np.matmul(cols, modp.matrix_to_array(pres.basis_inverse, n)), p)
    return mats[modp.batch_is_homomorphism(mats, T, p)]


# ---------------------------------------------------------------------------
# central automorphisms
# ---------------------------------------------------------------------------


def enumerate_central(algebra: LieAlgebra, budget: int = DEFAULT_BUDGET) -> AutomorphismSet:
    """Aut_c(L) = {id + phi : phi(L) in Z(L), phi(L') = 0, id + phi invertible}.

    The invertible points of I + Φ (``_invertible_points``): phi = U X,
    U an n x d basis of Z(L) as columns, X in the span of the e_q ⊗ Λ_t,
    the d x n matrices whose row q is Λ_t, the L/L' coordinates, and whose
    other rows are 0.  So phi kills L' and needs no presentation: this
    works on non-nilpotent algebras too.
    """
    field = algebra.field
    if not field.is_prime:
        raise ValueError("enumeration needs a prime field")
    p = field.p
    n = algebra.dim
    center = algebra.center()
    quotient = modp.subspace_constraints(algebra.derived())  # Λ, (r, n)
    r = len(quotient)
    d = center.dim
    count = p ** (d * r)
    if count > budget:
        raise BudgetExceededError(budget, count, f"p^(dim Z * dim L/L') = {p}^{d * r}")
    U = modp.matrix_to_array(center.basis, n).T  # (n, d)
    X_basis = np.eye(d, dtype=np.int64)[:, None, :, None] * quotient[None, :, None, :]  # [q, t] = e_q ⊗ Λ_t
    return _invertible_points(algebra, "central", U, X_basis.reshape(d * r, d, n))


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def enumerate_aut_bruteforce(algebra: LieAlgebra) -> AutomorphismSet:
    """Ground truth: filter all p^(n^2) matrices by the automorphism predicate."""
    return _bruteforce(algebra, ("full",))[0]


def enumerate_commuting_bruteforce(algebra: LieAlgebra) -> AutomorphismSet:
    return _bruteforce(algebra, ("commuting",))[0]


def enumerate_central_bruteforce(algebra: LieAlgebra) -> AutomorphismSet:
    return _bruteforce(algebra, ("central",))[0]


def _bruteforce(algebra: LieAlgebra, kinds: tuple) -> tuple:
    """One set per kind: the automorphisms among all p^(n^2) <= BRUTE_FORCE_LIMIT
    matrices, found once, then each kind's own mask ("full" keeps them all)."""
    if not algebra.field.is_prime:
        raise ValueError("brute force needs a prime field")
    p, n = algebra.field.p, algebra.dim
    count = p ** (n * n)
    if count > BRUTE_FORCE_LIMIT:
        raise BudgetExceededError(BRUTE_FORCE_LIMIT, count, f"p^(n^2) = {p}^{n * n}")
    mats = _digits(p, n * n, np.arange(count)).reshape(count, n, n)
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
        sets.append(_finish_set(algebra, kind, mats[keep]))
    return tuple(sets)


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
    f, g = (LinearMap(Matrix(algebra.field, tuple(map(tuple, m)))) for m in arr[[fi, gi]].tolist())
    x, residual = commuting_witness(algebra, compose(g, f))
    return ClosureWitness(f, g, fi, gi, x, residual)


def closure_check(aset: AutomorphismSet) -> ClosureVerdict:
    """Decide whether the commuting set is closed under composition.

    The commuting defect of g o f is bilinear in (f, g), so the set is
    closed exactly when all d^2 ordered pairs of any basis of its linear
    span (d <= n^2) compose to commuting maps.  The set must hold I, and
    then that span is span{F - I} + <I> (module docstring): the basis is
    what ``modp.spanning_maps`` keeps of I followed by the set's
    ``_moves``.  So a closed set is decided without reading its members,
    and ``pair_count`` is d^2.

    The witness, when there is one, is the first ordered pair (f, g) in
    canonical member order whose composition g o f does not commute.
    Only a set that is not closed looks for it: the d members that span
    the set, picked greedily in canonical order (``modp.spanning_rows``,
    which stops at the d-th), hold it, as the first failing pair of all
    members is a pair of these representatives (were f a combination of
    earlier members, which pass against every g, it would pass too;
    likewise g).  The ordered scan over all N^2 pairs is ``closure_scan``
    in ``tests/closure_reference.py``.
    """
    if aset.kind != "commuting":
        raise ValueError("closure_check applies to commuting sets")
    algebra = aset.algebra
    p = algebra.field.p
    n = algebra.dim
    if not _holds_identity(aset._keys, p, n):
        raise ValueError("closure check needs a set that holds the identity")
    T = modp.structure_tensor(algebra)

    def pairs_commute(basis: np.ndarray) -> np.ndarray:
        """(d, d) mask: [a, b] is whether basis[b] o basis[a] commutes."""
        d = len(basis)
        comps = modp.residue(np.matmul(basis[None], basis[:, None]), p)
        return modp.batch_is_commuting(comps.reshape(d * d, n, n), T, p).reshape(d, d)

    span = modp.spanning_maps(np.concatenate([np.eye(n, dtype=np.int64)[None], aset._moves]), p)
    d = len(span)
    if pairs_commute(span).all():
        return ClosureVerdict(True, None, d * d, "span")
    arr = aset.member_array()
    reps = modp.spanning_rows(arr.reshape(len(arr), n * n), p, d)
    ok = pairs_commute(arr[reps])
    if ok.all():
        raise AssertionError("the set's span basis fails a pair that its members pass")
    a = int(np.argmin(ok.all(axis=1)))
    witness = _make_witness(algebra, arr, reps[a], reps[int(np.argmin(ok[a]))])
    return ClosureVerdict(False, witness, d * d, "span")


@dataclass(frozen=True)
class EqualityReport:
    """only_in_a: indices into a's member array (row-major entry order) of
    the first five members missing from b; only_in_b likewise for b."""

    equal: bool
    only_in_a: tuple
    only_in_b: tuple


def sets_equal(a: AutomorphismSet, b: AutomorphismSet) -> EqualityReport:
    """Compare two sets; examples are member indices in row-major entry order, up to 5 per side."""
    if a.algebra != b.algebra:
        raise ValueError("sets_equal needs sets over the same algebra")
    only_a = tuple(np.flatnonzero(a.outside(b))[:5].tolist())
    only_b = tuple(np.flatnonzero(b.outside(a))[:5].tolist())
    return EqualityReport(not (only_a or only_b), only_a, only_b)
