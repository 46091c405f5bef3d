"""Batched mod-p kernels against the unfactored formulas and the exact core."""

import numpy as np
import pytest

import einsum_reference
import elimination_reference
from coclass_lab import maps, modp
from coclass_lab.algebra import LieAlgebra
from coclass_lab.constructions import abelian, default_catalog, dim5_example, filiform, heisenberg
from coclass_lab.fields import FieldSpec
from coclass_lab.harness import SUITE_BUDGET
from coclass_lab.linalg import Matrix, invert
from coclass_lab.maps import LinearMap, commuting_defect, identity_suite_batch, is_automorphism
from coclass_lab.search import (
    AbelianShortCircuit,
    BudgetExceededError,
    enumerate_central,
    enumerate_commuting,
)

PRIMES = (3, 65521)


def _as_map(field, mat) -> LinearMap:
    return LinearMap(Matrix(field, tuple(tuple(int(x) for x in row) for row in mat)))


def _automorphisms(name: str, p: int, count: int, rng) -> tuple:
    """(algebra, (count, n, n) batch of automorphisms) from explicit families."""
    field = FieldSpec.prime(p)
    out = []
    for _ in range(count):
        a, b, c = (int(x) for x in rng.integers(1, p, size=3))
        s, t = (int(x) for x in rng.integers(0, p, size=2))
        if name == "heisenberg_1_1":
            alg = heisenberg(1, 1, field)
            det = 0
            while det == 0:
                d = int(rng.integers(0, p))
                det = (a * d - b * c) % p
            # f(u1) = a u1 + c u2 + s z, f(u2) = b u1 + d u2 + t z, f(z) = det z
            out.append([[a, b, 0], [c, d, 0], [s, t, det]])
        elif name == "filiform_5":
            alg = filiform(5, field)
            # grading u -> a u, v -> b v, v_i -> a^i b v_i, then u -> u + s v
            grade = [a, b, a * b % p, a * a * b % p, a**3 * b % p]
            m = np.diag(grade)
            m[1, 0] = s * b % p
            out.append(m.tolist())
        else:
            alg = dim5_example(field)
            # x1, x2, x3, x4 scaled with a*b = c*e, x5 -> a*b x5, then x1 -> x1 + s x5
            e = a * b * pow(c, -1, p) % p
            m = np.diag([a, b, c, e, a * b % p])
            m[4, 0] = s
            out.append(m.tolist())
    return alg, np.array(out, dtype=np.int64) % p


def _mixed_batch(name: str, p: int, rng) -> tuple:
    """Automorphisms, the same with one entry moved, and random matrices."""
    alg, auts = _automorphisms(name, p, 60, rng)
    n = alg.dim
    moved = auts.copy()
    rows = rng.integers(0, n, size=len(moved))
    cols = rng.integers(0, n, size=len(moved))
    moved[np.arange(len(moved)), rows, cols] += rng.integers(1, p, size=len(moved))
    noise = rng.integers(0, p, size=(60, n, n))
    return alg, auts, np.concatenate([auts, moved % p, noise])


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ["heisenberg_1_1", "filiform_5", "dim5_example"])
def test_batch_is_homomorphism_matches_unfactored_einsum(p, name):
    rng = np.random.default_rng(p + len(name))
    alg, auts, batch = _mixed_batch(name, p, rng)
    T = modp.structure_tensor(alg)
    got = modp.batch_is_homomorphism(batch, T, p)
    assert got.tolist() == einsum_reference.is_homomorphism(batch, T, p).tolist()
    S = modp.batch_commuting_form(batch, T, p)
    assert got.tolist() == elimination_reference.homomorphism_mask(batch, S, T, p).tolist()
    assert got[: len(auts)].all()
    assert not got.all()
    for mat in auts[:3]:
        assert is_automorphism(alg, _as_map(alg.field, mat)).clean


@pytest.mark.parametrize("n", (3, 4, 5))
def test_homomorphism_mask_checks_every_pair(n):
    # one bracket [e_i, e_j] = e_k, and f doubles e_k: only the pair (i, j) fails
    p = 5
    for i in range(n):
        for j in range(i + 1, n):
            k = min(set(range(n)) - {i, j})
            alg = LieAlgebra(FieldSpec.prime(p), n, {(i, j): ((k, 1),)})
            T = modp.structure_tensor(alg)
            f = np.eye(n, dtype=np.int64)
            f[k, k] = 2
            mats = np.array([np.eye(n, dtype=np.int64), f])
            assert modp.batch_is_homomorphism(mats, T, p).tolist() == [True, False], (i, j)
            assert einsum_reference.is_homomorphism(mats, T, p).tolist() == [True, False]


@pytest.mark.parametrize("p", PRIMES)
def test_commuting_mask_matches_pure_python_predicate(p):
    field = FieldSpec.prime(p)
    L = heisenberg(1, 1, field)
    T = modp.structure_tensor(L)
    rng = np.random.default_rng(p)
    mats = []
    for a, b in rng.integers(1, p, size=(20, 2)).tolist() + [[p - 2, p - 2], [p - 1, 1]]:
        mats.append(np.diag([a, a, a * a % p]))  # commuting
        mats.append(np.diag([a, b, a * b % p]))  # commuting only when a == b
    mats = np.array(mats, dtype=np.int64)
    got = modp.batch_is_commuting(mats, T, p)
    want = [commuting_defect(L, _as_map(field, m)).clean for m in mats]
    assert got.tolist() == want
    assert any(want) and not all(want)


@pytest.mark.parametrize("p", PRIMES)
def test_residue_matches_remainder(p):
    n = 8
    top = n * p**3
    rng = np.random.default_rng(p)
    x = np.concatenate([
        np.arange(-3 * p, 3 * p),
        rng.integers(-top, top, size=10_000),
        [-top, -top + 1, top - 1, top, -(p**2), p**2, p - 1, -(p - 1)],
    ]).astype(np.int64)
    want = np.remainder(x, p)
    got = modp.residue(x, p)
    assert got is x  # in place
    assert got.tolist() == want.tolist()
    # it writes its argument, so a set's read-only member array must raise
    members = enumerate_central(heisenberg(1, 1, FieldSpec.prime(3))).member_array()
    before = members.tolist()
    with pytest.raises(ValueError):
        modp.residue(members, p)
    assert members.tolist() == before


@pytest.mark.parametrize("p", (3, 5, 65521))
def test_batch_inverse_matches_exact_invert(p, monkeypatch):
    rng = np.random.default_rng(p)
    field = FieldSpec.prime(p)

    def check(mats) -> np.ndarray:
        """Masks and inverses against the swapping reference and the exact core."""
        inv, ok = modp.batch_inverse(mats, p)
        ref_inv, ref_ok = elimination_reference.batch_inverse(mats, p)
        assert ok.tolist() == ref_ok.tolist() == elimination_reference.batch_invertible(mats, p).tolist()
        assert ok.tolist() == modp.batch_invertible(mats, p).tolist()
        assert inv[ok].tolist() == ref_inv[ok].tolist()
        for b in range(len(mats)):
            exact = invert(Matrix(field, tuple(tuple(int(x) for x in r) for r in mats[b])))
            assert ok[b] == (exact is not None)
            if exact is not None:
                assert inv[b].tolist() == [list(r) for r in exact.rows]
        return ok

    for n in (1, 2, 3, 5, 8):
        mats = rng.integers(0, p, size=(40, n, n))
        mats[0] = 0
        if n > 1:
            mats[1, 1] = mats[1, 0]  # repeated row
            mats[2, :, n - 1] = (2 * mats[2, :, 0]) % p  # dependent column
        assert not check(mats)[:1 if n == 1 else 3].any()
        # unitriangular matrices with permuted rows: no row swaps, so column c's pivot
        # is the one unused row with a nonzero there, below or above used rows that
        # also have one; the first keeps the order, the second reverses it
        upper = np.triu(rng.integers(0, p, size=(20, n, n)), 1) + np.eye(n, dtype=np.int64)
        tri = np.concatenate([upper, upper.transpose(0, 2, 1)])
        order = rng.permuted(np.tile(np.arange(n), (len(tri), 1)), axis=1)
        order[0], order[1] = np.arange(n), np.arange(n)[::-1]
        assert check(np.take_along_axis(tri, order[:, :, None], axis=1)).all()
        inv, ok = modp.batch_inverse(mats[:0], p)
        assert inv.shape == (0, n, n) and ok.shape == modp.batch_invertible(mats[:0], p).shape == (0,)
    # the largest intermediates: all entries p - 1 (rank one), and the matrix whose
    # factors and scaled pivot rows are all p - 1 at every column, so each column
    # moves an unreduced entry by (p - 1)^2 and the pivot-row products reach
    # about (n - 2)(p - 1)^3, 2^50.6 at p = 65521 (the bound is n p^3 < 2^63)
    n = 8
    i, j = np.indices((n, n))
    largest = np.stack([np.full((n, n), p - 1), np.where(i > j, j - 1, np.where(i < j, i + 1, i - 1)) % p])
    peak = [0]

    def residue(x, q, reduce=modp.residue):
        peak[0] = max(peak[0], int(np.abs(x).max(initial=0)))
        return reduce(x, q)

    monkeypatch.setattr(modp, "residue", residue)
    assert check(largest).tolist() == [False, True]
    assert peak[0] > (n - 3) * (p - 1) ** 3
    # the empty matrix is invertible, its own inverse
    empty = np.zeros((4, 0, 0), dtype=np.int64)
    inv, ok = modp.batch_inverse(empty, p)
    assert inv.shape == (4, 0, 0) and ok.all() and modp.batch_invertible(empty, p).all()


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ["heisenberg_1_1", "filiform_5", "dim5_example"])
def test_identity_suite_batch_matches_unfactored_einsum(p, name, monkeypatch):
    monkeypatch.setattr(maps, "IDENTITY_BLOCK", 64)
    rng = np.random.default_rng(2 * p + len(name))
    alg, _, batch = _mixed_batch(name, p, rng)
    got = identity_suite_batch(alg, batch)
    want = einsum_reference.identity_counts(alg, batch)
    assert got == want
    assert got["bracket_swap"] > 0
    # the library reads both double-bracket residues off one tensor by Jacobi;
    # the reference computes them apart, so this checks that premise
    assert want["double_bracket_factor"] == want["double_bracket_vanishes"]
    if name == "filiform_5":  # class 4: the random part breaks every identity
        assert all(got.values()), got


def _rank_deficient(rng, p: int, count: int, m: int, rank: int) -> np.ndarray:
    """count rows of width m, random combinations of rank random rows."""
    coeffs = rng.integers(0, p, size=(count, rank))
    return coeffs @ rng.integers(0, p, size=(rank, m)) % p


def test_matrix_without_rows_keeps_its_width():
    F3 = FieldSpec.prime(3)
    assert modp.matrix_to_array(Matrix(F3, ()), 3).shape == (0, 3)
    assert modp.matrix_to_array(Matrix(F3, ((1, 2, 0),)), 3).tolist() == [[1, 2, 0]]
    # the center of an abelian algebra is everything: no constraint rows, width 3
    assert modp.subspace_constraints(abelian(3, F3).center()).shape == (0, 3)


def test_spanning_rows_keeps_first_independent_rows(monkeypatch):
    p = 5
    a, b, c = np.eye(3, dtype=np.int64)
    rows = np.array([0 * a, a, 2 * a, b, (a + 4 * b) % p, c, (a + b + c) % p])
    assert modp.spanning_rows(rows, p) == [1, 3, 5]
    assert modp.spanning_rows(np.zeros((4, 3), dtype=np.int64), p) == []
    assert modp.spanning_rows(np.zeros((0, 3), dtype=np.int64), p) == []

    # the streamed basis picks the rows of the old column elimination
    rng = np.random.default_rng(5)
    cases = []
    for q in (3, 5, 65521):
        for count, m, rank in ((300, 16, 5), (300, 9, 9), (257, 25, 11), (40, 6, 6), (3, 8, 3)):
            cases.append((q, _rank_deficient(rng, q, count, m, rank)))
        cases.append((q, rng.integers(0, q, size=(50, 12))))
    for q, arr in cases:
        for block in (1, 7, 64, modp.SPAN_BLOCK):  # 300 and 257 are no multiples of these
            monkeypatch.setattr(modp, "SPAN_BLOCK", block)
            assert modp.spanning_rows(arr, q) == elimination_reference.spanning_rows(arr, q)

    # a dependent row just after a block boundary, then a new one
    monkeypatch.setattr(modp, "SPAN_BLOCK", 2)
    rows = np.array([a, b, (2 * a + b) % p, c])
    assert modp.spanning_rows(rows, p) == [0, 1, 3] == elimination_reference.spanning_rows(rows, p)
    monkeypatch.undo()

    # F and F - I of every F3 catalog set
    checked = 0
    for entry in default_catalog(FieldSpec.prime(3)):
        for enumerate_set in (enumerate_commuting, enumerate_central):
            try:
                mats = enumerate_set(entry.algebra, budget=SUITE_BUDGET).member_array()
            except (AbelianShortCircuit, BudgetExceededError):
                continue
            n = entry.algebra.dim
            for arr in (mats, mats - np.eye(n, dtype=np.int64)):
                flat = arr.reshape(len(arr), n * n) % 3
                assert modp.spanning_rows(flat, 3) == elimination_reference.spanning_rows(flat, 3)
            checked += 1
    assert checked >= 25


def test_identity_sweep_spans_displacements_not_maps():
    # I spans the batch [I, 2I] and passes every identity, but 2I has
    # displacement I; a sweep that spanned F instead of F - I reports zeros
    alg = filiform(4, FieldSpec.prime(3))
    eye = np.eye(4, dtype=np.int64)
    batch = np.array([eye, 2 * eye])
    got = identity_suite_batch(alg, batch)
    assert got == einsum_reference.identity_counts(alg, batch)
    assert got["double_bracket_factor"] == 3
    assert identity_suite_batch(alg, batch[:1]) == dict.fromkeys(got, 0)
