"""The class facts of the ``search`` docstring, on every catalog row within budget.

The commuting set S is a union of cosets r ∘ Aut_c, one for each class
r + Φ, Φ = Hom(L/L', Z).  These tests check each fact the enumerator
relies on against data that does not use it: the golden sizes of
``golden/catalog_sets.json`` (written by the enumerators this one
replaced), direct enumeration of (r + Φ) ∩ GL, the derivation space of
``commuting_reference``, and the homomorphism mask on shifted points.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import commuting_reference
import elimination_reference
from coclass_lab import modp, search
from coclass_lab.harness import SUITE_BUDGET
from coclass_lab.linalg import Matrix, kernel
from coclass_lab.search import BudgetExceededError

GOLDEN = Path(__file__).resolve().parent / "golden" / "catalog_sets.json"
# catalog rows within SUITE_BUDGET at each prime
WITHIN_BUDGET = {3: 16, 5: 11, 7: 9}
# N, the number of classes, at F3, F5 and F7 (None: refused at that prime or not pinned)
CLASSES = {
    "filiform_6": (1, 1, 1),
    "heisenberg_1_1": (2, 4, 6),
    "heisenberg_1_2": (2, 4, 6),
    "coclass2_indecomposable": (3, 5, 7),
    "dim5_center2": (2, 4, 6),
    "dim6_center1": (10, 26, 50),
    "dim6_center2": (3, None, None),
    "dim6_center3": (1, None, None),
    "filiform_5_plus_abelian_1": (1, 1, 1),
    "heisenberg_2_1": (164, None, None),
    "dim5_example": (164, None, None),
}


def _golden_sizes() -> dict:
    return {(r["p"], r["name"]): r["commuting"].get("size") for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def _within_budget(catalog_runs, p) -> list:
    return [run for run in catalog_runs(p) if not isinstance(run.commuting, BudgetExceededError)]


def _center_rows(alg) -> np.ndarray:
    return modp.matrix_to_array(alg.center().basis, alg.dim)


def _central_shifts(alg, rng, count: int) -> np.ndarray:
    """count seeded random points of Z^r, as (count, r, n)."""
    center = _center_rows(alg)
    r = len(alg.generator_indices())
    return modp.residue(rng.integers(0, alg.field.p, (count, r, len(center))) @ center, alg.field.p)


def _phi_basis(alg) -> np.ndarray:
    """A basis of Φ = Hom(L/L', Z) as (d r, n, n): z_q Λ_t, z_q a basis of Z, Λ the L/L' coordinates."""
    quotient = modp.subspace_constraints(alg.derived())
    center = _center_rows(alg)
    return (center[:, None, :, None] * quotient[None, :, None, :]).reshape(-1, alg.dim, alg.dim)


def _classes(alg) -> np.ndarray:
    return search._class_representatives(alg, *search._assignment_space(alg, SUITE_BUDGET))


@pytest.mark.parametrize("p", (3, 5, 7))
def test_classes_times_central_set_is_the_commuting_set(catalog_runs, p):
    # N |Aut_c| = |S| against the sizes the replaced enumerators wrote, and
    # V ⊇ Z^r (so d r <= dim V) on every row within budget
    golden = _golden_sizes()
    checked = []
    for run in _within_budget(catalog_runs, p):
        alg = run.algebra
        g, V = search._assignment_space(alg, SUITE_BUDGET)
        center = _center_rows(alg)
        r, d = len(g), len(center)
        assert d * r <= len(V), run.name
        z_rows = np.einsum("ts,qn->tqsn", np.eye(r, dtype=np.int64), center).reshape(r * d, r * alg.dim)
        assert len(modp.spanning_rows(np.concatenate([V, z_rows]), p)) == len(V), run.name
        reps = search._class_representatives(alg, g, V)
        assert len(reps) * run.central.size == run.commuting.size == golden[(p, run.name)], run.name
        expected = CLASSES.get(run.name, (None,) * 3)[(3, 5, 7).index(p)]
        assert expected in (None, len(reps)), run.name
        checked.append(run.name)
    assert len(checked) == WITHIN_BUDGET[p], checked


def _sorted_rows(mats: np.ndarray) -> np.ndarray:
    return np.unique(mats.reshape(len(mats), -1), axis=0)


@pytest.mark.parametrize("p", (3, 5))
def test_each_class_meets_gl_in_one_central_coset(catalog_runs, p):
    # (r + Φ) ∩ GL, enumerated point by point, is r ∘ Aut_c (f^-1 Φ = Φ),
    # with distinct products; the representatives are members of S and lie
    # in distinct classes (distinct images modulo Φ)
    checked = 0
    for run in _within_budget(catalog_runs, p):
        alg = run.algebra
        n = alg.dim
        phi = _phi_basis(alg).reshape(-1, n * n)
        points = search._span_points(phi, p, np.arange(p ** len(phi))).reshape(-1, n, n)
        central = run.central.member_array()
        reps = _classes(alg)
        for rep in reps:
            coset = modp.residue(rep + points, p)
            coset = coset[elimination_reference.batch_invertible(coset, p)]
            products = modp.residue(np.matmul(rep, central), p)
            assert len(_sorted_rows(products)) == len(products) == len(coset), run.name
            assert np.array_equal(_sorted_rows(coset), _sorted_rows(products)), run.name
        assert search._contains_rows(run.commuting._keys, search._row_keys(reps, p)).all(), run.name
        kills_phi = modp.matrix_to_array(kernel(Matrix(alg.field, tuple(map(tuple, phi.tolist())))).basis, n * n)
        assert len(_sorted_rows(modp.residue(reps.reshape(-1, n * n) @ kills_phi.T, p))) == len(reps), run.name
        checked += 1
    assert checked == WITHIN_BUDGET[p]


@pytest.mark.parametrize("p", (3, 5, 7))
def test_central_maps_are_commuting_derivations(catalog_runs, p):
    # Φ ⊆ W: each φ is a derivation into Z_2 with B_φ = 0, so Φ lies in the
    # space that commuting_reference solves for without using Φ
    for run in catalog_runs(p):
        alg = run.algebra
        U = commuting_reference.second_center_columns(alg)
        X_basis = commuting_reference.commuting_derivations(alg, U)
        W = modp.residue(np.matmul(U, X_basis), p).reshape(len(X_basis), -1)
        phi = _phi_basis(alg).reshape(-1, alg.dim**2)
        assert len(modp.spanning_rows(np.concatenate([W, phi]), p)) == len(W), run.name


@pytest.mark.parametrize("p", (3, 5))
def test_filter_is_constant_on_classes(catalog_runs, p):
    # adding z in Z^r to an assignment adds φ_z in Φ to its extension
    # (φ_z(g_t) = z_t, φ_z(L') = 0, φ_z(L) in Z), and the homomorphism and
    # commuting masks do not change: 2,048 seeded random points of g + V
    # per row, the class of the identity first
    rng = np.random.default_rng(p)
    for run in _within_budget(catalog_runs, p):
        alg = run.algebra
        gens = alg.generator_indices()
        pres = alg.generator_presentation()
        g, V = search._assignment_space(alg, SUITE_BUDGET)
        coeffs = rng.integers(0, p, (2048, len(V)))
        coeffs[0] = 0
        block = modp.residue(g + (coeffs @ V).reshape(len(coeffs), *g.shape), p)
        z = _central_shifts(alg, rng, len(block))
        before = elimination_reference.extend_assignments(alg, pres, block)
        after = elimination_reference.extend_assignments(alg, pres, block + z)
        diff = modp.residue(after - before, p)
        assert np.array_equal(diff[:, :, gens], z.transpose(0, 2, 1)), run.name
        derived = modp.matrix_to_array(alg.derived().basis, alg.dim)
        assert not modp.residue(diff @ derived.T, p).any(), run.name
        assert not modp.residue(modp.subspace_constraints(alg.center()) @ diff, p).any(), run.name
        kept = elimination_reference.filter_masks(alg, before)[1]
        assert kept[0] and np.array_equal(kept, elimination_reference.filter_masks(alg, after)[1]), run.name


def _shifted(make_keep):
    """A ``_class_test`` that moves each assignment by a seeded random point of Z^r first."""

    def factory(alg, center):
        keep = make_keep(alg, center)
        rng = np.random.default_rng(2024)
        return lambda block: keep(modp.residue(block + _central_shifts(alg, rng, len(block)), alg.field.p))

    return factory


def _independent_modulo_derived(alg, center):
    """The test of independence modulo L' alone, with no central parts chosen."""
    quotient = modp.subspace_constraints(alg.derived())
    return lambda block: block[modp.batch_invertible(block @ quotient.T, alg.field.p)]


def test_class_test_does_not_depend_on_the_representative(monkeypatch, catalog_runs):
    # each candidate moved within its class by a random φ in Φ gives the same
    # N, with invertible representatives (the central parts are chosen
    # again); independence modulo L' alone gives another N on some row with
    # Z ⊄ L', where the central part of a representative decides it (on the
    # unshifted catalog points the two tests agree, so the shift is needed)
    moved, derived_only = {}, {}
    for p in (3, 5, 7):
        for run in _within_budget(catalog_runs, p):
            alg = run.algebra
            N = run.commuting.size // run.central.size
            with monkeypatch.context() as m:
                m.setattr(search, "_class_test", _shifted(search._class_test))
                reps = _classes(alg)
                moved[(p, run.name)] = len(reps)
                assert modp.batch_invertible(reps, p).all(), (p, run.name)
                m.setattr(search, "_class_test", _shifted(_independent_modulo_derived))
                derived_only[(p, run.name)] = len(_classes(alg))
            assert moved[(p, run.name)] == N, (p, run.name)
            center_in_derived = alg.derived().contains_subspace(alg.center())
            assert center_in_derived <= (derived_only[(p, run.name)] == N), (p, run.name)
    differ = [key for key in derived_only if derived_only[key] != moved[key]]
    assert differ, derived_only
