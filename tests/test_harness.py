import pytest

from coclass_lab.algebra import LieAlgebra
from coclass_lab.constructions import (
    CatalogEntry,
    abelian,
    default_catalog,
    dim5_center2,
    dim5_example,
    dim6_center1,
    dim6_center2,
    dim6_center3,
    direct_sum,
    filiform,
    heisenberg,
)
from coclass_lab.fields import FieldSpec
from coclass_lab.harness import (
    EQUALS_CENTRAL,
    NO_GUARANTEE,
    NOT_SUBGROUP,
    SUBGROUP,
    StructuralProfile,
    dim5_witness,
    heisenberg_witness,
    predict,
    profile,
    structural_suite,
    verify,
)
from coclass_lab.maps import compose, is_commuting

F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)


# -- profiles -----------------------------------------------------------------


def test_profile_dim5_example():
    p = profile(dim5_example(F3))
    assert p.dim == 5
    assert p.dim_center == 1
    assert p.dim_second_center == 5
    assert p.dim_derived == 1
    assert p.coclass == 3
    assert p.center_codim == 4
    assert p.derived_in_center


def test_profile_filiform6_center_series_index():
    p = profile(filiform(6, F3))
    assert p.coclass == 1
    assert p.dim_center == 1
    assert p.center_lcs_index == 4  # Z(L) = L^(n-2)


def test_profile_abelian4():
    p = profile(abelian(4, F3))
    assert p.nilpotency_class == 1
    assert p.dim_center == 4
    assert p.second_center_class <= 1


def test_profile_scale_free_across_fields():
    for make in (dim5_example, lambda f: filiform(6, f), lambda f: heisenberg(2, 2, f)):
        profiles = {profile(make(f)) for f in (F3, F5, F7)}
        assert len(profiles) == 1


# -- prediction rules -----------------------------------------------------------


def test_rule_r1_filiform():
    pred = predict(profile(filiform(7, F3)))
    assert pred.verdict == EQUALS_CENTRAL and pred.rule == "R1"


def test_rule_r1_gate_dimension_3():
    # dimension-3 coclass 1 is excluded from R1 (see ledgered counterexample);
    # the codimension-2 rule still gives the right subgroup verdict
    pred = predict(profile(heisenberg(1, 1, F3)))
    assert pred.verdict == SUBGROUP and pred.rule == "R7"


def test_rule_r2_coclass_two():
    pred = predict(profile(direct_sum(filiform(4, F3), abelian(1, F3))))
    assert pred.verdict == SUBGROUP and pred.rule == "R2"


def test_rule_r4_dichotomy():
    bad = predict(profile(dim5_example(F3)))
    assert bad.verdict == NOT_SUBGROUP and bad.rule == "R4"
    good = predict(profile(dim5_center2(F3)))
    assert good.verdict == SUBGROUP and good.rule == "R4"


def test_rule_r3_heisenberg_dim6_up():
    for k, m in ((2, 2), (3, 1), (3, 2)):
        pred = predict(profile(heisenberg(k, m, F3)))
        assert pred.verdict == NOT_SUBGROUP and pred.rule == "R3"


def test_rule_r5_dim6_entries():
    for make in (dim6_center2, dim6_center3):
        pred = predict(profile(make(F3)))
        assert pred.verdict == SUBGROUP and pred.rule == "R5"


def test_rule_r6_abelian_second_center():
    pred = predict(profile(abelian(4, F3)))
    assert pred.verdict == SUBGROUP and pred.rule == "R6"


def test_rule_r7_codimension_two_center():
    pred = predict(profile(heisenberg(1, 4, F3)))  # dim 6, coclass 4, [L:Z] = 2
    assert pred.verdict == SUBGROUP and pred.rule == "R7"


def test_rule_r8_dispatch_on_synthetic_profile():
    # R8's hypotheses force an abelian second center through earlier rules on
    # real algebras, so exercise the dispatch order on a synthetic profile
    p = StructuralProfile(
        dim=8,
        nilpotency_class=4,
        coclass=4,
        dim_center=1,
        dim_second_center=3,
        dim_derived=4,
        second_center_class=2,
        center_lcs_index=3,
        center_codim=7,
        derived_in_center=False,
    )
    pred = predict(p)
    assert pred.verdict == SUBGROUP and pred.rule == "R8"


def test_no_guarantee_open_case():
    pred = predict(profile(dim6_center1(F3)))
    assert pred.verdict == NO_GUARANTEE


# -- verify ----------------------------------------------------------------------


def test_verify_filiform5_consistent():
    report = verify(filiform(5, F3), name="filiform_5")
    assert report.consistent
    assert report.enumeration.equal
    assert report.enumeration.closed


def test_verify_dim5_witness_found():
    report = verify(dim5_example(F3))
    assert report.consistent
    assert not report.enumeration.closed
    assert report.enumeration.witness is not None


def test_verify_abelian_short_circuit():
    report = verify(abelian(3, F3))
    assert report.consistent
    assert report.enumeration.short_circuit
    assert report.enumeration.commuting_size == 11232


def test_verify_budget_exceeded_flags_unverified():
    report = verify(heisenberg(2, 2, F3), budget=1000)
    assert report.enumeration is None
    assert "unverified" in report.unverified_reason
    assert report.consistent  # vacuously


def test_verify_without_enumeration():
    report = verify(filiform(4, F3), with_enumeration=False)
    assert report.enumeration is None and report.consistent


def test_verify_rational_field_skips_enumeration():
    report = verify(dim5_example(FieldSpec.rational()))
    assert report.enumeration is None
    assert "prime" in report.unverified_reason


# -- explicit witnesses --------------------------------------------------------------


@pytest.mark.parametrize("km", [(2, 1), (2, 2), (3, 1)])
@pytest.mark.parametrize("p", [3, 5])
def test_heisenberg_witness_grid(km, p):
    k, m = km
    report = heisenberg_witness(k, m, FieldSpec.prime(p))
    assert report.ok
    by = {v.variant: v for v in report.variants}
    assert by["corrected"].beta1_commuting
    assert by["corrected"].beta2_commuting
    assert not by["corrected"].composition_commuting
    # the defect is exactly z1 at u1
    L = heisenberg(k, m, FieldSpec.prime(p))
    z1 = tuple(1 if i == 2 * k else 0 for i in range(L.dim))
    u1 = tuple(1 if i == 0 else 0 for i in range(L.dim))
    assert by["corrected"].defect_input == u1
    assert by["corrected"].defect_bracket == z1
    assert not by["printed"].beta2_commuting


def test_heisenberg_printed_variant_commuting_defect_value():
    # the printed third image breaks the cross term at (u2, u3) with -z1
    from coclass_lab.harness import _beta2_heisenberg
    from coclass_lab.maps import commuting_defect

    L = heisenberg(2, 1, F3)
    printed = _beta2_heisenberg(L, "printed")
    defect = commuting_defect(L, printed)
    assert ((1, 2), (0, 0, 0, 0, 2)) in defect.witnesses  # -z1 = 2 z1 mod 3


def test_heisenberg_witness_blocks_beyond_first_four_fixed():
    report = heisenberg_witness(3, 1, F5)
    for m in [report.beta1] + list(report.beta2_by_variant.values()):
        for j in range(4, 7):
            assert m.image_of_basis(j) == tuple(1 if i == j else 0 for i in range(7))


def test_heisenberg_witness_rejects_small_k():
    with pytest.raises(ValueError):
        heisenberg_witness(1, 1, F3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_dim5_witness_fields(p):
    report = dim5_witness(FieldSpec.prime(p))
    assert report.ok
    v = report.variants[0]
    assert v.defect_input == (1, 0, 0, 0, 0)
    assert v.defect_bracket == (0, 0, 0, 0, 1)  # x5


def test_dim5_beta1_is_involution():
    report = dim5_witness(F3)
    square = compose(report.beta1, report.beta1)
    from coclass_lab.linalg import Matrix

    assert square.matrix == Matrix.identity(F3, 5)


def test_dim5_witness_members_commute_individually():
    report = dim5_witness(F3)
    L = dim5_example(F3)
    assert is_commuting(L, report.beta1)
    assert is_commuting(L, report.beta2_by_variant["corrected"])


# -- structural suite -----------------------------------------------------------------


def test_structural_suite_catalog_clean():
    report = structural_suite(default_catalog(F3))
    assert report.all_ok
    checked = {c.entry for c in report.checks}
    assert checked == {"dim6_center1", "dim6_center2", "dim6_center3"}
    assert "dim5_example" in report.skipped


def test_structural_suite_exceptional_shape_check():
    report = structural_suite(default_catalog(F3))
    exceptional = [c for c in report.checks if c.check == "exceptional_shape"]
    # only dim6_center1 has a class-2 second center
    assert [c.entry for c in exceptional] == ["dim6_center1"]
    assert all(c.ok for c in exceptional)


def test_structural_suite_bounds_fire_for_all_dim6_entries():
    report = structural_suite(default_catalog(F3))
    bounds = [c for c in report.checks if c.check == "center_bounds"]
    assert len(bounds) == 3 and all(c.ok for c in bounds)


def test_profile_then_structural_suite_compute_each_series_once(monkeypatch):
    alg = dim6_center1(F3)  # fresh: catalog entries compute their class tags
    entry = CatalogEntry("dim6_center1", alg)
    calls = {"bracket_subspaces": 0, "_center_preimage": 0}
    for name in calls:
        original = getattr(LieAlgebra, name)

        def counted(self, *args, _original=original, _name=name):
            if self is alg:
                calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(LieAlgebra, name, counted)
    profile(alg)
    report = structural_suite([entry])
    assert {c.entry for c in report.checks} == {"dim6_center1"}
    # one bracket_subspaces per lower step, one preimage per upper step
    assert calls == {
        "bracket_subspaces": len(alg.lower_central_series()) - 1,
        "_center_preimage": len(alg.upper_central_series()) - 1,
    }


# -- suite oracle ---------------------------------------------------------------------


@pytest.mark.parametrize("p", (3, 5))
def test_suite_records_oracle_over_its_limit_as_skipped(monkeypatch, p):
    # 3^9 matrices fit the brute-force limit; 5^9 do not
    from coclass_lab import harness
    from coclass_lab.constructions import CatalogEntry

    monkeypatch.setattr(
        harness,
        "default_catalog",
        lambda field: [CatalogEntry("heisenberg_1_1", heisenberg(1, 1, field), ())],
    )
    report = harness.run_suite(p=p)
    assert report.ok
    rows = report.as_dict()["oracle"]
    if p == 3:
        assert report.oracle_results == (("heisenberg_1_1", True, True),)
        assert report.oracle_skipped == ()
        assert rows == [{"entry": "heisenberg_1_1", "commuting_match": True, "central_match": True}]
        return
    assert report.oracle_results == ()
    ((name, reason),) = report.oracle_skipped
    assert name == "heisenberg_1_1" and "5^9" in reason
    assert rows == [
        {"entry": name, "commuting_match": None, "central_match": None, "skipped": reason}
    ]
    assert f"oracle heisenberg_1_1: skipped ({reason})" in report.to_text()
