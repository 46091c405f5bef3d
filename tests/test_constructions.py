import json
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coclass_lab
from coclass_lab.algebra import LieAlgebra
from coclass_lab.constructions import (
    CatalogEntry,
    CatalogError,
    abelian,
    builtin,
    coclass2_indecomposable,
    default_catalog,
    dim5_center2,
    dim5_example,
    dim6_center1,
    dim6_center2,
    dim6_center3,
    direct_sum,
    filiform,
    heisenberg,
    load_catalog,
    save_catalog,
)
from coclass_lab.fields import FieldSpec
from coclass_lab.linalg import Subspace

F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
Q = FieldSpec.rational()
DATA = Path(coclass_lab.__file__).parent / "data"


# -- families -----------------------------------------------------------------


def test_abelian_center_is_everything():
    assert abelian(1, F3).center().is_full()
    assert abelian(4, F3).nilpotency_class() == 1
    assert abelian(4, F3).coclass() == 3


def test_abelian_aut_order_bruteforce():
    # |GL(3,3)| = 11232 by counting invertible matrices outright
    from coclass_lab.search import enumerate_aut_bruteforce, gl_order

    aut = enumerate_aut_bruteforce(abelian(3, F3))
    assert aut.size == 11232 == gl_order(3, 3)


def test_heisenberg_shape():
    L = heisenberg(2, 1, F3)
    assert L.dim == 5
    assert L.derived().basis.rows == ((0, 0, 0, 0, 1),)
    assert L.center().basis.rows == ((0, 0, 0, 0, 1),)
    assert L.dim - L.center().dim == 4  # [L : Z(L)] = 4


def test_heisenberg_1_1_series():
    L = heisenberg(1, 1, F3)
    assert L.second_center().is_full()
    assert L.center() == L.derived()


def test_heisenberg_center_is_z_span():
    for k, m in [(1, 2), (2, 2), (3, 1)]:
        L = heisenberg(k, m, F3)
        expected = Subspace.from_vectors(
            F3, L.dim, [tuple(1 if i == 2 * k + j else 0 for i in range(L.dim)) for j in range(m)]
        )
        assert L.center() == expected
        assert L.derived().dim == 1
        assert L.center().contains_subspace(L.derived())


def test_filiform_coclass_one_and_chain():
    for n in (4, 6, 8):
        L = filiform(n, F3)
        assert L.coclass() == 1
        lower = L.lower_central_series()
        # dim L^i = n - 1 - i for 1 <= i <= n - 2: a maximal-class chain
        for i in range(1, n - 1):
            assert lower[i].dim == n - 1 - i


def test_filiform3_is_heisenberg_type():
    assert filiform(3, F3).derived().dim == 1


def test_filiform6_series_values():
    L = filiform(6, F3)
    assert L.center().basis.rows == ((0, 0, 0, 0, 0, 1),)
    assert L.second_center().dim == 2


def test_dim5_example_invariants():
    L = dim5_example(F3)
    assert L.center() == L.derived()
    assert L.center().basis.rows == ((0, 0, 0, 0, 1),)
    assert L.second_center().is_full()
    assert L.coclass() == 3


def test_dim5_example_is_heisenberg_2_1_table():
    assert dim5_example(F3) == heisenberg(2, 1, F3)


def test_direct_sum_block_structure():
    L = direct_sum(filiform(4, F3), abelian(1, F3))
    assert L.dim == 5
    assert L.nilpotency_class() == 3
    assert L.coclass() == 2


def test_direct_sum_of_lines_is_abelian():
    assert direct_sum(abelian(1, F3), abelian(1, F3)) == abelian(2, F3)


def test_direct_sum_center_additive():
    a, b = heisenberg(1, 1, F3), abelian(2, F3)
    L = direct_sum(a, b)
    assert L.dim == 5
    assert L.center().dim == a.center().dim + b.center().dim == 3


def test_direct_sum_center_is_sum_of_centers():
    a, b = filiform(4, F3), heisenberg(1, 1, F3)
    L = direct_sum(a, b)
    za = [tuple(v) + (0,) * b.dim for v in a.center().basis.rows]
    zb = [(0,) * a.dim + tuple(v) for v in b.center().basis.rows]
    assert L.center() == Subspace.from_vectors(F3, L.dim, za + zb)


def test_direct_sum_block_diagonal_table():
    # the second summand's brackets shift by the first summand's dimension
    a, b = filiform(4, F3), heisenberg(1, 1, F3)
    assert direct_sum(a, b).sc == {
        (0, 1): ((2, 1),),
        (0, 2): ((3, 1),),
        (4, 5): ((6, 1),),
    }
    assert direct_sum(a, a).sc == {
        (0, 1): ((2, 1),),
        (0, 2): ((3, 1),),
        (4, 5): ((6, 1),),
        (4, 6): ((7, 1),),
    }


def test_direct_sum_field_mismatch():
    with pytest.raises(ValueError):
        direct_sum(abelian(1, F3), abelian(1, F5))


def test_named_customs_validate_and_profile():
    for make, dim, klass, dim_z in [
        (dim5_center2, 5, 2, 2),
        (coclass2_indecomposable, 5, 3, 1),
        (dim6_center1, 6, 3, 1),
        (dim6_center2, 6, 3, 2),
        (dim6_center3, 6, 3, 3),
    ]:
        L = make(F3)
        assert L.validate() == []
        assert L.dim == dim
        assert L.nilpotency_class() == klass
        assert L.center().dim == dim_z


# -- builtins -----------------------------------------------------------------


def test_builtin_parsing():
    assert builtin("filiform:5", F3) == filiform(5, F3)
    assert builtin("heisenberg:2:1", F3) == heisenberg(2, 1, F3)
    assert builtin("abelian:4", F3) == abelian(4, F3)
    assert builtin("dim5", F3) == dim5_example(F3)


def test_builtin_unknown_rejected():
    with pytest.raises(CatalogError) as unknown:
        builtin("icosahedron:7", F3)
    with pytest.raises(CatalogError):
        builtin("filiform:not_a_number", F3)
    with pytest.raises(CatalogError, match="bad builtin 'abelian:0': dimension must be >= 1"):
        builtin("abelian:0", F3)
    # the message names every name builtin() accepts
    accepted = {
        "abelian:N": "abelian:3",
        "heisenberg:K:M": "heisenberg:1:1",
        "filiform:N": "filiform:4",
        "dim5": "dim5",
        "dim5_center2": "dim5_center2",
        "coclass2_indecomposable": "coclass2_indecomposable",
        "dim6_center1": "dim6_center1",
        "dim6_center2": "dim6_center2",
        "dim6_center3": "dim6_center3",
    }
    for shown, example in accepted.items():
        builtin(example, F3)
        assert shown in str(unknown.value)
    assert str(unknown.value).count(",") == len(accepted) - 1


# -- catalog file I/O -----------------------------------------------------------


def test_default_catalog_all_valid():
    entries = default_catalog(F3)
    assert len(entries) >= 15
    for entry in entries:
        assert entry.algebra.validate() == []
        coclass_tags = [t for t in entry.tags if t.startswith("coclass=")]
        assert coclass_tags == [f"coclass={entry.algebra.coclass()}"]


def test_catalog_round_trip(tmp_path):
    path = tmp_path / "cat.jsonl"
    entries = default_catalog(F3)
    save_catalog(entries, path)
    loaded = load_catalog(path)
    assert [e.name for e in loaded] == [e.name for e in entries]
    for a, b in zip(loaded, entries):
        assert a.algebra == b.algebra
        assert a.tags == b.tags
    # a second save is byte-identical (canonical form)
    path2 = tmp_path / "cat2.jsonl"
    save_catalog(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    assert path.read_bytes().endswith(b"\n")


def test_shipped_dim6_catalog():
    entries = load_catalog(DATA / "coclass3_dim6.json")
    assert len(entries) >= 3
    for entry in entries:
        computed = entry.algebra.coclass()
        assert f"coclass={computed}" in entry.tags
        assert computed == 3
    assert {e.algebra.center().dim for e in entries} == {1, 2, 3}


def test_shipped_full_catalog_matches_builders():
    entries = load_catalog(DATA / "catalog.jsonl")
    built = default_catalog(F3)
    assert [e.name for e in entries] == [e.name for e in built]
    assert all(a.algebra == b.algebra for a, b in zip(entries, built))


def test_empty_catalog_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_catalog(path) == []


def test_jacobi_violating_entry_rejected_with_triple(tmp_path):
    path = tmp_path / "bad.jsonl"
    entry = {
        "name": "broken",
        "field": {"prime": 3},
        "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "c": 1}]},
            {"i": 0, "j": 2, "terms": [{"k": 0, "c": 1}]},
        ],
    }
    path.write_text(json.dumps(entry) + "\n")
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert "e1, e2, e3" in str(err.value)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "syntax.jsonl"
    path.write_text('{"name": "ok", "field": {"prime": 3}, "dim": 1, "brackets": []}\n{oops\n')
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert ":2:" in str(err.value)


def test_char2_field_rejected(tmp_path):
    path = tmp_path / "char2.jsonl"
    path.write_text('{"name": "x", "field": {"prime": 2}, "dim": 2, "brackets": []}\n')
    with pytest.raises(CatalogError):
        load_catalog(path)


def test_lower_triangle_rejected(tmp_path):
    path = tmp_path / "tri.jsonl"
    path.write_text(
        '{"name": "x", "field": {"prime": 3}, "dim": 3, '
        '"brackets": [{"i": 2, "j": 1, "terms": [{"k": 0, "c": 1}]}]}\n'
    )
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert "i < j" in str(err.value)


def test_rational_scalars_round_trip(tmp_path):
    from fractions import Fraction

    L = LieAlgebra(Q, 3, {(0, 1): ((2, Fraction(1, 2)),)})
    entry = CatalogEntry("half", L, ("custom",))
    path = tmp_path / "q.jsonl"
    save_catalog([entry], path)
    assert '"1/2"' in path.read_text()
    loaded = load_catalog(path)
    assert loaded[0].algebra == L


@pytest.mark.parametrize(
    "name, tags, message",
    [
        (5, ("t",), "name must be a string, got 5"),
        (None, (), "name must be a string, got null"),
        ("x", ("t", 7), 'tags must be a tuple of strings, got ["t", 7]'),
        ("x", ["t"], 'tags must be a tuple of strings, got ["t"]'),
        ("x", "tt", 'tags must be a tuple of strings, got "tt"'),
    ],
)
def test_catalog_entry_refuses_what_no_file_holds(name, tags, message):
    # an entry built in code obeys the file's string rule, so save_catalog
    # never writes a name or tag that load_catalog would refuse or retype
    with pytest.raises(CatalogError) as err:
        CatalogEntry(name, abelian(3, F3), tags)
    assert str(err.value) == message


@st.composite
def two_step_tables(draw):
    """(field, dim, sc) of a 2-step table: brackets only among the indices
    outside a drawn set, landing in it, so Jacobi holds by construction."""
    field = draw(st.sampled_from([F3, F5, Q]))
    dim = draw(st.integers(min_value=1, max_value=6))
    central = sorted(draw(st.sets(st.integers(min_value=0, max_value=dim - 1))))
    top = [i for i in range(dim) if i not in central]
    fractions = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    if field.is_prime:
        fractions = fractions.filter(lambda c: c.denominator % field.p)
    coefficient = st.one_of(st.integers(min_value=-30, max_value=30), fractions)
    sc = {}
    for pair in combinations(top, 2) if central else ():
        terms = draw(st.dictionaries(st.sampled_from(central), coefficient, max_size=2))
        if terms:
            sc[pair] = tuple(terms.items())
    return field, dim, sc


@given(two_step_tables())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_every_accepted_algebra_saves_and_loads_back_equal(tmp_path_factory, table):
    # a table built in code meets the catalog's rules, so no accepted
    # algebra can save to a file that loads as another algebra or not at all
    field, dim, sc = table
    alg = LieAlgebra(field, dim, sc)
    path = tmp_path_factory.getbasetemp() / "roundtrip.jsonl"
    save_catalog([CatalogEntry("drawn", alg)], path)
    (loaded,) = load_catalog(path)
    assert (loaded.algebra.field, loaded.algebra.dim, loaded.algebra.sc) == (field, dim, alg.sc)
