import json
import shlex
from pathlib import Path

import pytest

from coclass_lab import cli
from coclass_lab.cli import main
from coclass_lab.constructions import builtin, default_catalog, save_catalog
from coclass_lab.fields import FieldSpec
from coclass_lab.harness import SUITE_BUDGET
from coclass_lab.search import enumerate_commuting

F3 = FieldSpec.prime(3)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_clean_file(tmp_path, capsys):
    path = tmp_path / "cat.jsonl"
    save_catalog(default_catalog(F3)[:3], path)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "ok" in out


def test_validate_empty_abelian_entry(tmp_path, capsys):
    # an entry with no brackets at all is a valid (abelian) algebra
    path = tmp_path / "plain.jsonl"
    path.write_text('{"name": "flat", "field": {"prime": 3}, "dim": 4, "brackets": []}\n')
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0


def test_validate_jacobi_violation_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"name": "broken", "field": {"prime": 3}, "dim": 3, "brackets": ['
        '{"i": 0, "j": 1, "terms": [{"k": 2, "c": 1}]},'
        '{"i": 0, "j": 2, "terms": [{"k": 0, "c": 1}]}]}\n'
    )
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "Jacobi" in out


def test_unknown_builtin_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["invariants", "builtin:dodecahedron:3"])
    assert err.value.code == 2


def test_budget_exceeded_exit_3(capsys):
    code, _, err = run(capsys, "--budget", "10", "search-commuting", "heisenberg:2:2", "--p", "3")
    assert code == 3
    assert "budget" in err


def test_witness_dim5_text(capsys):
    code, out, _ = run(capsys, "witness", "dim5", "--p", "3")
    assert code == 0
    assert "ok: True" in out
    assert "(0, 0, 0, 0, 1)" in out  # the x5 defect


def test_witness_heisenberg_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "witness", "heisenberg", "--k", "2", "--m", "1", "--p", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    variants = {v["variant"]: v for v in payload["variants"]}
    assert variants["corrected"]["defect_bracket"] == [0, 0, 0, 0, 1]
    assert variants["printed"]["beta2_commuting"] is False


def test_verify_builtin_filiform(capsys):
    code, out, _ = run(capsys, "verify", "builtin:filiform:5", "--p", "3")
    assert code == 0
    assert "equals_central" in out and "consistent" in out


def test_verify_catalog_file(tmp_path, capsys):
    path = tmp_path / "two.jsonl"
    entries = [e for e in default_catalog(F3) if e.name in ("filiform_4", "coclass2_indecomposable")]
    save_catalog(entries, path)
    code, out, _ = run(capsys, "--format", "json", "verify", "--catalog", str(path))
    assert code == 0
    payload = json.loads(out)
    assert [r["name"] for r in payload["reports"]] == ["filiform_4", "coclass2_indecomposable"]
    assert all(r["consistent"] for r in payload["reports"])


def test_search_commuting_counts(capsys):
    code, out, _ = run(capsys, "--format", "json", "search-commuting", "filiform:4", "--p", "3")
    assert code == 0
    assert json.loads(out)["size"] == 9


@pytest.mark.parametrize("target", ["filiform:4", "heisenberg:1:2"])
def test_search_commuting_members_are_the_member_array(capsys, target):
    rows = enumerate_commuting(builtin(target, F3)).member_array().tolist()
    code, out, _ = run(capsys, "--format", "json", "search-commuting", "--members", target, "--p", "3")
    assert code == 0
    assert json.loads(out)["members"] == rows
    code, out, _ = run(capsys, "search-commuting", "--members", target, "--p", "3")
    assert code == 0
    assert out.splitlines() == [f"commuting automorphisms: {len(rows)}", *map(str, rows)]


def test_search_commuting_abelian_short_circuit(capsys):
    code, out, _ = run(capsys, "search-commuting", "abelian:3", "--p", "3")
    assert code == 0
    assert "11232" in out


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_search_commuting_members_of_abelian_is_a_usage_error(capsys, fmt):
    # the commuting set of an abelian algebra is all of GL(n, p), never listed
    with pytest.raises(SystemExit) as err:
        main(["--format", fmt, "search-commuting", "abelian:3", "--members"])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: --members lists no set for an abelian algebra: all of GL(3,3) commutes\n"


def test_check_subgroup_abelian_short_circuit(capsys):
    # an abelian algebra is closed at once: its commuting set is all of GL(n, p)
    code, out, _ = run(capsys, "--format", "json", "check-subgroup", "abelian:2", "--p", "3")
    assert code == 0
    assert out == '{"closed":true,"short_circuit":true,"size":48,"witness":null}\n'
    code, out, _ = run(capsys, "check-subgroup", "abelian:2", "--p", "3")
    assert code == 0
    assert out == "closed: abelian algebra, commuting set = GL(2,3)\n"


def test_prime_zero_is_no_field(capsys):
    # --p 0 is refused, not read as FieldSpec(0), which is Q
    with pytest.raises(SystemExit) as err:
        main(["search-commuting", "filiform:4", "--p", "0"])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: prime field needs p >= 3\n"


def test_check_subgroup_witness_output(capsys):
    code, out, _ = run(capsys, "--format", "json", "check-subgroup", "dim5", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"] is False
    assert payload["witness"]["vector"] == [1, 0, 0, 0, 0]


def test_check_subgroup_counts_composed_pairs(capsys):
    # a closed set is decided on its 8 spanning members: 8^2 compositions, not 972^2
    code, out, _ = run(capsys, "--format", "json", "check-subgroup", "heisenberg:1:2", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"] is True and payload["size"] == 972
    assert payload["pair_count"] == 64


def test_invariants_builtin_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "invariants", "builtin:heisenberg:2:1", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    prof = payload["profiles"][0]["profile"]
    assert prof["dim"] == 5 and prof["coclass"] == 3
    assert payload["profiles"][0]["prediction"]["verdict"] == "not_subgroup"


def test_verify_requires_target(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify"])
    assert err.value.code == 2


def test_verify_rejects_algebra_with_catalog(tmp_path, capsys):
    # the algebra would be ignored without a word, so the pair is a usage error
    path = tmp_path / "one.jsonl"
    save_catalog(default_catalog(F3)[:1], path)
    with pytest.raises(SystemExit) as err:
        main(["verify", "filiform:4", "--catalog", str(path)])
    assert err.value.code == 2
    assert "not both" in capsys.readouterr().err


def test_env_budget_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COCLASS_LAB_BUDGET", "10")
    code, _, err = run(capsys, "search-commuting", "heisenberg:2:1", "--p", "3")
    assert code == 3
    assert "budget" in err


def test_flag_budget_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("COCLASS_LAB_BUDGET", "10")
    code, out, _ = run(capsys, "--budget", "200000", "--format", "json",
                       "search-commuting", "filiform:4", "--p", "3")
    assert code == 0
    assert json.loads(out)["size"] == 9


@pytest.mark.parametrize("raw", ["ten", "1e5", "0", "-5"])
def test_bad_env_budget_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("COCLASS_LAB_BUDGET", raw)
    with pytest.raises(SystemExit) as err:
        main(["search-commuting", "filiform:4", "--p", "3"])
    assert err.value.code == 2
    assert "COCLASS_LAB_BUDGET" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["0", "-1", "many"])
def test_bad_flag_budget_usage_error(capsys, raw):
    with pytest.raises(SystemExit) as err:
        main(["--budget", raw, "search-commuting", "filiform:4", "--p", "3"])
    assert err.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "invariants"])
def test_unreadable_catalog_usage_error(tmp_path, capsys, command):
    # a missing file for verify, a directory for invariants: exit 2, not a traceback
    if command == "verify":
        argv = ["verify", "--catalog", str(tmp_path / "absent.jsonl")]
    else:
        argv = ["invariants", str(tmp_path)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith("error: ") and err_text.count("\n") == 1


_ENTRY = '"name": "x", "field": {"prime": 3}, "dim": 3'
_TERM = '"brackets": [{"i": 0, "j": 1, "terms": [%s]}]'
# one malformed line per case: the shape, key or literal that is wrong
_MALFORMED = {
    "entry_not_object": "5",
    "brackets_not_list": "{" + _ENTRY + ', "brackets": {}}',
    "block_not_object": "{" + _ENTRY + ', "brackets": [[0, 1]]}',
    "term_without_k": "{" + _ENTRY + ", " + _TERM % '{"c": 1}' + "}",
    "term_without_c": "{" + _ENTRY + ", " + _TERM % '{"k": 2}' + "}",
    "k_not_integer": "{" + _ENTRY + ", " + _TERM % '{"k": "2", "c": 1}' + "}",
    "i_boolean": "{" + _ENTRY + ', "brackets": [{"i": false, "j": 1, "terms": []}]}',
    "i_float": "{" + _ENTRY + ', "brackets": [{"i": 0.0, "j": 1, "terms": []}]}',
    "k_boolean": "{" + _ENTRY + ", " + _TERM % '{"k": true, "c": 1}' + "}",
    "dim_boolean": '{"name": "x", "field": {"prime": 3}, "dim": true, "brackets": []}',
    "dim_float": '{"name": "x", "field": {"prime": 3}, "dim": 3.0, "brackets": []}',
    "prime_not_integer": '{"name": "x", "field": {"prime": "3"}, "dim": 2, "brackets": []}',
    "prime_boolean": '{"name": "x", "field": {"prime": true}, "dim": 2, "brackets": []}',
    "name_not_string": '{"name": 7, "field": {"prime": 3}, "dim": 2, "brackets": []}',
    "tags_not_list": '{"name": "x", "field": {"prime": 3}, "dim": 2, "brackets": [], "tags": "t"}',
    "tag_not_string": '{"name": "x", "field": {"prime": 3}, "dim": 2, "brackets": [], "tags": [7, null, {"a": 1}]}',
    "zero_denominator": '{"name": "x", "field": "rational", "dim": 3, '
    + _TERM % '{"k": 2, "c": "1/0"}' + "}",
    "scalar_not_number": "{" + _ENTRY + ", " + _TERM % '{"k": 2, "c": "zz"}' + "}",
    "scalar_float": "{" + _ENTRY + ", " + _TERM % '{"k": 2, "c": 1.5}' + "}",
    "scalar_boolean": "{" + _ENTRY + ", " + _TERM % '{"k": 2, "c": true}' + "}",
    "scalar_null": "{" + _ENTRY + ", " + _TERM % '{"k": 2, "c": null}' + "}",
    "dim_zero": '{"name": "x", "field": {"prime": 3}, "dim": 0, "brackets": []}',
    "duplicate_block": "{" + _ENTRY + ', "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "c": 1}]}, '
    + '{"i": 0, "j": 1, "terms": [{"k": 2, "c": 2}]}]}',
    # the first copy's bracket is zero, so the table never stores it
    "duplicate_zero_block": "{" + _ENTRY + ', "brackets": [{"i": 0, "j": 1, "terms": []}, '
    + '{"i": 0, "j": 1, "terms": [{"k": 2, "c": 2}]}]}',
    "j_out_of_range": "{" + _ENTRY + ', "brackets": [{"i": 0, "j": 3, "terms": []}]}',
    "k_out_of_range": "{" + _ENTRY + ", " + _TERM % '{"k": 3, "c": 1}' + "}",
    # 1 + 2 = 0 at F3: summed, the two terms would load as the abelian algebra
    "repeated_target": "{" + _ENTRY + ", " + _TERM % '{"k": 2, "c": 1}, {"k": 2, "c": 2}' + "}",
    "missing_brackets": "{" + _ENTRY + "}",
    "field_unknown": '{"name": "x", "field": "real", "dim": 2, "brackets": []}',
}


@pytest.mark.parametrize("line", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_catalog_entry_named_by_location(tmp_path, capsys, line):
    # validate reports the file and line and exits 1; a command that needs
    # the catalog exits 2; neither ends in a traceback
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert out.startswith(f"invalid: {path}:1: ")
    for argv in (["verify", "--catalog", str(path)], ["invariants", str(path)]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:1: ")


def test_validate_reports_unreadable_file(tmp_path, capsys):
    code, out, _ = run(capsys, "validate", str(tmp_path / "absent.jsonl"))
    assert code == 1
    assert out.startswith("invalid: ")


def test_suite_json_matches_golden_copy(capsys):
    # the benchmark's golden output, read only: the suite must reproduce it byte for byte
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "suite_f3.json"
    code, out, _ = run(capsys, "--format", "json", "--budget", "20000", "suite")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_suite_f5_json_matches_golden_copy(capsys):
    # written by `--format json suite --p 5` before the filter dropped its commuting mask
    golden = Path(__file__).resolve().parent / "golden" / "suite_f5.json"
    code, out, _ = run(capsys, "--format", "json", "suite", "--p", "5")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_suite_f7_json_matches_golden_copy(capsys):
    # written by `--format json suite --p 7` before the abelian-Z_2 rows left the filter
    golden = Path(__file__).resolve().parent / "golden" / "suite_f7.json"
    code, out, _ = run(capsys, "--format", "json", "suite", "--p", "7")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_verify_catalog_json_matches_golden_copy(capsys):
    # written by `--format json --budget 200000 verify --catalog` on the shipped
    # catalog before the invertible points were factored through their heads
    root = Path(__file__).resolve().parents[1]
    catalog = root / "src" / "coclass_lab" / "data" / "catalog.jsonl"
    code, out, _ = run(capsys, "--format", "json", "--budget", "200000", "verify", "--catalog", str(catalog))
    assert code == 0
    assert out == (root / "tests" / "golden" / "verify_catalog.json").read_text(encoding="utf-8")


def _golden_runs(path: Path) -> list:
    """(argv, stdout) per block: a "$ coclass-lab ARGS" line, then that run's stdout."""
    runs = []
    for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("$ coclass-lab "):
            runs.append((shlex.split(line[len("$ coclass-lab ") :]), ""))
        else:
            argv, out = runs[-1]
            runs[-1] = (argv, out + line)
    return runs


def test_set_commands_match_golden_copy(capsys):
    # check-subgroup and search-commuting in both formats: abelian, closed and
    # non-closed rows, members, F3 and F5; CI replays them with the console script
    runs = _golden_runs(Path(__file__).resolve().parent / "golden" / "set_commands.txt")
    assert len(runs) == 16
    for argv, expected in runs:
        assert run(capsys, *argv) == (0, expected, ""), argv


def test_invariants_commands_match_golden_copy(monkeypatch, capsys):
    # invariants on both shipped data files and the two witness families, in
    # both formats; written before the series bracketed with generators only,
    # and CI replays them with the console script
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)  # the data files are named relative to the repository
    runs = _golden_runs(root / "tests" / "golden" / "invariants_commands.txt")
    assert len(runs) == 8
    for argv, expected in runs:
        assert run(capsys, *argv) == (0, expected, ""), argv


@pytest.mark.parametrize("p", [3, 5])
def test_set_commands_agree_with_verify(monkeypatch, capsys, p):
    # every default-catalog row and abelian:2, each named on the command line:
    # check-subgroup and search-commuting report verify's enumeration, and are
    # refused for budget exactly where verify leaves the row unverified; a row
    # is named by its catalog name, since the direct sums have no builtin name
    field = FieldSpec.prime(p)
    rows = {e.name: e.algebra for e in default_catalog(field)}
    monkeypatch.setattr(cli, "builtin", lambda name, f: rows[name] if name in rows else builtin(name, f))
    budget = ["--format", "json", "--budget", str(SUITE_BUDGET)]
    verified = 0
    for name in [*rows, "abelian:2"]:
        code, out, _ = run(capsys, *budget, "verify", name, "--p", str(p))
        assert code == 0, name
        enumeration = json.loads(out)["reports"][0]["enumeration"]
        check = run(capsys, *budget, "check-subgroup", name, "--p", str(p))
        search = run(capsys, *budget, "search-commuting", name, "--p", str(p))
        if enumeration is None:
            assert check[0] == search[0] == 3, name
            continue
        verified += 1
        assert check[0] == search[0] == 0, name
        closure, sizes = json.loads(check[1]), json.loads(search[1])
        witness = enumeration["witness"]
        if witness is not None:
            witness = {k: v for k, v in witness.items() if k not in ("f_index", "g_index")}
        assert (closure["closed"], closure["short_circuit"], closure["size"], closure["witness"]) == (
            enumeration["closed"], enumeration["short_circuit"], enumeration["commuting_size"], witness
        ), name
        assert (sizes["size"], sizes["short_circuit"]) == (enumeration["commuting_size"], enumeration["short_circuit"]), name
    assert verified >= {3: 17, 5: 12}[p]  # the rows decided within SUITE_BUDGET today


def _filiform4_file(tmp_path):
    path = tmp_path / "filiform4.jsonl"
    save_catalog([e for e in default_catalog(F3) if e.name == "filiform_4"], path)
    return path


@pytest.mark.parametrize("command", ["verify", "invariants"])
@pytest.mark.parametrize("p", ["3", "5"])
def test_p_with_catalog_file_usage_error(tmp_path, capsys, command, p):
    # a file's entries carry their own field, so an explicit --p would be ignored
    path = str(_filiform4_file(tmp_path))
    argv = ["verify", "--catalog", path] if command == "verify" else ["invariants", path]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--p", p])
    assert err.value.code == 2
    assert "--p applies to builtin names only" in capsys.readouterr().err


def _member_counts(out: str) -> list:
    return [r["enumeration"]["commuting_size"] for r in json.loads(out)["reports"]]


def test_catalog_file_without_p_keeps_its_field(tmp_path, capsys):
    path = str(_filiform4_file(tmp_path))
    code, out, _ = run(capsys, "--format", "json", "verify", "--catalog", path)
    assert code == 0
    assert _member_counts(out) == [9]
    _, builtin_out, _ = run(capsys, "--format", "json", "verify", "filiform:4", "--p", "5")
    assert _member_counts(builtin_out) == [25]
    code, out, _ = run(capsys, "--format", "json", "invariants", path)
    assert code == 0
    _, builtin_out, _ = run(capsys, "--format", "json", "invariants", "builtin:filiform:4", "--p", "3")
    profiles, builtin_profiles = json.loads(out)["profiles"], json.loads(builtin_out)["profiles"]
    assert [p["name"] for p in profiles] == ["filiform_4"]
    assert profiles[0]["profile"] == builtin_profiles[0]["profile"]


@pytest.mark.parametrize(
    "argv",
    [["verify", "filiform:4"], ["invariants", "builtin:heisenberg:2:1"]],
    ids=["verify", "invariants"],
)
def test_builtin_without_p_uses_f3(capsys, argv):
    default = run(capsys, "--format", "json", *argv)
    assert default == run(capsys, "--format", "json", *argv, "--p", "3")
    assert default[0] == 0
