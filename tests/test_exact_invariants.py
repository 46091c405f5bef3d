"""Exact invariants over Q and at a large prime, pinned by a golden file.

The other golden files are all over small prime fields.  This one,
``golden/exact_invariants.json``, holds for each algebra and field the
``profile().as_dict()``, both central series and the center basis (each
subspace as its reduced row-echelon basis, entries in catalog-file form),
and the ``as_dict()`` of two Heisenberg witnesses:

* the 19 catalog rows over Q and F65521;
* filiform(16), heisenberg(6, 2) and filiform(14) + abelian(2) over Q, F3
  and F65521;
* ``heisenberg_witness(2, 1)`` and ``(3, 2)`` over Q and F65521.

A change to the exact core must leave every record as it is.  Regenerate
the file (only for a change meant to alter an invariant) with
``PYTHONPATH=src python tests/test_exact_invariants.py``.
"""

import json
import sys
from pathlib import Path

from coclass_lab.constructions import abelian, default_catalog, direct_sum, filiform, heisenberg
from coclass_lab.fields import FieldSpec
from coclass_lab.harness import heisenberg_witness, profile

GOLDEN = Path(__file__).resolve().parent / "golden" / "exact_invariants.json"
Q = FieldSpec.rational()
F3 = FieldSpec.prime(3)
F65521 = FieldSpec.prime(65521)


def _larger(field):
    return [
        ("filiform_16", filiform(16, field)),
        ("heisenberg_6_2", heisenberg(6, 2, field)),
        ("filiform_14_plus_abelian_2", direct_sum(filiform(14, field), abelian(2, field))),
    ]


def algebras():
    """(field, name, algebra) for every algebra the golden file covers."""
    for field in (Q, F65521):
        for entry in default_catalog(field):
            yield field, entry.name, entry.algebra
    for field in (Q, F3, F65521):
        for name, algebra in _larger(field):
            yield field, name, algebra


def _subspace(field, s) -> list:
    return [[field.unparse(x) for x in row] for row in s.basis.rows]


def invariants(field, name, algebra) -> dict:
    return {
        "field": str(field),
        "name": name,
        "profile": profile(algebra).as_dict(),
        "lower": [_subspace(field, s) for s in algebra.lower_central_series()],
        "upper": [_subspace(field, s) for s in algebra.upper_central_series()],
        "center": _subspace(field, algebra.center()),
    }


def witnesses() -> list:
    return [
        {"field": str(field), "k": k, "m": m, "report": heisenberg_witness(k, m, field).as_dict()}
        for field in (Q, F65521)
        for k, m in ((2, 1), (3, 2))
    ]


def records() -> dict:
    return {
        "algebras": [invariants(*case) for case in algebras()],
        "witnesses": witnesses(),
    }


def test_exact_invariants_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden["algebras"]) == 2 * 19 + 3 * 3
    assert len(golden["witnesses"]) == 4
    actual = records()
    for key in ("algebras", "witnesses"):
        assert len(actual[key]) == len(golden[key])
        for want, got in zip(golden[key], actual[key]):
            assert got == want, (want["field"], want.get("name", (want.get("k"), want.get("m"))))


if __name__ == "__main__":
    lines = ["{"]
    for key, items in records().items():
        body = ",\n".join("  " + json.dumps(item, separators=(",", ":")) for item in items)
        lines.append(f' "{key}": [\n{body}\n ]' + ("," if key == "algebras" else ""))
    lines.append("}")
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
