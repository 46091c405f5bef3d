"""Every catalog row's commuting and central sets at F3, F5 and F7, by fingerprint.

``golden/catalog_sets.json`` holds, for each of the 19 catalog rows at
each prime and for each kind, the size and SHA-256 of the member array
(little-endian int64 bytes, canonical order) that ``enumerate_commuting``
or ``enumerate_central`` returns at ``SUITE_BUDGET``, or the ``projected``
count of its refusal: 114 cases.  A change of enumerator must leave every
one of them as it is.  Regenerate it (only for a change meant to alter a
set) with ``PYTHONPATH=src python tests/test_catalog_fingerprints.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "catalog_sets.json"
PRIMES = (3, 5, 7)


def fingerprint(result) -> dict:
    """{"size", "sha256"} of a set, or {"projected"} of a BudgetExceededError."""
    if isinstance(result, Exception):
        return {"projected": result.projected}
    data = result.member_array().astype("<i8", copy=False).tobytes()
    return {"size": result.size, "sha256": hashlib.sha256(data).hexdigest()}


def fingerprints(runs) -> list:
    """One record per (p, row), from catalog_runs(p) results."""
    return [
        {"p": p, "name": run.name, "commuting": fingerprint(run.commuting), "central": fingerprint(run.central)}
        for p in PRIMES
        for run in runs(p)
    ]


def test_catalog_sets_match_golden_fingerprints(catalog_runs):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) * 2 == 114
    actual = fingerprints(catalog_runs)
    for want, got in zip(golden, actual):
        assert got == want, (want["p"], want["name"])
    assert len(actual) == len(golden)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import enumerate_catalog

    records = fingerprints(enumerate_catalog)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n", encoding="utf-8")
