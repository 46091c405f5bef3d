"""Built-in algebra families, the default catalog, and catalog file I/O.

The catalog file format is line-oriented JSON, one entry per line::

    {"name": ..., "field": {"prime": 3} | "rational", "dim": n,
     "brackets": [{"i": 0, "j": 1, "terms": [{"k": 4, "c": 1}]}, ...],
     "tags": [...]}

Indices are 0-based and only i < j entries are accepted, each (i, j) at
most once and each k once within it, so antisymmetry is a property of the
file format itself.  Scalars are integers (reduced mod p) or "num/den"
strings over the rationals.  A malformed entry raises CatalogError, which
load_catalog prefixes with the file and line.  The parser checks only JSON
objects, lists and keys; the string rule for names and tags is CatalogEntry's,
and the number rules are FieldSpec's (prime, scalar) and LieAlgebra's (dim,
indices, table), for entries and tables built in code too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable

from .algebra import LieAlgebra
from .fields import FieldError, FieldSpec


class CatalogError(ValueError):
    """Unparseable or invalid catalog content: a file line or an entry built in code."""


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def abelian(n: int, field: FieldSpec) -> LieAlgebra:
    """All brackets zero; class 1, coclass n - 1."""
    return LieAlgebra(field, n, {})


def heisenberg(k: int, m: int, field: FieldSpec) -> LieAlgebra:
    """Basis u_1..u_2k, z_1..z_m with [u_{2i-1}, u_{2i}] = z_1, z_j central."""
    if k < 1 or m < 1:
        raise ValueError("heisenberg(k, m) needs k >= 1 and m >= 1")
    dim = 2 * k + m
    sc = {(2 * i, 2 * i + 1): ((2 * k, 1),) for i in range(k)}
    return LieAlgebra(field, dim, sc)


def filiform(n: int, field: FieldSpec) -> LieAlgebra:
    """Basis u, v, v_1..v_{n-2} with [u, v] = v_1 and [u, v_i] = v_{i+1}."""
    if n < 3:
        raise ValueError("filiform(n) needs n >= 3")
    sc = {(0, 1): ((2, 1),)}
    for i in range(2, n - 1):
        sc[(0, i)] = ((i + 1, 1),)
    return LieAlgebra(field, n, sc)


def dim5_example(field: FieldSpec) -> LieAlgebra:
    """Five-dimensional algebra with [x1, x2] = x5 = [x3, x4], all else zero."""
    sc = {(0, 1): ((4, 1),), (2, 3): ((4, 1),)}
    return LieAlgebra(field, 5, sc)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Block-diagonal structure constants on the concatenated bases."""
    if a.field != b.field:
        raise ValueError("direct_sum needs matching fields")
    off = a.dim
    sc = dict(a.sc)
    for (i, j), terms in b.sc.items():
        sc[(i + off, j + off)] = tuple((k + off, c) for k, c in terms)
    return LieAlgebra(a.field, a.dim + b.dim, sc)


def from_bracket_table(field: FieldSpec, dim: int, table) -> LieAlgebra:
    """Algebra from [(i, j, [(k, c), ...]), ...] rows (0-based, i < j, each (i, j) once)."""
    return LieAlgebra(field, dim, [((i, j), terms) for i, j, terms in table])


def dim5_center2(field: FieldSpec) -> LieAlgebra:
    """Class-2 algebra of dimension 5 with a 2-dimensional center.

    [e1, e2] = e4 and [e1, e3] = e5; the center is span{e4, e5} = L'.
    """
    return from_bracket_table(field, 5, [(0, 1, [(3, 1)]), (0, 2, [(4, 1)])])


def coclass2_indecomposable(field: FieldSpec) -> LieAlgebra:
    """Indecomposable dimension-5 algebra of class 3 (coclass 2).

    [e1, e2] = e3, [e1, e3] = e5, [e2, e4] = e5.
    """
    return from_bracket_table(
        field, 5, [(0, 1, [(2, 1)]), (0, 2, [(4, 1)]), (1, 3, [(4, 1)])]
    )


def dim6_center1(field: FieldSpec) -> LieAlgebra:
    """Dimension-6, class-3 algebra with 1-dimensional center.

    [x1, x2] = x3, [x1, x3] = x6, [x4, x5] = x6.  Its second center
    span{x3, x4, x5, x6} is NOT abelian, and dim L' = dim - 4.
    """
    return from_bracket_table(
        field, 6, [(0, 1, [(2, 1)]), (0, 2, [(5, 1)]), (3, 4, [(5, 1)])]
    )


def dim6_center2(field: FieldSpec) -> LieAlgebra:
    """Dimension-6, class-3 algebra with 2-dimensional center (abelian Z_2)."""
    return direct_sum(coclass2_indecomposable(field), abelian(1, field))


def dim6_center3(field: FieldSpec) -> LieAlgebra:
    """Dimension-6, class-3 algebra with 3-dimensional center (abelian Z_2).

    Free-nilpotent-of-class-3 flavor on two generators plus a central line:
    [e1, e2] = e3, [e1, e3] = e4, [e2, e3] = e5, e6 central.
    """
    return from_bracket_table(
        field, 6, [(0, 1, [(2, 1)]), (0, 2, [(3, 1)]), (1, 2, [(4, 1)])]
    )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: LieAlgebra
    tags: tuple = dataclass_field(default_factory=tuple)

    def __post_init__(self):
        """The name and every tag are strings, built in code or read from a file."""
        if not isinstance(self.name, str):
            raise CatalogError(f"name must be a string, got {json.dumps(self.name, default=repr)}")
        if not isinstance(self.tags, tuple) or not all(isinstance(t, str) for t in self.tags):
            raise CatalogError(f"tags must be a tuple of strings, got {json.dumps(self.tags, default=repr)}")


def _entry(name: str, algebra: LieAlgebra, *extra_tags: str) -> CatalogEntry:
    tags = [f"dim={algebra.dim}"]
    if algebra.is_nilpotent:
        tags.append(f"class={algebra.nilpotency_class()}")
        tags.append(f"coclass={algebra.coclass()}")
    tags.extend(extra_tags)
    return CatalogEntry(name, algebra, tuple(tags))


def default_catalog(field: FieldSpec) -> list:
    """The shipped catalog: every theorem's hypothesis space at desk scale."""
    entries = []
    for n in range(4, 9):
        entries.append(_entry(f"filiform_{n}", filiform(n, field), "family=filiform"))
    for k in (1, 2, 3):
        for m in (1, 2):
            entries.append(
                _entry(f"heisenberg_{k}_{m}", heisenberg(k, m, field), "family=heisenberg")
            )
    entries.append(_entry("dim5_example", dim5_example(field)))
    entries.append(
        _entry("filiform_4_plus_abelian_1", direct_sum(filiform(4, field), abelian(1, field)))
    )
    entries.append(
        _entry("filiform_5_plus_abelian_1", direct_sum(filiform(5, field), abelian(1, field)))
    )
    entries.append(_entry("coclass2_indecomposable", coclass2_indecomposable(field)))
    entries.append(_entry("dim5_center2", dim5_center2(field)))
    entries.append(_entry("dim6_center1", dim6_center1(field)))
    entries.append(_entry("dim6_center2", dim6_center2(field)))
    entries.append(_entry("dim6_center3", dim6_center3(field)))
    return entries


# builtin name -> (its integer parameters, constructor taking them and the field)
_BUILTINS = {
    "abelian": (("N",), abelian),
    "heisenberg": (("K", "M"), heisenberg),
    "filiform": (("N",), filiform),
    "dim5": ((), dim5_example),
    "dim5_center2": ((), dim5_center2),
    "coclass2_indecomposable": ((), coclass2_indecomposable),
    "dim6_center1": ((), dim6_center1),
    "dim6_center2": ((), dim6_center2),
    "dim6_center3": ((), dim6_center3),
}
_BUILTIN_HELP = ", ".join(":".join((kind,) + params) for kind, (params, _) in _BUILTINS.items())


def builtin(name: str, field: FieldSpec) -> LieAlgebra:
    """Resolve a builtin algebra name like "filiform:5" or "heisenberg:2:1"."""
    kind, *args = name.split(":")
    if kind in _BUILTINS and len(args) == len(_BUILTINS[kind][0]):
        try:
            return _BUILTINS[kind][1](*map(int, args), field)
        except ValueError as exc:
            raise CatalogError(f"bad builtin {name!r}: {exc}") from exc
    raise CatalogError(f"unknown builtin {name!r} (expected {_BUILTIN_HELP})")


def _field_from_json(obj) -> FieldSpec:
    if obj == "rational":
        return FieldSpec.rational()
    if isinstance(obj, dict) and set(obj) == {"prime"}:
        try:
            return FieldSpec.prime(obj["prime"])
        except FieldError as exc:
            raise CatalogError(str(exc)) from exc
    raise CatalogError(f"bad field spec {obj!r}")


def _field_to_json(field: FieldSpec):
    return {"prime": field.p} if field.is_prime else "rational"


def _checked(value, kind: type, what: str):
    """value when it is the JSON object or list kind names, else a CatalogError."""
    if not isinstance(value, kind):
        names = {dict: "an object", list: "a list"}
        raise CatalogError(f"{what} must be {names[kind]}, got {json.dumps(value)}")
    return value


def _scalar(field: FieldSpec, value):
    """A scalar literal parsed into the field: an integer or a "num/den" string."""
    try:
        return field.parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise CatalogError(f"bad scalar literal {json.dumps(value)}: {exc}") from exc


def entry_from_json(obj) -> CatalogEntry:
    _checked(obj, dict, "entry")
    for key in ("name", "field", "dim", "brackets"):
        if key not in obj:
            raise CatalogError(f"missing key {key!r}")
    field = _field_from_json(obj["field"])
    sc = []
    for block in _checked(obj["brackets"], list, "brackets"):
        _checked(block, dict, "bracket block")
        terms = []
        for term in _checked(block.get("terms", []), list, "terms"):
            _checked(term, dict, "term")
            if "k" not in term or "c" not in term:
                raise CatalogError(f"term {json.dumps(term)} needs keys 'k' and 'c'")
            terms.append((term["k"], _scalar(field, term["c"])))
        sc.append(((block.get("i"), block.get("j")), terms))
    try:
        algebra = LieAlgebra(field, obj["dim"], sc)
    except ValueError as exc:
        raise CatalogError(str(exc)) from exc
    tags = tuple(_checked(obj.get("tags", []), list, "tags"))
    return CatalogEntry(obj["name"], algebra, tags)


def entry_to_json(entry: CatalogEntry) -> dict:
    alg = entry.algebra
    brackets = [
        {"i": i, "j": j, "terms": [{"k": k, "c": alg.field.unparse(c)} for k, c in terms]}
        for (i, j), terms in sorted(alg.sc.items())
    ]
    return {
        "name": entry.name,
        "field": _field_to_json(alg.field),
        "dim": alg.dim,
        "brackets": brackets,
        "tags": list(entry.tags),
    }


def load_catalog(path) -> list:
    """Parse and validate a JSONL catalog; any Jacobi violation is fatal."""
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CatalogError(f"{path}:{lineno}: not valid JSON ({exc})") from exc
            try:
                entry = entry_from_json(obj)
            except CatalogError as exc:
                raise CatalogError(f"{path}:{lineno}: {exc}") from exc
            violations = entry.algebra.validate()
            if violations:
                detail = "; ".join(str(v) for v in violations)
                raise CatalogError(f"{path}:{lineno}: entry {entry.name!r} invalid: {detail}")
            entries.append(entry)
    return entries


def save_catalog(entries: Iterable[CatalogEntry], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for entry in entries:
            handle.write(json.dumps(entry_to_json(entry), sort_keys=True))
            handle.write("\n")
