"""Guard against unused surface: every name the package defines has a reader.

A function, class or method defined in ``src/coclass_lab/`` (dunders
aside) must be referenced somewhere in ``src/`` outside the imports of
``__init__.py``, referenced in ``perfbench/``, or exported through
``coclass_lab.__all__``.  A reference is a name or attribute read in the
code; a definition, an import or a mention in a docstring is none, and
neither is an attribute of numpy (``np.zeros`` is not a read of a
package method named ``zeros``).  Tests do not count: a helper only
tests call belongs with the tests.
"""

import ast
from pathlib import Path

import coclass_lab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coclass_lab"


def _trees(directory: Path) -> dict:
    return {path: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}


def _defined(tree: ast.Module) -> set:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = {node.name for node in ast.walk(tree) if isinstance(node, kinds)}
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def _on_numpy(node: ast.Attribute) -> bool:
    """Whether the attribute is read from numpy itself, as in ``np.zeros``."""
    return isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")


def _referenced(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not _on_numpy(node):
            names.add(node.attr)
    return names


def test_every_package_definition_has_a_reader():
    package = _trees(PACKAGE)
    defined = set().union(*map(_defined, package.values()))
    used = set(coclass_lab.__all__)
    for tree in [*package.values(), *_trees(ROOT / "perfbench").values()]:
        used |= _referenced(tree)
    assert sorted(defined - used) == []
