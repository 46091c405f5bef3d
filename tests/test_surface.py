"""Guard against unused surface: every name the package defines has a reader.

A function, class or method defined in ``src/coclass_lab/`` (dunders
aside) must be referenced somewhere in ``src/`` outside the imports of
``__init__.py``, referenced in ``perfbench/``, or exported through
``coclass_lab.__all__``.  A reference is a name or attribute read in the
code; a definition, an import or a mention in a docstring is none, and
neither is an attribute of numpy (``np.zeros`` is not a read of a
package method named ``zeros``).  A method is read only as an attribute
(``x.key``): a local variable named ``key`` is no read of it.  Tests do
not count: a helper only tests call belongs with the tests.
"""

import ast
from pathlib import Path

import coclass_lab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coclass_lab"


def _trees(directory: Path) -> dict:
    return {path: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}


def _defined(tree: ast.Module) -> set:
    """(name, is a method) for each function and class, dunders aside."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    defined = {(node.name, id(node) in methods) for node in ast.walk(tree) if isinstance(node, kinds)}
    return {(name, method) for name, method in defined if not (name.startswith("__") and name.endswith("__"))}


def _on_numpy(node: ast.Attribute) -> bool:
    """Whether the attribute is read from numpy itself, as in ``np.zeros``."""
    return isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")


def _referenced(tree: ast.Module) -> set:
    """(name, read as an attribute) for each name or attribute read."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add((node.id, False))
        elif isinstance(node, ast.Attribute) and not _on_numpy(node):
            names.add((node.attr, True))
    return names


def test_every_package_definition_has_a_reader():
    package = _trees(PACKAGE)
    defined = set().union(*map(_defined, package.values()))
    used = {(name, True) for name in coclass_lab.__all__}  # coclass_lab.name
    for tree in [*package.values(), *_trees(ROOT / "perfbench").values()]:
        used |= _referenced(tree)
    # a function or class is read by name or attribute, a method by attribute only
    unread = {name for name, method in defined if (name, True) not in used and (method or (name, False) not in used)}
    assert sorted(unread) == []
