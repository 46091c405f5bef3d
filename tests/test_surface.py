"""Guard against unused surface: every name the package defines has a reader.

A function, class or method defined in ``src/coclass_lab/`` (dunders
aside) must be referenced somewhere in ``src/`` outside the imports of
``__init__.py``, referenced in ``perfbench/``, or exported through
``coclass_lab.__all__``.  A reference is a name or attribute read in the
code; a definition, an import or a mention in a docstring is none, and
neither is an attribute of numpy (``np.zeros`` is not a read of a
package method named ``zeros``).  A method is read only as an attribute
(``x.key``): a local variable named ``key`` is no read of it.  A read
through a package class name (``Matrix.identity``,
``linalg.Matrix.identity``) counts for that class's method only.  Tests do
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
    """(name, its class or None) for each function and class, dunders aside."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    defined = {(node.name, owner.get(id(node))) for node in ast.walk(tree) if isinstance(node, kinds)}
    return {(name, cls) for name, cls in defined if not (name.startswith("__") and name.endswith("__"))}


def _on_numpy(node: ast.Attribute) -> bool:
    """Whether the attribute is read from numpy itself, as in ``np.zeros``."""
    return isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")


def _through_class(node: ast.Attribute, classes: set):
    """The package class an attribute is read through (``Matrix.x``, ``linalg.Matrix.x``), else None."""
    value = node.value
    name = value.id if isinstance(value, ast.Name) else getattr(value, "attr", None)
    return name if name in classes else None


def _referenced(tree: ast.Module, classes: set) -> set:
    """(name, how) for each name or attribute read.

    ``how`` is False for a name, the class for an attribute read through a
    package class name, and True for any other attribute.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add((node.id, False))
        elif isinstance(node, ast.Attribute) and not _on_numpy(node):
            names.add((node.attr, _through_class(node, classes) or True))
    return names


def test_every_package_definition_has_a_reader():
    package = _trees(PACKAGE)
    defined = set().union(*map(_defined, package.values()))
    classes = {node.name for tree in package.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    used = {(name, True) for name in coclass_lab.__all__}  # coclass_lab.name
    for tree in [*package.values(), *_trees(ROOT / "perfbench").values()]:
        used |= _referenced(tree, classes)
    # a function or class is read by name or attribute, a method by an attribute
    # that is not read through another class's name
    unread = {(cls, name) for name, cls in defined if (name, True) not in used and (name, cls or False) not in used}
    assert sorted(".".join(filter(None, pair)) for pair in unread) == []
