"""Every top-level function and class of the package has a caller inside it.

A definition counts as used when some other statement of ``src/rosenau``
names it: as a Name, as an Attribute, or in an import.  Its own body,
``__all__`` (string entries) and ``__init__.py`` (re-exports) do not count,
so a public function that only the tests call fails here.  The check is by
name, so a definition shadowed by a same-named parameter or attribute
elsewhere in the package escapes it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rosenau"


def _names(node) -> set:
    """Names a node refers to, as Name, Attribute or import."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def unreferenced_definitions(package: Path = PACKAGE) -> list:
    """(module, name) of every top-level def or class no other statement names."""
    definitions = []
    used = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = _names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, stmt.name))
                names.discard(stmt.name)  # recursion is no caller
            used |= names
    return [(module, name) for module, name in definitions if name not in used]


def test_every_definition_has_a_caller_in_the_package():
    assert unreferenced_definitions() == []
