"""Every top-level function, class and assigned name of the package has a
caller inside it, and every name a module imports is named in that module.

A definition counts as used when some other statement of ``src/rosenau``
names it: as a Name, as an Attribute, or in an import.  Its own body,
``__all__`` (string entries) and ``__init__.py`` (re-exports) do not count,
so a public function or constant that only the tests call fails here.
Dunder assignments such as ``__all__`` are not definitions.  The check is by
name, so a definition shadowed by a same-named parameter or attribute
elsewhere in the package escapes it.  An import counts as used when its
module names it as a Name (an attribute access starts with one); the
re-exports of ``__init__.py`` and ``from __future__`` imports are exempt.
"""

import ast
import inspect
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


def _defined(stmt) -> list:
    """Names a top-level statement defines: a def, a class, or the plain
    names an assignment binds (tuple targets unpacked)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    names = []
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and not node.id.startswith("__"):
                names.append(node.id)
    return names


def unreferenced_definitions(package: Path = PACKAGE) -> list:
    """(module, name) of every top-level definition no other statement names."""
    definitions = []
    used = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = _names(stmt)
            for name in _defined(stmt):
                definitions.append((path.stem, name))
                names.discard(name)  # recursion or its own target is no caller
            used |= names
    return [(module, name) for module, name in definitions if name not in used]


# Definitions that only the benchmark reads: perfbench/tracer.py takes
# quadrature.GL_ORDER when it installs, until it counts Kronrod nodes itself
# (ROADMAP item 9).  Each must still be named there.
READ_BY_PERFBENCH = {("quadrature", "GL_ORDER")}


def test_every_definition_has_a_caller_in_the_package():
    tracer = (PACKAGE.parent.parent / "perfbench" / "tracer.py").read_text()
    assert all(f".{name}" in tracer for _, name in READ_BY_PERFBENCH)
    assert [d for d in unreferenced_definitions() if d not in READ_BY_PERFBENCH] == []


def unused_imports(package: Path = PACKAGE) -> list:
    """(module, name) of every name a module imports and never names."""
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        imported, named = set(), set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        unused += [(path.stem, name) for name in sorted(imported - named)]
    return unused


def test_every_import_is_named_in_its_module():
    assert unused_imports() == []


def test_one_start_rule_for_radial_integrals():
    # every smooth radial integral starts from quadrature's one table, so
    # no other module names the table's builder
    named = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "quadrature" and "_radial_edges" in _names(ast.parse(path.read_text()))
    ]
    assert named == []


def test_one_description_per_oscillatory_integrand():
    # a caller describes an oscillatory integrand once, by its terms(r, f):
    # the driver builds the slow integrand, the mean and the Levin
    # coefficient from them
    from rosenau.norms import oscillatory_integrals

    parameters = inspect.signature(oscillatory_integrals).parameters
    assert list(parameters) == ["params", "t", "cuts", "terms", "kinks", "rel_tol", "abs_tol"]
