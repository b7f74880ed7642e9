"""Every module-level import in the package, the scripts and the tests is
read, and so is every module-level private name the package defines and
every oracle in tests/oracles.py.

__init__.py is skipped by the import check, since its imports are the
package's re-exports, and so are ``from __future__`` imports.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _names_read(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(path: pathlib.Path) -> list[str]:
    """'file:line: name' for each name a module-level import binds and
    the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _names_read(tree)
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    found.append(f"{path.relative_to(ROOT)}:{stmt.lineno}: {name}")
    return found


def test_no_unused_imports():
    paths = sorted([*ROOT.glob("src/fflab/*.py"), *ROOT.glob("scripts/*.py"),
                    *ROOT.glob("tests/*.py")])
    assert paths
    found = [line for path in paths if path.name != "__init__.py"
             for line in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def unread_private_names(paths: list[pathlib.Path]) -> list[str]:
    """'file:line: name' for each private (not dunder) name that a
    module-level def, class or assignment binds and that no module of
    `paths` reads, by name or as an attribute."""
    read, defined = set(), []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            else:
                continue
            defined += [(path, stmt.lineno, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path, line, name in defined if name not in read]


def test_no_unread_private_names():
    paths = sorted(ROOT.glob("src/fflab/*.py"))
    assert paths
    found = unread_private_names(paths)
    assert not found, "private names nothing reads:\n" + "\n".join(found)


def unread_oracles(oracles: pathlib.Path, tests: list[pathlib.Path]) -> list[str]:
    """'file:line: name' for each module-level function of `oracles` that
    no module of `tests` reads by name and no other such function reads."""
    read = set().union(*(_names_read(ast.parse(path.read_text(), filename=str(path)))
                         for path in tests))
    defs = [stmt for stmt in ast.parse(oracles.read_text(), filename=str(oracles)).body
            if isinstance(stmt, ast.FunctionDef)]
    for other in defs:
        read |= _names_read(other) - {other.name}
    return [f"{oracles.relative_to(ROOT)}:{stmt.lineno}: {stmt.name}"
            for stmt in defs if stmt.name not in read]


def test_no_unread_oracles():
    tests = sorted(ROOT.glob("tests/test_*.py"))
    assert tests
    found = unread_oracles(ROOT / "tests" / "oracles.py", tests)
    assert not found, "oracles no test reads:\n" + "\n".join(found)
