"""Every module-level import in the package and the scripts is read.

__init__.py is skipped, since its imports are the package's re-exports,
and so are ``from __future__`` imports.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(path: pathlib.Path) -> list[str]:
    """'file:line: name' for each name a module-level import binds and
    the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
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
    paths = sorted([*ROOT.glob("src/fflab/*.py"), *ROOT.glob("scripts/*.py")])
    assert paths
    found = [line for path in paths if path.name != "__init__.py"
             for line in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)
