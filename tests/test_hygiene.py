"""Source hygiene: every name a module imports is used by that module, and
every import sits at module level.

Runs on the standard library alone (``ast``).  ``__init__.py`` is skipped by
the unused-import check: its imports are the package's public re-exports.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fhclab"


def unused_imports(path: pathlib.Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def function_local_imports(path: pathlib.Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}: in {func.name}"
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    hits = [hit for path in modules for hit in unused_imports(path)]
    assert not hits, "unused imports:\n" + "\n".join(hits)


def test_no_function_local_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    hits = sorted({hit for path in modules for hit in function_local_imports(path)})
    assert not hits, "imports inside functions:\n" + "\n".join(hits)
