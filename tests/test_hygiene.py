"""Source hygiene: every name a module imports is used by that module,
every import sits at module level, and every defaulted parameter of a
module-level function is passed by some call.

Runs on the standard library alone (``ast``).  ``__init__.py`` is skipped by
the unused-import check: its imports are the package's public re-exports.
A default that no call in ``src/``, ``bench/`` or ``tests/`` overrides has
one value in use and belongs in a constant.  A public re-export that only
tests reach is a name the system does not use.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fhclab"
CALLERS = ("src", "bench", "tests")


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


def never_passed_defaults(src: pathlib.Path, callers):
    """``module:line: f(param)`` for each defaulted parameter no call passes.

    A call counts for every function of its name (``f(...)`` or ``x.f(...)``);
    a ``*args`` or ``**kwargs`` at the call counts as passing everything.
    """
    defaulted = {}  # name -> [(where, param, positional index or None)]
    for path in sorted(src.glob("*.py")):
        for func in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = func.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            params += [(None, arg.arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None]
            defaulted.setdefault(func.name, []).extend(
                (f"{path.name}:{func.lineno}", name, i) for i, name in params)
    passed = set()  # (function name, positional index or keyword)
    for path in sorted(p for d in callers for p in d.rglob("*.py")):
        for call in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name not in defaulted:
                continue
            if any(isinstance(x, ast.Starred) for x in call.args) or any(
                    k.arg is None for k in call.keywords):
                passed.add((name, "*"))
            passed.update((name, i) for i in range(len(call.args)))
            passed.update((name, k.arg) for k in call.keywords)
    return [f"{where}: {fname}({param})"
            for fname, params in sorted(defaulted.items())
            for where, param, i in params
            if not {(fname, "*"), (fname, param), (fname, i)} & passed]


def unused_exports(src: pathlib.Path, users, keep):
    """Names ``__init__.py`` re-exports that no file of ``users`` references.

    A reference is a bare name or ``<module>.<name>`` with ``<module>`` one of
    the package's modules (or the package itself); imports do not count.
    """
    init = src / "__init__.py"
    exported = [alias.asname or alias.name
                for node in ast.parse(init.read_text(), filename=str(init)).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    modules = {p.stem for p in src.glob("*.py")} | {src.name}
    used = set()
    for path in sorted(p for d in users for p in d.rglob("*.py") if p != init):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                used.add(node.attr)
    return [name for name in exported if name not in used | keep]


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


def test_every_default_is_passed_somewhere():
    hits = never_passed_defaults(SRC, [ROOT / d for d in CALLERS])
    assert not hits, "defaults no call overrides (make them constants):\n" + "\n".join(hits)


def test_every_export_is_used_outside_tests():
    # exported for the paper's sake although only tests call them
    keep = {
        "right_inverse_identity_check",  # acceptance 9: A B = I on the targets
        "transform_inverse",  # acceptance 9: the criterion with A and B swapped
        "DiagonalDecayMultiplier",  # the C-regularized setting with an injective C
        "imc_norm",  # its image norm inf{||y|| : Cy = x}
    }
    hits = unused_exports(SRC, [SRC, ROOT / "bench"], keep)
    assert not hits, "public names only tests use:\n" + "\n".join(hits)
