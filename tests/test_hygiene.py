"""Source hygiene: every name a module imports is used by that module and
not rebound at module level, every import sits at module level, and every
defaulted parameter of a module-level function is passed by some call,
every defaulted field of a record class is left out by some constructor call, no method outside a
constructor changes its object's attributes, no module imports
numpy or dataclasses, no module keeps a memo (``functools.cache``,
``functools.lru_cache``) or has a ``global`` statement, and each vector
type has one weighted sum, with no pairwise fold beside it.

Runs on the standard library alone (``ast``).  ``__init__.py`` is skipped by
the unused-import check: its imports are the package's public re-exports.
A default that no call in ``src/`` or ``bench/`` overrides has one value in
use and belongs in a constant (a value that only tests pass is a test-only
knob).  A record default that every constructor call in ``src/`` or
``bench/`` overrides states a value a second time, beside the value its
callers pass, and can drift away from theirs.  A public re-export, a
method or a module-level function (private ones too) that only tests reach
is a name the system does not use.
"""

import ast
import importlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fhclab"
CALLERS = ("src", "bench")


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


def rebound_imports(path: pathlib.Path):
    """``module:line: name`` for each module-level ``def``, ``class`` or assignment
    that binds a name the module imports, which hides the import from every reader
    after it (``test_no_unused_imports`` cannot see it: the name is used)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                    and node.module != "__future__")
                for alias in node.names}
    hits = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        hits += [f"{path.name}:{node.lineno}: {name}" for name in names if name in imported]
    return hits


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


def _constructor_defaults(cls: ast.ClassDef):
    """(line, field, positional index) for each defaulted constructor parameter of
    ``cls``: a field with a value in a ``NamedTuple`` subclass, else a defaulted
    positional parameter of the class's own ``__init__`` (index 0 follows ``self``)."""
    if any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple" for b in cls.bases):
        fields = [s for s in cls.body
                  if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        return [(s.lineno, s.target.id, i) for i, s in enumerate(fields) if s.value is not None]
    for init in _functions(cls.body):
        if init.name == "__init__":
            a = init.args
            positional = (a.posonlyargs + a.args)[1:]
            first = len(positional) - len(a.defaults)
            return [(arg.lineno, arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    return []


def record_defaults(src: pathlib.Path):
    """Class name -> [(``module:line``, field, positional index)] for each
    class of ``src`` with a defaulted constructor parameter (``_constructor_defaults``)."""
    defaulted = {}
    for path in sorted(src.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(cls, ast.ClassDef) and (found := _constructor_defaults(cls)):
                defaulted[cls.name] = [(f"{path.name}:{line}", field, i)
                                       for line, field, i in found]
    return defaulted


def never_omitted_fields(src: pathlib.Path, callers):
    """``module:line: Class.field`` for each defaulted constructor parameter of a
    class of ``src`` (``record_defaults``) that no constructor call in ``callers``
    leaves out.

    A call ``Class(...)`` or ``x.Class(...)`` leaves a field out when it passes
    it neither by position nor by keyword; a call with ``*args`` or
    ``**kwargs`` leaves nothing out.
    """
    defaulted = record_defaults(src)
    omitted = set()  # (class name, field)
    for path in sorted(p for d in callers for p in d.rglob("*.py")):
        for call in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name not in defaulted or any(isinstance(x, ast.Starred) for x in call.args) \
                    or any(k.arg is None for k in call.keywords):
                continue
            passed = {k.arg for k in call.keywords}
            omitted.update((name, field) for _, field, i in defaulted[name]
                           if i >= len(call.args) and field not in passed)
    return [f"{where}: {cls}.{field}"
            for cls, fields in sorted(defaulted.items())
            for where, field, _ in fields if (cls, field) not in omitted]


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


def unreferenced(defs, users):
    """``file:line: label`` for each (path, label, func) of ``defs`` whose function
    name no file of ``users`` references outside the function's own body.

    A reference is a bare name or an attribute ``x.<name>``, so a method counts
    as used when any object's attribute of its name is read; imports do not count.
    """
    refs = {}  # name -> [(path, line)]
    for path in sorted(p for d in users for p in d.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno))
    return [f"{path.name}:{func.lineno}: {label}"
            for path, label, func in defs
            if all(where == path and func.lineno <= line <= func.end_lineno
                   for where, line in refs.get(func.name, []))]


def _functions(body):
    return [f for f in body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]


def unused_methods(src: pathlib.Path, users):
    """``Class.method`` for each non-dunder method defined on a class of ``src``
    that no file of ``users`` references (``unreferenced``)."""
    return unreferenced([(path, f"{cls.name}.{func.name}", func)
                         for path in sorted(src.glob("*.py"))
                         for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                         if isinstance(cls, ast.ClassDef)
                         for func in _functions(cls.body)
                         if not (func.name.startswith("__") and func.name.endswith("__"))],
                        users)


def unused_functions(src: pathlib.Path, users):
    """Each module-level function of ``src``, public or private, that no file of
    ``users`` references (``unreferenced``)."""
    return unreferenced([(path, func.name, func)
                         for path in sorted(src.glob("*.py"))
                         for func in _functions(ast.parse(path.read_text(),
                                                          filename=str(path)).body)],
                        users)


def module_imports(path: pathlib.Path, module: str):
    """``module:line`` for each ``import <module>...`` or ``from <module>... import``."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.partition(".")[0] == module for name in names):
            hits.append(f"{path.name}:{node.lineno}")
    return hits


MEMOS = {"cache", "lru_cache"}


def hidden_memos(path: pathlib.Path):
    """``module:line: what`` for each ``global`` statement and each use of
    ``functools.cache`` or ``functools.lru_cache``, imported by name or not."""
    tree = ast.parse(path.read_text(), filename=str(path))
    functools_names = {alias.asname or alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.Import)
                       for alias in node.names if alias.name == "functools"}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            hits.append(f"{path.name}:{node.lineno}: global {', '.join(node.names)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            hits.extend(f"{path.name}:{node.lineno}: functools.{alias.name}"
                        for alias in node.names if alias.name in MEMOS)
        elif (isinstance(node, ast.Attribute) and node.attr in MEMOS
              and isinstance(node.value, ast.Name) and node.value.id in functools_names):
            hits.append(f"{path.name}:{node.lineno}: functools.{node.attr}")
    return hits


MUTATORS = {"append", "extend", "update", "pop", "insert", "setdefault"}


def _self_attribute(node):
    """True for ``self.x`` and for an item or attribute of it (``self.x[k]``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.value.id == "self"
        node = node.value
    return False


def state_changes(path: pathlib.Path):
    """``Class.method`` for each method, other than a constructor, that assigns to
    a ``self`` attribute or calls a mutating method on one."""
    hits = []
    for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(cls, ast.ClassDef):
            continue
        for func in cls.body:
            if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or func.name == "__init__"):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = getattr(node, "targets", None) or [node.target]
                    changed = any(_self_attribute(t) for t in targets)
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    changed = node.func.attr in MUTATORS and _self_attribute(node.func.value)
                else:
                    changed = False
                if changed:
                    hits.append(f"{path.name}:{node.lineno}: {cls.name}.{func.name}")
    return hits


def unchecked_builds(path: pathlib.Path):
    """(``module:line``, name, enclosing ``Class.function``) for each reference to
    ``_trimmed`` (the piecewise-linear trim and zero rules, without the breakpoint
    checks) and to ``__new__`` (an object that ``__init__`` never sees)."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name in ("_trimmed", "__new__"):
                hits.append((f"{path.name}:{child.lineno}", name, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return hits


def second_sum_paths(path: pathlib.Path):
    """``module:line: what`` for each pairwise path beside a vector type's one-pass sum.

    ``accumulate`` may hold no loop, comprehension or lambda that calls
    ``linear_combine`` (a pairwise fold), and ``linear_combine`` must be, after
    its docstring, at most one ``if ...: raise`` and one ``return`` of a
    ``_SUMS[...]`` call (the two-term case of its type's sum).
    """
    hits = []
    loops = (ast.For, ast.While, ast.comprehension, ast.Lambda)
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name == "accumulate":
            hits += [f"{path.name}:{call.lineno}: a pairwise fold in accumulate"
                     for loop in ast.walk(node) if isinstance(loop, loops)
                     for call in ast.walk(loop) if isinstance(call, ast.Call)
                     and getattr(call.func, "id", None) == "linear_combine"]
        elif node.name == "linear_combine":
            *guard, last = node.body[1:] if ast.get_docstring(node) else node.body
            guarded = all(isinstance(g, ast.If) and not g.orelse and len(g.body) == 1
                          and isinstance(g.body[0], ast.Raise) for g in guard)
            summed = (isinstance(last, ast.Return) and isinstance(last.value, ast.Call)
                      and isinstance(last.value.func, ast.Subscript)
                      and getattr(last.value.func.value, "id", None) == "_SUMS")
            if len(guard) > 1 or not guarded or not summed:
                hits.append(f"{path.name}:{node.lineno}: linear_combine "
                            "is more than a call into its type's sum")
    return sorted(set(hits))


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    hits = [hit for path in modules for hit in unused_imports(path)]
    assert not hits, "unused imports:\n" + "\n".join(hits)


def test_no_module_level_name_rebinds_an_import():
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in rebound_imports(path)]
    assert not hits, "module-level names that rebind an import:\n" + "\n".join(hits)


def test_a_rebound_import_is_reported(tmp_path):
    # the vector sum named like itertools' accumulate, which it would hide
    mutant = tmp_path / "spaces.py"
    mutant.write_text((SRC / "spaces.py").read_text().replace(
        "import itertools\n", "import itertools\nfrom itertools import accumulate\n", 1))
    hits = rebound_imports(mutant)
    assert len(hits) == 1 and hits[0].endswith(": accumulate")


def test_no_function_local_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    hits = sorted({hit for path in modules for hit in function_local_imports(path)})
    assert not hits, "imports inside functions:\n" + "\n".join(hits)


def test_every_default_is_passed_somewhere():
    # main(argv) is the console-script entry point: the installed script calls it
    # without argv, so argparse reads sys.argv; only tests pass one
    exempt = {("cli.py", "main(argv)")}
    hits = [hit for hit in never_passed_defaults(SRC, [ROOT / d for d in CALLERS])
            if (hit.split(":")[0], hit.rsplit(": ", 1)[1]) not in exempt]
    assert not hits, "defaults no call overrides (make them constants):\n" + "\n".join(hits)


def test_every_record_default_is_used():
    hits = never_omitted_fields(SRC, [ROOT / d for d in CALLERS])
    assert not hits, "record defaults every call overrides (drop them):\n" + "\n".join(hits)


def test_record_defaults_are_read_from_namedtuples_and_constructors():
    # the gate above checks only what this finds: a NamedTuple's fields, an __init__'s parameters
    defaults = {cls: [field for _, field, _ in found]
                for cls, found in record_defaults(SRC).items()}
    assert defaults["OrbitReport"] == ["worst_scheduled", "guarantee_vacuous", "mode",
                                       "inner_measure", "outer_measure", "continuity_window"]
    assert defaults["OperatorCertificate"] == ["scalar_twist", "power", "swapped"]


# exported for the paper's sake although only tests call them
PAPER_EXPORTS = {
    "right_inverse_identity_check",  # acceptance 9: A B = I on the targets
    "transform_inverse",  # acceptance 9: the criterion with A and B swapped
}


def test_every_export_is_used_outside_tests():
    hits = unused_exports(SRC, [SRC, ROOT / "bench"], PAPER_EXPORTS)
    assert not hits, "public names only tests use:\n" + "\n".join(hits)


def test_every_method_is_used_outside_tests():
    hits = unused_methods(SRC, [ROOT / d for d in CALLERS])
    assert not hits, "methods only tests call:\n" + "\n".join(hits)


def test_every_module_function_is_used_outside_tests():
    # a private helper that a refactor stops calling is as dead as an unused export
    hits = [hit for hit in unused_functions(SRC, [ROOT / d for d in CALLERS])
            if hit.rsplit(": ", 1)[1] not in PAPER_EXPORTS]
    assert not hits, "module-level functions only tests call:\n" + "\n".join(hits)


def test_an_uncalled_helper_is_reported(tmp_path):
    # a former shortcut of the distance walk, kept beside the loop that replaced it
    src = tmp_path / "fhclab"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    spaces = src / "spaces.py"
    text = spaces.read_text() + "\n\ndef _run_max(values):\n    return [max(map(abs, values))]\n"
    spaces.write_text(text)
    line = len(text.splitlines()) - 1  # the def, above its one-line body
    hits = [hit for hit in unused_functions(src, [src, ROOT / "bench"])
            if hit.rsplit(": ", 1)[1] not in PAPER_EXPORTS]
    assert hits == [f"spaces.py:{line}: _run_max"]


def test_no_state_changes_outside_constructors():
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in state_changes(path)]
    assert not hits, "methods that change state outside a constructor:\n" + "\n".join(hits)


def test_no_numpy_in_src():
    # numpy is a test-only oracle: fhclab runs on the standard library alone
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in module_imports(path, "numpy")]
    assert not hits, "numpy imported in src/fhclab:\n" + "\n".join(hits)


def test_no_dataclasses_in_src():
    # every process starts by importing fhclab: a dataclass generates and execs its
    # methods at import, and the dataclasses module loads inspect (README, Start-up cost)
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in module_imports(path, "dataclasses")]
    assert not hits, "dataclasses imported in src/fhclab:\n" + "\n".join(hits)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps site's own imports out, so sys.modules holds what fhclab loads;
    # ast costs about 1 ms of import, and no command needs a parser of Python
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = ("import sys, fhclab.cli; "
            "print(sorted({'ast', 'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_no_hidden_memos():
    # state that outlives a call belongs to an object the caller holds; a memo
    # or a global is shared by every caller in the process
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in hidden_memos(path)]
    assert not hits, "module-level memos or globals:\n" + "\n".join(hits)


def traced_names(tracer: pathlib.Path):
    """``bench/tracer.py``'s LAYERS as "module.name" strings, read without importing it."""
    for node in ast.parse(tracer.read_text(), filename=str(tracer)).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            layers = ast.literal_eval(node.value)
            return [f"{mod}.{name}" for mod, names in layers.items() for name in names]
    raise AssertionError(f"{tracer} defines no LAYERS")


def test_every_traced_name_resolves():
    # Tracer.install raises on a name that no longer exists, so a deleted or
    # renamed function would break `--trace 1` runs, which tier-1 never starts;
    # a method must be defined on its class itself, as install reads vars(cls)
    names = traced_names(ROOT / "bench" / "tracer.py")
    assert names
    hits = []
    for name in names:
        mod_name, _, qual = name.partition(".")
        owner, _, attr = qual.rpartition(".")
        scope = vars(importlib.import_module(f"fhclab.{mod_name}"))
        if owner:
            scope = vars(scope[owner]) if owner in scope else {}
        if attr not in scope:
            hits.append(name)
    assert not hits, "traced names fhclab does not define:\n" + "\n".join(hits)


def test_only_the_constructor_and_the_fold_skip_the_checks():
    # folded scales a checked function by a finite e^s >= 0, so it may skip the
    # breakpoint checks; anything else must build through __init__
    allowed = {"_trimmed": {"PiecewiseLinearFn.__init__", "PiecewiseLinearFn.folded"},
               "__new__": {"PiecewiseLinearFn.folded"}}
    found = [hit for path in sorted(p for d in CALLERS for p in (ROOT / d).rglob("*.py"))
             for hit in unchecked_builds(path)]
    assert {scope for _, name, scope in found if name == "_trimmed"} == allowed["_trimmed"]
    hits = [f"{where}: {name} in {scope or 'module'}" for where, name, scope in found
            if scope not in allowed[name]]
    assert not hits, "builds that skip the constructor's checks:\n" + "\n".join(hits)


def test_one_sum_per_vector_type():
    # each vector type has one weighted sum; linear_combine is its two-term call and
    # accumulate its all-ones call, so no second, pairwise path sits beside it
    assert "def linear_combine(" in (SRC / "spaces.py").read_text()
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in second_sum_paths(path)]
    assert not hits, "pairwise paths beside a one-pass sum:\n" + "\n".join(hits)
