"""Every function, class, constant and import in ``src/repro`` is used.

An AST walk collects each ``def`` / ``class`` name under ``src/repro`` and
each name a module-level assignment binds (a constant, a type alias, a
module's registry); a word scan of the repository's code and documentation
(``src/``, ``tests/``, ``bench/``, ``benchmarks/``, ``examples/``, ``docs/``
and the README) must find that name more often than it is defined.  A name
found only at its own definitions is code nothing runs: delete it, or move
it next to the tests that use it as a reference (``tests/reference/``).

The scan is by word, so a mention in a docstring, a ``getattr`` string or a
test counts as a use.  Dunder names are used by the interpreter and are
skipped.  ``ALLOWED`` takes any other name that only a convention calls (a
protocol method, a handler looked up by name), each with its reason; no
definition needs an entry today.

Imports are checked per module: a top-level import whose bound name is never
a ``Name`` in that module, nor listed in its ``__all__``, nor named inside a
string annotation, is an unused import.  A package ``__init__.py`` that
imports its own submodules for their side effect (``workloads/families``
registers each family on import) is exempt for those names.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SEARCHED_DIRS = ("src", "tests", "bench", "benchmarks", "examples", "docs")
SEARCHED_SUFFIXES = (".py", ".md")

#: Names defined in ``src/repro`` that may appear nowhere else -> the reason.
ALLOWED: dict = {}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _assigned_names(node: ast.stmt) -> list:
    """The names a module-level ``=`` / annotated assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = []
    for target in targets:
        elements = target.elts if isinstance(target, ast.Tuple) else [target]
        names.extend(e.id for e in elements if isinstance(e, ast.Name))
    return names


def _definitions() -> list:
    """``(name, "path:line")`` for every def and class in the package, and
    for every name a module-level assignment binds."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(ROOT)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((node.name, f"{where}:{node.lineno}"))
        for node in tree.body:
            found.extend((name, f"{where}:{node.lineno}") for name in _assigned_names(node))
    return found


def _word_counts() -> Counter:
    files = [ROOT / "README.md"]
    for directory in SEARCHED_DIRS:
        files.extend(
            path
            for path in (ROOT / directory).rglob("*")
            if path.suffix in SEARCHED_SUFFIXES and path.is_file()
        )
    this_file = Path(__file__).resolve()
    counts: Counter = Counter()
    for path in files:
        if path.resolve() != this_file:
            counts.update(_WORD.findall(path.read_text(errors="replace")))
    return counts


def unreferenced() -> list:
    """``path:line name`` of each definition no other text names."""
    definitions = _definitions()
    defined = Counter(name for name, _ in definitions)
    counts = _word_counts()
    return [
        f"{where} {name}"
        for name, where in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and name not in ALLOWED
        and counts[name] <= defined[name]
    ]


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set:
    """Names a module uses: ``Name`` nodes, string annotations, ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue  # not an expression (e.g. a Literal string): names nothing
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return used


def _bound_names(node: ast.stmt, path: Path) -> list:
    """The names a top-level import binds, minus registering submodules."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
        return []
    names = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    if path.name == "__init__.py":
        names = [name for name in names if not (path.parent / f"{name}.py").exists()]
    return names


def unused_imports() -> list:
    """``path:line name`` of each top-level import its module never uses."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        for node in tree.body:
            for name in _bound_names(node, path):
                if name not in used:
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return found


def test_every_definition_in_src_is_referenced():
    assert unreferenced() == []


def test_every_import_in_src_is_used():
    assert unused_imports() == []
