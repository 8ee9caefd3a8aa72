"""Every function and class in ``src/repro`` is named somewhere it is used.

An AST walk collects each ``def`` / ``class`` name under ``src/repro``; a
word scan of the repository's code and documentation (``src/``, ``tests/``,
``bench/``, ``benchmarks/``, ``examples/``, ``docs/`` and the README) must
find that name more often than it is defined.  A name found only at its own
definitions is code nothing runs: delete it, or move it next to the tests
that use it as a reference (``tests/reference/``).

The scan is by word, so a mention in a docstring, a ``getattr`` string or a
test counts as a use.  Dunder methods are called by the interpreter and are
skipped.  ``ALLOWED`` takes any other name that only a convention calls (a
protocol method, a handler looked up by name), each with its reason; no
definition needs an entry today.
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


def _definitions() -> list:
    """``(name, "path:line")`` for every def and class in the package."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((node.name, f"{path.relative_to(ROOT)}:{node.lineno}"))
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


def test_every_definition_in_src_is_referenced():
    assert unreferenced() == []
