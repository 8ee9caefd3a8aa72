"""Everything defined in ``src/repro`` is used by code outside ``tests/``.

An AST walk collects each ``def`` / ``class`` name under ``src/repro`` and
each name a module-level assignment binds (a constant, a type alias, a
module's registry).  A name counts as used only where code outside
``tests/`` uses it: an AST scan of ``src/``, ``bench/``, ``benchmarks/`` and
``examples/`` collects every loaded name, attribute, keyword argument and
imported name, and the words of every string literal that is not a
docstring, so a ``getattr`` string or a patch target in ``bench/tracing.py``
counts.  Docstrings, comments, ``.md`` files, a module's own ``__all__`` and
everything under ``tests/`` do not: a mention is not a call, and a test is
not a caller.  A name the scan never finds is code nothing runs: delete it,
with the tests that only exercised it.

Dunder names are used by the interpreter and are skipped.  ``ALLOWED`` takes
at most 12 names that only tests read, each with its reason and the test
that reads it; an entry that is no longer defined, or that code outside
``tests/`` now uses, fails the gate.  The scan counts names, not
definitions, so a name defined twice passes while one copy is dead, and a
method that shares a name with a used builtin or attribute passes too.

Imports are checked per module: a top-level import whose bound name is never
a ``Name`` in that module, nor listed in its ``__all__``, nor named inside a
string annotation, is an unused import.  A package ``__init__.py`` that
imports its own submodules for their side effect (``workloads/families``
registers each family on import) is exempt for those names.

The scanner takes its roots as arguments; the ``test_gate_*`` tests run it
over small trees to pin what it counts.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CODE_ROOTS = tuple(ROOT / name for name in ("src", "bench", "benchmarks", "examples"))
MAX_ALLOWED = 12

#: Names defined in ``src/repro`` that only tests read -> why, and the test.
ALLOWED = {
    "hopcount_ring": "Section 5.1 formula (5), the closed form "
    "test_analysis.py::TestScalabilityFormulas checks",
    "hopcount_tree": "Section 5.1 formula (3), checked by "
    "test_analysis.py::TestScalabilityFormulas",
    "hopcount_removed_tree": "Section 5.1 formula (2), checked by "
    "test_analysis.py::TestScalabilityFormulas",
    "functions_well": "the Section 5.2 ring Function-Well predicate, "
    "test_ring_hierarchy.py::TestLogicalRing",
    "canonical_dump": "the byte-stable trace the golden files pin, "
    "test_golden_traces.py and test_parallel_matrix.py",
    "result_fingerprint": "what the bit-identity tests compare across job "
    "counts and backends, test_parallel_matrix.py and test_scenario_spec.py",
    "ring_neighbor_map": "the locality map the golden handoff storm is "
    "generated from, test_golden_traces.py and test_scenario_spec.py",
    "peek": "observes a message queue without draining it, "
    "test_delivery_core.py and test_runtime_unit.py",
    "timers_pending": "observes a live node's armed resend checks, "
    "test_runtime_unit.py and test_delivery_core.py",
    "uniform_node_faults": "test-only fault generator kept while its four "
    "test_sim_faults_mobility.py::TestFaultPlan tests stay (ROADMAP)",
    "insert_member": "test-only ring edit, kept with "
    "test_ring_hierarchy.py::TestLogicalRing's insert tests (ROADMAP)",
    "value_at": "test-only time-series reader, kept with "
    "test_sim_substrate.py::TestMetrics::test_timeseries_value_at (ROADMAP)",
}


def _assigned_names(node: ast.stmt) -> list:
    """The names a ``=`` / annotated assignment binds."""
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


def definitions(package: Path) -> list:
    """``(name, "path:line")`` for every def and class in ``package``, and for
    every name a module-level assignment binds."""
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(package.parents[1])
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((node.name, f"{where}:{node.lineno}"))
        for node in tree.body:
            found.extend((name, f"{where}:{node.lineno}") for name in _assigned_names(node))
    return found


def _unread_strings(tree: ast.Module) -> set:
    """``id``s of the string constants that are docstrings or ``__all__``."""
    skipped = set()
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            for stmt in body if isinstance(body, list) else ():
                if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                    skipped.add(id(stmt.value))
        if "__all__" in _assigned_names(node):
            skipped.update(id(c) for c in ast.walk(node.value))
    return skipped


def used_names(code_roots: Iterable[Path]) -> set:
    """Every name code under ``code_roots`` loads, reads as an attribute,
    passes as a keyword, imports, or spells out in a non-docstring string."""
    used = set()
    for root in code_roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            unread = _unread_strings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                    used.add(node.attr)
                elif isinstance(node, ast.keyword) and node.arg is not None:
                    used.add(node.arg)
                elif isinstance(node, ast.alias):
                    used.update(node.name.split("."))
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in unread
                ):
                    used.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", node.value))
    return used


def unreferenced(package: Path, code_roots: Iterable[Path], allowed) -> list:
    """``path:line name`` of each definition no code outside the tests uses."""
    used = used_names(code_roots)
    return [
        f"{where} {name}"
        for name, where in definitions(package)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in allowed
        and name not in used
    ]


def stale_allowed(package: Path, code_roots: Iterable[Path], allowed) -> list:
    """``ALLOWED`` entries that are no longer defined, or that code now uses."""
    defined = {name for name, _ in definitions(package)}
    used = used_names(code_roots)
    return sorted(
        [f"{name}: not defined" for name in allowed if name not in defined]
        + [f"{name}: used outside tests" for name in allowed if name in used]
    )


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
        if "__all__" in _assigned_names(node):
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
    assert unreferenced(PACKAGE, CODE_ROOTS, ALLOWED) == []


def test_allowed_names_are_few_defined_and_read_only_by_tests():
    assert len(ALLOWED) <= MAX_ALLOWED
    assert stale_allowed(PACKAGE, CODE_ROOTS, ALLOWED) == []


def test_every_import_in_src_is_used():
    assert unused_imports() == []


# -- the gate on small trees -----------------------------------------------


def _gate(tmp_path: Path, files: dict, allowed=()) -> list:
    """Write ``files`` under ``tmp_path``; the names the gate flags in
    ``src/pkg``, scanning the same code roots as the real gate."""
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    roots = [tmp_path / name for name in ("src", "bench", "benchmarks", "examples")]
    return [line.split()[-1] for line in unreferenced(tmp_path / "src" / "pkg", roots, allowed)]


def test_gate_flags_a_def_only_a_test_uses(tmp_path):
    flagged = _gate(
        tmp_path,
        {
            "src/pkg/mod.py": "def used():\n    pass\n\n\ndef only_tested():\n    pass\n",
            "examples/demo.py": "from pkg.mod import used\n\nused()\n",
            "tests/test_mod.py": "from pkg.mod import only_tested\n\nonly_tested()\n",
        },
    )
    assert flagged == ["only_tested"]


def test_gate_ignores_docstrings_comments_markdown_and_all(tmp_path):
    flagged = _gate(
        tmp_path,
        {
            "src/pkg/mod.py": (
                '"""documented and exported and RETIRED are named here."""\n'
                '__all__ = ["exported"]\n'
                "RETIRED = 1\n\n\n"
                "def documented():\n"
                '    """documented names itself."""\n\n\n'
                "# exported is named in a comment\n"
                "def exported():\n"
                "    pass\n"
            ),
            "docs/notes.md": "documented exported RETIRED\n",
        },
    )
    assert flagged == ["documented", "exported", "RETIRED"]


def test_gate_counts_a_name_reached_through_a_bench_string(tmp_path):
    flagged = _gate(
        tmp_path,
        {
            "src/pkg/mod.py": "class Engine:\n    def step(self):\n        pass\n",
            "bench/tracing.py": 'from pkg.mod import Engine\n\npatch(Engine, "step")\n',
        },
    )
    assert flagged == []


def test_gate_fails_an_allowed_entry_gone_or_now_used(tmp_path):
    allowed = {"oracle": "read by a test", "gone": "deleted", "helper": "now used"}
    flagged = _gate(
        tmp_path,
        {
            "src/pkg/mod.py": "def oracle():\n    pass\n\n\ndef helper():\n    pass\n",
            "examples/demo.py": "from pkg.mod import helper\n\nhelper()\n",
        },
        allowed,
    )
    assert flagged == []
    roots = [tmp_path / "examples"]
    assert stale_allowed(tmp_path / "src" / "pkg", roots, allowed) == [
        "gone: not defined",
        "helper: used outside tests",
    ]
