"""What importing the package costs, and what it may depend on.

A live shard (``python -m repro.runtime.node``) imports only the kernel,
delivery, runtime, ``sim.stats`` and ``sim.trace``: no numpy, no simulator,
no analysis code (the import rule in ``docs/ARCHITECTURE.md``).  Every
check on ``sys.modules`` runs in a fresh interpreter, because the test
process itself has imported everything by the time a test runs.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_shard_import_closure():
    """A shard loads neither numpy nor scipy, and of the package only
    ``repro.core``, ``repro.runtime``, ``repro.sim.stats`` and ``repro.sim.trace``."""
    loaded = _fresh(
        "import sys\n"
        "import repro.runtime.node\n"
        "print('\\n'.join(sys.modules))\n"
    ).split()
    assert [name for name in ("numpy", "scipy") if name in loaded] == []
    outside = [
        name
        for name in loaded
        if name.startswith("repro.")
        and name not in ("repro.core", "repro.runtime", "repro.sim", "repro.sim.stats", "repro.sim.trace")
        and not name.startswith(("repro.core.", "repro.runtime."))
    ]
    assert outside == []


def test_import_repro_loads_no_submodule():
    out = _fresh(
        "import sys\n"
        "import repro\n"
        "print([m for m in sys.modules if m.startswith('repro.')])\n"
    )
    assert out.strip() == "[]"


def test_star_import_resolves_every_public_name():
    out = _fresh(
        "import repro\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "print(sorted(set(repro.__all__) - set(namespace)))\n"
    )
    assert out.strip() == "[]"


def _third_party_imports() -> set:
    roots = set()
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    return roots - set(sys.stdlib_module_names) - {"repro"}


def test_declared_dependencies_cover_the_code():
    """Every third-party module ``src/repro`` imports is a declared dependency,
    and every declared dependency is imported."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        declared = tomllib.load(handle)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in declared}
    assert _third_party_imports() == names
