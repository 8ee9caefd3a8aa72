"""Shared helpers for the benchmark harness.

Every benchmark regenerates one artefact of the paper's evaluation (a table,
a figure or a claim) and prints the regenerated rows next to the published
values, so ``pytest benchmarks/ --benchmark-only -s`` doubles as the
reproduction report backing EXPERIMENTS.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The reference oracles the ablations time against live with the tests
# (``tests/reference/``); make them importable when benchmarks/ runs alone.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))


def print_report(title: str, lines) -> None:
    """Uniform report block printed by each benchmark."""
    bar = "=" * max(len(title), 20)
    print(f"\n{bar}\n{title}\n{bar}")
    for line in lines:
        print(line)


@pytest.fixture
def report():
    return print_report
