"""Golden fingerprints of the matrix's original four scenarios.

Each of ``churn``, ``handoff_storm``, ``partition_merge`` and
``mobility_trace`` runs through the event-driven RGB harness at 16 and 27
proxies (r=4 and r=3) and loss 0 / 5 %; the cells' ``record_fingerprint``s
are canonicalised against ``tests/golden/matrix_small.json``.  The other
matrix tests compare two runs with each other; this one pins the absolute
records, so a change to how a scenario is generated or scheduled shows up
as a diff.

Regenerate after an intentional change::

    PYTHONPATH=src python tests/test_golden_matrix.py --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.workloads.matrix import MatrixCell, run_matrix_cell
from repro.workloads.parallel import record_fingerprint

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "matrix_small.json"

SCENARIOS = ("churn", "handoff_storm", "partition_merge", "mobility_trace")
SIZES = (16, 27)
LOSSES = (0.0, 0.05)
EVENTS = 24


def canonical_matrix() -> str:
    out = {}
    for scenario in SCENARIOS:
        for size in SIZES:
            for loss in LOSSES:
                cell = MatrixCell(scenario=scenario, num_proxies=size, loss=loss, seed=0)
                result = run_matrix_cell(cell, events=EVENTS)
                out[cell.label] = record_fingerprint(result.record)
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def test_matrix_cells_match_golden_file():
    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_matrix.py --regen`"
    )
    assert canonical_matrix() == GOLDEN_PATH.read_text()


if __name__ == "__main__":
    if "--regen" in sys.argv:
        GOLDEN_PATH.write_text(canonical_matrix())
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
