"""Workload generators driving the experiments and examples.

* :mod:`repro.workloads.churn` — join/leave/failure churn over the member
  population.
* :mod:`repro.workloads.handoffs` — handoff storms (bursts of mobility).
* :mod:`repro.workloads.queries` — membership query mixes for the TMS/BMS/IMS
  comparison.
* :mod:`repro.workloads.scenarios` — packaged end-to-end scenarios combining
  the above (used by the examples and integration tests).
* :mod:`repro.workloads.matrix` — the {protocol} × {scenario} × {scale} ×
  {loss} sweep over the event-driven harness (:mod:`repro.sim.harness`) and
  the protocol-driver ablation replay (:mod:`repro.baselines.driver`).
* :mod:`repro.workloads.spec` — declarative scenario specs compiled by a
  pass pipeline into replayable fault scripts; the families themselves (every
  matrix scenario) live in :mod:`repro.workloads.families`.
"""

from repro.workloads.churn import ChurnEvent, ChurnKind, ChurnWorkload
from repro.workloads.handoffs import HandoffStorm, HandoffStormEvent
from repro.workloads.matrix import (
    LOSS_RATES,
    PROTOCOLS,
    SCENARIOS,
    SIZES,
    AblationSweep,
    CellResult,
    MatrixCell,
    ScenarioMatrix,
    replay_workload,
    run_ablation_cell,
    run_matrix_cell,
    replay_script,
    shape_for_proxies,
)
from repro.workloads.queries import QueryWorkload, QueryRequest
from repro.workloads.spec import (
    FaultScript,
    ScenarioSpec,
    ScriptEvent,
    available_families,
    compile_spec,
    schedule_script,
)
from repro.workloads.scenarios import ScenarioResult, run_conferencing_scenario, run_churn_scenario

__all__ = [
    "LOSS_RATES",
    "PROTOCOLS",
    "SCENARIOS",
    "SIZES",
    "AblationSweep",
    "CellResult",
    "MatrixCell",
    "ScenarioMatrix",
    "replay_workload",
    "run_ablation_cell",
    "run_matrix_cell",
    "replay_script",
    "shape_for_proxies",
    "FaultScript",
    "ScenarioSpec",
    "ScriptEvent",
    "available_families",
    "compile_spec",
    "schedule_script",
    "ChurnEvent",
    "ChurnKind",
    "ChurnWorkload",
    "HandoffStorm",
    "HandoffStormEvent",
    "QueryWorkload",
    "QueryRequest",
    "ScenarioResult",
    "run_conferencing_scenario",
    "run_churn_scenario",
]
