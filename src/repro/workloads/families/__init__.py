"""Scenario families (declarative, compiled by the spec pipeline).

Importing this package registers every built-in family with
:mod:`repro.workloads.spec`: the matrix's original ``churn``,
``handoff_storm``, ``partition_merge`` and ``mobility_trace``, and the
adversarial ``flash_crowd``, ``correlated_failure``, ``diurnal_mobility``
and ``replay_injection``.  Each module's docstring describes its scenario.

Each family contributes *events*, never harness code: the compiled
:class:`repro.workloads.spec.FaultScript` replays identically through the
event-driven RGB harness and — via :func:`repro.workloads.matrix.replay_workload`
— through every baseline protocol driver.
"""

# Each module registers its family on import.
from repro.workloads.families import (  # noqa: F401
    churn,
    correlated_failure,
    diurnal_mobility,
    flash_crowd,
    handoff_storm,
    mobility_trace,
    partition_merge,
    replay_injection,
)
