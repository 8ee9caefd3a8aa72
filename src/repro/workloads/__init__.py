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
