"""Workload generators driving the experiments and examples.

* :mod:`repro.workloads.churn` — join/leave/failure churn over the member
  population.
* :mod:`repro.workloads.handoffs` — handoff storms (bursts of mobility).
* :mod:`repro.workloads.queries` — membership query mixes for the TMS/BMS/IMS
  comparison.
* :mod:`repro.workloads.scenarios` — the packaged 100k-proxy propagation
  scenario (the scale benchmarks' driver).
* :mod:`repro.workloads.matrix` — the {protocol} × {scenario} × {scale} ×
  {loss} sweep over the event-driven harness (:mod:`repro.sim.harness`) and
  the protocol-driver ablation replay (:mod:`repro.baselines.driver`).
* :mod:`repro.workloads.spec` — declarative scenario specs compiled by a
  pass pipeline into replayable fault scripts; the families themselves (every
  matrix scenario) live in :mod:`repro.workloads.families`.
"""
