"""Epoch-consistent membership serving layer.

The paper maintains membership (Section 4) in order to *answer queries*
(Section 4.4) — this package is the read side: a batched query engine that
serves TMS/BMS/IMS answers while churn rounds are in flight, built from

* :mod:`repro.serving.columnar_query` — fan-out routing derived by
  vectorised sweeps over the columnar store's structural columns, with the
  object hierarchy walk as the pinned fallback;
* :mod:`repro.serving.snapshots` — copy-on-write membership frames keyed on
  (topology epoch, ring versions, view versions), so a batch of queries
  reads one coherent frame with no torn reads mid-round;
* :mod:`repro.serving.frontend` — the batched submit/drain front-end with
  per-scheme routing and snapshot reuse across batches.
"""
