"""Analytical models and experiment regeneration for the paper's evaluation.

* :mod:`repro.analysis.scalability` — formulas (1)–(6): normalised hop counts
  of the tree-based and ring-based hierarchies, and the rows of **Table I**.
* :mod:`repro.analysis.reliability` — formulas (7)–(8): Function-Well
  probability of a logical ring and of the whole hierarchy, and the rows of
  **Table II**.
* :mod:`repro.analysis.hopcount_sim` — measured hop counts from the
  implemented protocol, validating that the closed forms describe the code.
* :mod:`repro.analysis.montecarlo` — Monte-Carlo fault trials validating the
  reliability model and comparing the ring hierarchy against the tree-based
  baseline.
* :mod:`repro.analysis.tables` — text renderings of Tables I and II plus the
  ``rgb-tables`` console entry point.
"""
