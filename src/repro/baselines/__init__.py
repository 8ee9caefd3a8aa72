"""Baseline membership schemes the paper compares against (or that supersede it).

* :mod:`repro.baselines.tree_hierarchy` — the CONGRESS-style tree-based
  hierarchy of membership servers, with and without representatives
  (Section 2 related work and the Section 5 comparison target).
* :mod:`repro.baselines.tree_membership` — the Moshe/Keidar-style one-round
  proposal algorithm running over the tree hierarchy; used to measure tree
  hop counts the same way the ring hop counts are measured.
* :mod:`repro.baselines.flat_ring` — a single flat token ring over all
  access proxies (Totem / Cristian-Schmuck style), the non-hierarchical
  comparator that motivates the hierarchy.
* :mod:`repro.baselines.gossip` — a SWIM-style gossip membership protocol,
  the modern comparator used in the ablation benchmarks.
* :mod:`repro.baselines.driver` — the :class:`MembershipProtocol` driver seam
  that puts the RGB kernel and all three baselines behind one propagate /
  fail / converge-check / cost-report interface for the ablation matrix.
"""
