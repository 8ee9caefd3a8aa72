"""RGB core: the paper's primary contribution.

The subpackage implements Section 4 of the paper:

* :mod:`repro.core.identifiers` / :mod:`repro.core.member` /
  :mod:`repro.core.entity` / :mod:`repro.core.token` /
  :mod:`repro.core.message_queue` — the data structures of mobile hosts,
  network entities and tokens (Section 4.2).
* :mod:`repro.core.ring` / :mod:`repro.core.hierarchy` — the ring-based
  hierarchy of access proxies, access gateways and border routers
  (Section 4.1, Figure 2).
* :mod:`repro.core.kernel` / :mod:`repro.core.deltas` — the unified,
  transport-agnostic token-round state machine (round orchestration,
  notification/acknowledgement routing, seen-set dedup) and the batched
  membership deltas it applies in a single pass.
* :mod:`repro.core.delivery` — the one reliable-delivery core for
  notifications (ack-gated retry, sender succession, reroute, dead letters,
  the round gate), driven by the sim's and the UDP node's dispatches.
* :mod:`repro.core.one_round` — the structural driver of the kernel:
  deterministic synchronous stepping (Section 4.3, Figure 3).  The
  event-driven driver over the discrete-event transport is
  :mod:`repro.sim.harness`.
* :mod:`repro.core.query` — the Membership-Query algorithm with the TMS, BMS
  and IMS maintenance schemes (Section 4.4).
* :mod:`repro.core.handoff` — Member-Handoff fast-path classification using
  neighbour member lists.
* :mod:`repro.core.partition` — partition detection for the
  Membership-Partition/Merge extension the paper lists as future work (the
  kernel's ring repair, Section 5.2, is what merges).
* :mod:`repro.core.simulation` — the :class:`RGBSimulation` facade assembling
  topology, hierarchy and the scenario harness into one runnable system.
"""
