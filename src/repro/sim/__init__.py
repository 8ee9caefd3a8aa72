"""Discrete-event simulation substrate for the RGB reproduction.

The mobile-Internet testbed the paper assumes (wireless LANs, cellular and
satellite access networks feeding autonomous systems interconnected by BGP
border routers) is not available, so the protocol runs on this simulator
instead.  The substrate provides:

* :mod:`repro.sim.engine` — an event-driven scheduler with a virtual clock.
* :mod:`repro.sim.transport` — message delivery between simulated nodes with
  per-link latency distributions and loss.
* :mod:`repro.sim.network` — the node/link graph the transport routes over.
* :mod:`repro.sim.faults` — crash, transient-disconnect and link-fault
  injection (the paper folds link faults into node faults; we support both).
* :mod:`repro.sim.mobility` — handoff/attachment event generation for mobile
  hosts.
* :mod:`repro.sim.rng` / :mod:`repro.sim.stats` / :mod:`repro.sim.trace` —
  deterministic randomness, metric collection and event tracing.
* :mod:`repro.sim.harness` — the event-driven scenario harness that drives
  the token-round kernel through all of the above.
"""
