"""Discrete-event simulation substrate for the RGB reproduction.

The mobile-Internet testbed the paper assumes (wireless LANs, cellular and
satellite access networks feeding autonomous systems interconnected by BGP
border routers) is not available, so the protocol runs on this simulator
instead.  The substrate provides:

* :mod:`repro.sim.engine` — an event-driven scheduler with a virtual clock.
* :mod:`repro.sim.transport` — one-hop notification delivery between
  simulated entities: one latency draw and one loss draw per send, never
  retried.
* :mod:`repro.sim.network` — latency models, node states, and the physical
  topology's nodes and links (:mod:`repro.topology`).
* :mod:`repro.sim.faults` — crash and transient-disconnect injection into
  the entities' liveness table, which the transport reads (the paper folds
  link faults into node faults).
* :mod:`repro.sim.mobility` — handoff/attachment event generation for mobile
  hosts.
* :mod:`repro.sim.rng` / :mod:`repro.sim.stats` / :mod:`repro.sim.trace` —
  deterministic randomness, metric collection and event tracing.
* :mod:`repro.sim.harness` — the event-driven scenario harness that drives
  the token-round kernel through all of the above.
"""
