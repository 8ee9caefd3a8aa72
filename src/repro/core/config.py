"""Configuration objects for the protocol and the packaged simulation facade."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunables of the RGB protocol itself.

    Parameters
    ----------
    aggregate_mq:
        Whether network-entity message queues collapse successive operations
        about the same member (paper: "self-optimized for aggregating some
        successive messages into one").  The ablation benchmark turns this off.
    batched_apply:
        Whether token rounds compile their aggregated operations into one
        :class:`repro.core.deltas.MembershipDelta` applied to each visited
        entity in a single set-based pass (the default), or replay the seed's
        per-operation path (kept as the reference semantics and the
        scalability-ablation baseline).  Ring member lists are identical
        either way.  When one batch carries several operations about the same
        member — only possible with ``aggregate_mq=False``, since the queues
        otherwise net per member before a token is built — the batched path
        applies the *net* batch, so bottom-tier local/neighbour side effects
        of superseded intermediate operations follow the outcome aggregation
        would have produced.
    disseminate_downward:
        Whether membership changes are also pushed down the hierarchy with
        Notification-to-Child messages so every ring learns every change.
        The paper's hop-count model (Section 5.1) assumes this; turning it off
        gives the cheaper "bottom-to-top only" variant the conclusion sketches.
    token_retry_limit:
        Retransmissions before the receiver is declared faulty and excluded
        from the ring (paper Section 5.2: single faults are detected by token
        retransmission and locally repaired).
    holder_ack_enabled:
        Whether the round holder sends Holder-Acknowledgement messages back to
        the children whose notifications it aggregated (Figure 3 lines 17–20).
    """

    aggregate_mq: bool = True
    batched_apply: bool = True
    disseminate_downward: bool = True
    token_retry_limit: int = 2
    holder_ack_enabled: bool = True

    def __post_init__(self) -> None:
        if self.token_retry_limit < 0:
            raise ValueError(f"token_retry_limit must be >= 0, got {self.token_retry_limit}")


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of the packaged :class:`repro.core.simulation.RGBSimulation`.

    The facade builds a regular 4-tier topology, assembles the ring hierarchy
    over it and runs the protocol on one lossless
    :class:`repro.sim.harness.ScenarioHarness`.

    Parameters
    ----------
    num_aps:
        Number of access proxies participating in the hierarchy.  The facade
        generates a 4-tier topology large enough to hold them and configures
        exactly ``num_aps`` proxies to run the protocol (the paper notes that
        only a portion of network entities need participate).
    ring_size:
        Target nodes per logical ring (the paper's ``r``).
    hosts_per_ap:
        Mobile hosts pre-attached to each access proxy at build time.
    group_id:
        Group identity used by every entity.
    seed:
        Master random seed for the run.
    protocol:
        Protocol tunables (see :class:`ProtocolConfig`).
    trace_enabled:
        Record a structured trace of protocol activity (costly for big runs).
    """

    num_aps: int = 25
    ring_size: int = 5
    hosts_per_ap: int = 2
    group_id: str = "group-0"
    seed: int = 0
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    trace_enabled: bool = False

    def __post_init__(self) -> None:
        if self.num_aps < 1:
            raise ValueError(f"num_aps must be >= 1, got {self.num_aps}")
        if self.ring_size < 2:
            raise ValueError(f"ring_size must be >= 2, got {self.ring_size}")
        if self.hosts_per_ap < 0:
            raise ValueError(f"hosts_per_ap must be >= 0, got {self.hosts_per_ap}")
        if not self.group_id:
            raise ValueError("group_id must be non-empty")
