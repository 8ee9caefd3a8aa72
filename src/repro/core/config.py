"""Configuration objects for the protocol and the packaged simulation facade."""

from __future__ import annotations

from dataclasses import dataclass, field


#: Token retransmissions before the receiver is declared faulty and excluded
#: from its ring (paper Section 5.2: a single fault is detected by token
#: retransmission and repaired locally).  Both the kernel and the flat-ring
#: baseline charge ``TOKEN_RETRY_LIMIT + 1`` sends per detection.
TOKEN_RETRY_LIMIT = 2


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunables of the RGB protocol itself.

    Figure 3 always sends Notification-to-Child (lines 14-16) and the
    Holder-Acknowledgement (lines 17-20), so neither is a switch; the token
    retry limit is the constant :data:`TOKEN_RETRY_LIMIT`.  One tunable is
    left because the aggregation ablation
    (``benchmarks/test_ablation_aggregation.py``) measures both its values.

    Parameters
    ----------
    aggregate_mq:
        Whether network-entity message queues collapse successive operations
        about the same member (paper: "self-optimized for aggregating some
        successive messages into one").  The ablation benchmark turns this off.
        Token rounds apply each batch as one net
        :class:`repro.core.deltas.MembershipDelta` either way, so when a batch
        carries several operations about one member (only possible with this
        off) the bottom-tier local/neighbour lists follow the outcome
        aggregation would have produced.
    """

    aggregate_mq: bool = True


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
