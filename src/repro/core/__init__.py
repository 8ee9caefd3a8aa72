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
* :mod:`repro.core.one_round` / :mod:`repro.core.protocol` — the two thin
  drivers of the kernel: deterministic structural stepping vs. message
  scheduling on the discrete-event transport (Section 4.3, Figure 3).
* :mod:`repro.core.query` — the Membership-Query algorithm with the TMS, BMS
  and IMS maintenance schemes (Section 4.4).
* :mod:`repro.core.handoff` — Member-Handoff fast path using neighbour member
  lists.
* :mod:`repro.core.failure_detector` / :mod:`repro.core.repair` — token
  retransmission based fault detection and local ring repair (Section 5.2
  assumptions).
* :mod:`repro.core.partition` — the Membership-Partition/Merge extension the
  paper lists as future work.
* :mod:`repro.core.simulation` — the :class:`RGBSimulation` facade assembling
  topology, hierarchy, protocol nodes and workloads into one runnable system.
"""

from repro.core.config import ProtocolConfig, SimulationConfig
from repro.core.deltas import DeltaBuilder, DeltaEntry, MembershipDelta
from repro.core.kernel import PropagationReport, RoundResult, TokenRoundKernel
from repro.core.identifiers import GroupId, NodeId, GloballyUniqueId, LocallyUniqueId
from repro.core.member import MemberInfo, MemberStatus, MobileHostState
from repro.core.entity import EntityRole, NetworkEntityState
from repro.core.token import Token, TokenOperation, TokenOperationType
from repro.core.message_queue import MessageQueue, QueuedMessage
from repro.core.membership import MembershipEvent, MembershipEventType, MembershipView
from repro.core.ring import LogicalRing, RingError
from repro.core.hierarchy import RingHierarchy, HierarchyBuilder
from repro.core.query import MembershipQueryService, MembershipScheme, QueryResult
from repro.core.simulation import RGBSimulation

__all__ = [
    "ProtocolConfig",
    "SimulationConfig",
    "DeltaBuilder",
    "DeltaEntry",
    "MembershipDelta",
    "TokenRoundKernel",
    "RoundResult",
    "PropagationReport",
    "GroupId",
    "NodeId",
    "GloballyUniqueId",
    "LocallyUniqueId",
    "MemberInfo",
    "MemberStatus",
    "MobileHostState",
    "EntityRole",
    "NetworkEntityState",
    "Token",
    "TokenOperation",
    "TokenOperationType",
    "MessageQueue",
    "QueuedMessage",
    "MembershipEvent",
    "MembershipEventType",
    "MembershipView",
    "LogicalRing",
    "RingError",
    "RingHierarchy",
    "HierarchyBuilder",
    "MembershipQueryService",
    "MembershipScheme",
    "QueryResult",
    "RGBSimulation",
]
