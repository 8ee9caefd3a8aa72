"""The One-Round Token Passing Membership algorithm (paper Section 4.3, Figure 3).

This module is the *structural* driver over the unified
:class:`repro.core.kernel.TokenRoundKernel`: it steps token rounds
deterministically (shared memory, zero latency) over a
:class:`repro.core.hierarchy.RingHierarchy` and the per-entity local state.
It is the reference implementation used by

* the deterministic semantics tests,
* the hop-count measurement that validates Table I
  (:mod:`repro.analysis.hopcount_sim`), and
* the large-scale propagation benchmarks.

The latency-aware driver that runs the same rounds as events over the
discrete-event transport is :class:`repro.sim.harness.ScenarioHarness` (also
behind the :class:`repro.core.simulation.RGBSimulation` facade); both share
the kernel's round state machine (drain, circulation, notification/ack
routing, seen-set dedup, batched delta application).

Execution model
---------------
Membership changes are captured at access proxies and inserted into their
message queues.  :meth:`OneRoundEngine.propagate` then repeatedly runs token
rounds (Figure 3) in every ring that has pending work until all queues drain:

1. the round holder drains its queue into the token's aggregated operations;
2. the token visits every ring member in circulation order; each member
   executes the operations against its member lists and sets ``RingOK``;
3. when the visiting member is the ring leader and ``ParentOK`` holds, the
   operations are inserted into the parent node's queue
   (Notification-to-Parent), which is how changes climb the hierarchy;
4. members that are parents of child rings insert the operations into the
   child leaders' queues (Notification-to-Child) when downward dissemination
   is enabled;
5. when the token returns to the holder, Holder-Acknowledgements are sent to
   the children whose notifications the holder aggregated, and control of a
   fresh token passes to the holder's next neighbour.

Every ring processes a given operation at most once (notification insertion
is filtered against the target ring's seen-set), which is what the paper's
"at most one membership change message propagated along a ring" consistency
argument and its hop-count model both assume.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import ProtocolConfig
from repro.core.entity import NetworkEntityState
from repro.core.events import MembershipEventBus
from repro.core.hierarchy import RingHierarchy
from repro.core.identifiers import GloballyUniqueId, NodeId
from repro.core.kernel import (
    PropagationReport,
    ProtocolError,
    RoundResult,
    create_kernel,
)
from repro.core.member import MemberInfo
from repro.core.token import TokenOperation
from repro.sim.stats import MetricRegistry
from repro.sim.trace import TraceRecorder

__all__ = [
    "OneRoundEngine",
    "PropagationReport",
    "ProtocolError",
    "RoundResult",
]


def _captured(
    op: Optional[TokenOperation],
    change: str,
    guid: "GloballyUniqueId | str",
    ap: "NodeId | str",
) -> TokenOperation:
    """The engine's contract: a change the kernel skips is an error."""
    if op is None:
        raise ProtocolError(
            f"cannot capture the {change} of {guid} at {ap}: the proxy has failed or "
            "is not in the hierarchy, or the member is already there"
        )
    return op


class OneRoundEngine:
    """Reference execution of the RGB membership protocol.

    A thin structural driver: application-facing capture operations plus
    synchronous stepping of the shared :class:`TokenRoundKernel`.

    Parameters
    ----------
    hierarchy:
        The ring-based hierarchy to run over.  The engine mutates it when it
        repairs rings after entity failures.
    config:
        Protocol tunables.
    metrics, event_bus, trace:
        Optional shared instrumentation.
    backend:
        Kernel implementation: ``"object"`` (the reference kernel) or
        ``"columnar"`` (the struct-of-arrays backend in
        :mod:`repro.core.columnar`; identical protocol state, large-scale
        propagation speedup).
    """

    def __init__(
        self,
        hierarchy: RingHierarchy,
        config: Optional[ProtocolConfig] = None,
        metrics: Optional[MetricRegistry] = None,
        event_bus: Optional[MembershipEventBus] = None,
        trace: Optional[TraceRecorder] = None,
        backend: str = "object",
    ) -> None:
        self.kernel = create_kernel(
            hierarchy,
            backend=backend,
            config=config,
            metrics=metrics,
            event_bus=event_bus,
            trace=trace,
        )
        self.hierarchy = hierarchy

    # -- shared instrumentation (kernel-owned) -----------------------------------

    @property
    def config(self) -> ProtocolConfig:
        return self.kernel.config

    @property
    def metrics(self) -> MetricRegistry:
        return self.kernel.metrics

    @property
    def event_bus(self) -> MembershipEventBus:
        return self.kernel.event_bus

    @property
    def trace(self) -> TraceRecorder:
        return self.kernel.trace

    @property
    def entities(self) -> Dict[NodeId, NetworkEntityState]:
        return self.kernel.entities

    # ------------------------------------------------------------------
    # entity access
    # ------------------------------------------------------------------

    def entity(self, node: "NodeId | str") -> NetworkEntityState:
        return self.kernel.entity(node)

    def is_operational(self, node: "NodeId | str") -> bool:
        return self.kernel.is_operational(node)

    def operational_entities(self) -> List[NodeId]:
        return self.kernel.operational_entities()

    def global_membership(self) -> List[MemberInfo]:
        """The global member list as maintained at the topmost ring leader."""
        top = self.hierarchy.topmost_ring()
        leader = top.leader
        if leader is None:
            raise ProtocolError("topmost ring has no leader")
        return self.entity(leader).ring_members.members()

    def global_guids(self) -> List[str]:
        return [str(m.guid) for m in self.global_membership()]

    def ring_agreement(self, ring_id: str) -> bool:
        """True when every operational member of the ring has the same view."""
        ring = self.hierarchy.ring(ring_id)
        views = [
            self.entity(node).ring_members
            for node in ring.members
            if node not in self.kernel.failed
        ]
        if len(views) <= 1:
            return True
        first = views[0]
        return all(first.agrees_with(view) for view in views[1:])

    # ------------------------------------------------------------------
    # capture of membership changes (what access proxies do)
    # ------------------------------------------------------------------

    def member_join(
        self, ap: "NodeId | str", guid: "GloballyUniqueId | str", now: float = 0.0
    ) -> TokenOperation:
        """A mobile host joins the group at access proxy ``ap``."""
        return _captured(self.kernel.join(ap, guid, now=now), "join", guid, ap)

    def member_leave(
        self, ap: "NodeId | str", guid: "GloballyUniqueId | str", now: float = 0.0
    ) -> TokenOperation:
        """A mobile host voluntarily leaves the group."""
        return _captured(self.kernel.leave(guid, ap, now=now), "leave", guid, ap)

    # ------------------------------------------------------------------
    # entity failure and repair
    # ------------------------------------------------------------------

    def fail_entity(self, node: "NodeId | str", now: float = 0.0) -> None:
        """Mark a network entity as crashed (lazy detection; see the kernel)."""
        self.kernel.fail_entity(node, now)

    def detect_and_repair(self, node: "NodeId | str", now: float = 0.0) -> List[TokenOperation]:
        """Immediately detect a failed entity and repair its ring."""
        return self.kernel.detect_and_repair(node, now)

    # ------------------------------------------------------------------
    # round execution and propagation (kernel-stepped)
    # ------------------------------------------------------------------

    def run_round(
        self,
        ring_id: str,
        holder: Optional["NodeId | str"] = None,
        now: float = 0.0,
    ) -> RoundResult:
        """Run one token round in ``ring_id`` (Figure 3)."""
        return self.kernel.run_round(ring_id, holder=holder, now=now)

    def pending_rings(self) -> List[str]:
        """Rings that currently have at least one queued operation."""
        return self.kernel.pending_rings()

    def propagate(self, now: float = 0.0, max_iterations: int = 10_000) -> PropagationReport:
        """Run token rounds until every message queue is empty."""
        return self.kernel.propagate(now=now, max_iterations=max_iterations)

    # ------------------------------------------------------------------
    # convenience wrappers used by examples and the facade
    # ------------------------------------------------------------------
