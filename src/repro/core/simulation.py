"""The :class:`RGBSimulation` facade — topology + hierarchy + protocol in one object.

This is the public entry point a downstream user starts from::

    from repro import RGBSimulation, SimulationConfig

    sim = RGBSimulation(SimulationConfig(num_aps=25, ring_size=5, seed=7))
    sim.build()
    member = sim.join_member(ap_index=0)
    sim.run_until_quiescent()
    assert member.guid in sim.global_membership()

The facade:

* generates a 4-tier mobile Internet topology big enough for the requested
  number of access proxies,
* assembles the ring-based hierarchy over the participating proxies,
* runs the protocol on one lossless :class:`repro.sim.harness.ScenarioHarness`
  — the event-driven driver every scenario, golden trace and benchmark
  workload runs on — capturing each operation at the current simulated time,
* exposes the application-facing membership operations (join, leave, handoff,
  member failure, entity crash), membership queries, fast-handoff statistics,
  partition assessment and the collected metrics.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List, Optional

from repro.core.config import SimulationConfig
from repro.core.handoff import HandoffManager, HandoffRecord
from repro.core.hierarchy import HierarchyBuilder, RingHierarchy
from repro.core.identifiers import NodeId, coerce_node
from repro.core.kernel import TokenRoundKernel
from repro.core.member import MemberInfo
from repro.core.membership import MembershipEvent, MembershipView
from repro.core.partition import PartitionReport
from repro.core.query import MembershipQueryService, MembershipScheme, QueryResult
from repro.core.ring import LogicalRing
from repro.sim.engine import SimulationEngine
from repro.sim.harness import HarnessConfig, HarnessResult, ScenarioHarness
from repro.sim.mobility import AttachmentEvent, HandoffEvent, MobilityModel, MobilityTrace
from repro.sim.rng import RandomStreams
from repro.sim.stats import MetricRegistry
from repro.topology.architecture import TopologySpec
from repro.topology.generator import GeneratedTopology, TopologyGenerator


class SimulationNotBuilt(RuntimeError):
    """Raised when the facade is used before :meth:`RGBSimulation.build`."""


class RGBSimulation:
    """End-to-end packaged simulation of the RGB protocol."""

    def __init__(self, config: Optional[SimulationConfig] = None) -> None:
        self.config = config if config is not None else SimulationConfig()
        self.streams = RandomStreams(self.config.seed)
        self.topology: Optional[GeneratedTopology] = None
        self.hierarchy: Optional[RingHierarchy] = None
        self.harness: Optional[ScenarioHarness] = None
        self._handoffs: Optional[HandoffManager] = None
        self._member_counter = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def build(self) -> "RGBSimulation":
        """Generate topology, assemble the hierarchy and start the protocol."""
        cfg = self.config
        r = cfg.ring_size
        spec = TopologySpec(
            num_border_routers=max(1, math.ceil(cfg.num_aps / (r * r))),
            ags_per_br=r,
            aps_per_ag=r,
            hosts_per_ap=0,  # hosts are attached through join_member below
        )
        self.topology = TopologyGenerator(spec, self.streams).generate()
        participating = sorted(self.topology.architecture.access_proxies)[: cfg.num_aps]
        self.hierarchy = HierarchyBuilder(cfg.group_id).from_topology(
            self.topology, access_proxies=participating
        )
        self.harness = ScenarioHarness(
            HarnessConfig(seed=cfg.seed, protocol=cfg.protocol, trace_enabled=cfg.trace_enabled),
            hierarchy=self.hierarchy,
        )
        self._handoffs = HandoffManager(self.harness.kernel)

        # Pre-attach the configured number of hosts per access proxy.
        if cfg.hosts_per_ap > 0:
            for ap in self.access_proxies():
                for _ in range(cfg.hosts_per_ap):
                    self.join_member(ap_id=ap)
            self.run_until_quiescent()
        return self

    def _built(self) -> ScenarioHarness:
        if self.harness is None:
            raise SimulationNotBuilt("call RGBSimulation.build() before using the simulation")
        return self.harness

    # ------------------------------------------------------------------
    # structural information
    # ------------------------------------------------------------------

    @property
    def kernel(self) -> TokenRoundKernel:
        """The token-round kernel the harness drives."""
        return self._built().kernel

    @property
    def engine(self) -> SimulationEngine:
        return self._built().engine

    @property
    def metrics(self) -> MetricRegistry:
        return self._built().metrics

    @property
    def now(self) -> float:
        return self.engine.now

    def access_proxies(self) -> List[str]:
        return self._built().access_proxies()

    def ring_of(self, node_id: str) -> LogicalRing:
        return self._built().hierarchy.ring_of(node_id)

    # ------------------------------------------------------------------
    # membership operations (captured now; run_until_quiescent propagates)
    # ------------------------------------------------------------------

    def _pick_ap(self, ap_index: Optional[int], ap_id: Optional[str]) -> NodeId:
        aps = self.access_proxies()
        if ap_id is not None:
            if ap_id not in aps:
                raise ValueError(f"{ap_id!r} is not a participating access proxy")
            return coerce_node(ap_id)
        index = 0 if ap_index is None else ap_index
        if not 0 <= index < len(aps):
            raise ValueError(f"ap_index {index} out of range (have {len(aps)} proxies)")
        return coerce_node(aps[index])

    def _known_member(self, guid: str) -> str:
        key = str(guid)
        if self._built().member_location(key) is None:
            raise ValueError(f"unknown member {guid!r}")
        return key

    def join_member(
        self,
        ap_index: Optional[int] = None,
        ap_id: Optional[str] = None,
        guid: Optional[str] = None,
    ) -> Optional[MemberInfo]:
        """Join a new mobile host at an access proxy; returns its member record
        (``None`` when the proxy has crashed and the capture is skipped)."""
        harness = self._built()
        ap = self._pick_ap(ap_index, ap_id)
        if guid is None:
            guid = f"member-{self._member_counter:06d}"
            self._member_counter += 1
        return harness.capture_join(ap, str(guid))

    def join_members(
        self,
        count: int,
        ap_ids: Optional[List[str]] = None,
        guid_prefix: str = "member",
    ) -> List[MemberInfo]:
        """Capture ``count`` joins before a single propagation (batched path).

        The joins are spread round-robin over ``ap_ids`` (all participating
        proxies by default) and left in the access proxies' message queues, so
        one :meth:`run_until_quiescent` call aggregates them into shared token
        rounds instead of propagating each join individually.
        """
        self._built()
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        aps = ap_ids if ap_ids is not None else self.access_proxies()
        if not aps:
            raise ValueError("no access proxies to join at")
        members: List[MemberInfo] = []
        for index in range(count):
            guid = f"{guid_prefix}-{self._member_counter:06d}"
            self._member_counter += 1
            members.append(self.join_member(ap_id=aps[index % len(aps)], guid=guid))
        return members

    def leave_member(self, guid: str) -> None:
        """The named member voluntarily leaves the group."""
        self._built().capture_leave(self._known_member(guid))

    def fail_member(self, guid: str) -> None:
        """The named member is detected faulty by its access proxy."""
        self._built().capture_member_failure(self._known_member(guid))

    def handoff_member(self, guid: str, to_ap: str) -> HandoffRecord:
        """Move the named member to another participating access proxy."""
        harness = self._built()
        key = self._known_member(guid)
        target = self._pick_ap(None, to_ap)
        assert self._handoffs is not None
        record = self._handoffs.classify(
            key, harness.member_location(key), target, now=self.now
        )
        harness.capture_handoff(key, target)
        return record

    def crash_entity(self, node_id: str) -> None:
        """Crash a network entity (access proxy, gateway or border router) now.

        The ring's next token round — or, without traffic, the harness's
        crash-detection probe round — detects it and repairs the ring.
        """
        harness = self._built()
        if not harness.hierarchy.has_node(node_id):
            raise ValueError(f"{node_id!r} is not an entity of the hierarchy")
        harness.schedule_crash(self.now, node_id)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run_until_quiescent(self, max_time: Optional[float] = None) -> HarnessResult:
        """Propagate every pending change (and repair every crash) to quiescence."""
        return self._built().run(until=max_time)

    def apply_mobility_trace(self, trace: MobilityTrace) -> Dict[str, int]:
        """Replay a mobility trace as join / handoff / leave operations."""
        self._built()
        counts = {"joins": 0, "handoffs": 0, "leaves": 0, "skipped": 0}
        for event in trace.all_events():
            if isinstance(event, AttachmentEvent):
                if event.attach:
                    self.join_member(ap_id=self._nearest_participating(event.ap_id), guid=event.host_id)
                    counts["joins"] += 1
                else:
                    try:
                        self.leave_member(event.host_id)
                        counts["leaves"] += 1
                    except ValueError:
                        counts["skipped"] += 1
            elif isinstance(event, HandoffEvent):
                try:
                    self.handoff_member(event.host_id, self._nearest_participating(event.to_ap))
                    counts["handoffs"] += 1
                except ValueError:
                    counts["skipped"] += 1
            self.run_until_quiescent()
        return counts

    def _nearest_participating(self, ap_id: str) -> str:
        aps = self.access_proxies()
        if ap_id in aps:
            return ap_id
        # Deterministic fallback: map the requested id onto a participating
        # proxy with a stable hash (``hash`` of a str is salted per process).
        return aps[zlib.crc32(ap_id.encode()) % len(aps)]

    def default_mobility_model(
        self, mean_residency: float = 200.0, mean_session: float = 2000.0
    ) -> MobilityModel:
        """A mobility model over the participating proxies with ring neighbourhoods."""
        neighbor_map = {}
        for ap in self.access_proxies():
            ring = self.ring_of(ap)
            neighbor_map[ap] = [str(n) for n in ring.members if str(n) != ap]
        return MobilityModel(
            ap_ids=self.access_proxies(),
            streams=self.streams,
            neighbor_map=neighbor_map,
            mean_residency=mean_residency,
            mean_session=mean_session,
        )

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def _top_leader(self) -> NodeId:
        leader = self._built().hierarchy.topmost_ring().leader
        assert leader is not None
        return leader

    def global_membership(self) -> MembershipView:
        """The global membership view maintained at the topmost ring leader."""
        return self.kernel.entity(self._top_leader()).ring_members.copy("global")

    def membership_events(self) -> List[MembershipEvent]:
        """Events observed at the topmost ring leader (the canonical stream)."""
        leader = self._top_leader()
        return [e for e in self._built().event_bus.history if e.observer == leader]

    def query(self, scheme: MembershipScheme = MembershipScheme.TMS) -> QueryResult:
        """Run a membership query under the given maintenance scheme."""
        return MembershipQueryService(self.kernel).query(scheme)

    def handoff_statistics(self) -> Dict[str, float]:
        self._built()
        assert self._handoffs is not None
        return self._handoffs.summary()

    def partition_report(self) -> PartitionReport:
        """Assess the current partitioning of the hierarchy."""
        return self._built().partition_report()

    def metric_snapshot(self) -> Dict[str, object]:
        return self.metrics.snapshot()
