"""The protocol-agnostic membership driver interface (the ablation seam).

The paper's headline claim (Section 5, Table I) is comparative: the ring-based
hierarchy against a flat token ring and a tree hierarchy, with SWIM-style
gossip as the modern comparator.  Before this module each baseline was a
standalone toy with its own accounting; :class:`MembershipProtocol` is the
single driver seam the scenario matrix (:mod:`repro.workloads.matrix`) and the
ablation benchmark (``benchmarks/run_bench.py --ablation``) use to drive *any*
of the four protocols through the *same* workload trace:

* **propagate** — ``join`` / ``leave`` / ``handoff`` apply one membership
  change and return a :class:`ChangeReport` with the paper's cost quantities
  (hops, on-the-wire messages, rounds, retransmissions);
* **fail** — ``fail_site`` crashes a capture site: the site is excluded and
  the members attached there are failure-propagated, exactly like the RGB
  kernel's ring-repair failure operations, so every protocol converges to the
  same surviving membership;
* **converge-check** — ``global_agreement`` asks whether every operational
  site holds the same view, and ``members`` returns the agreed membership;
* **cost report** — :class:`CostTotals` accumulates the per-change reports
  for the head-to-head tables.

All event gating (duplicate joins, departures of unknown members, captures at
crashed sites) lives in :class:`BaseProtocolDriver`, **not** in the adapters:
every protocol skips exactly the same workload events, which is what makes the
cross-protocol membership-equality property hold.

Adapters:

* :class:`RGBRingProtocol` — the event-driven
  :class:`repro.sim.harness.ScenarioHarness` (kernel rounds over the lossy
  transport); costs come from kernel/transport counter deltas.
* :class:`FlatRingProtocol` — :class:`repro.baselines.flat_ring.FlatRingMembership`.
* :class:`GossipProtocol` — :class:`repro.baselines.gossip.GossipMembership`.
* :class:`TreeProtocol` — :class:`repro.baselines.tree_membership.TreeMembershipProtocol`
  over a CONGRESS-style :class:`repro.baselines.tree_hierarchy.TreeHierarchy`
  with representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.baselines.flat_ring import FlatRingMembership
from repro.baselines.gossip import GossipMembership
from repro.baselines.tree_hierarchy import TreeHierarchy
from repro.baselines.tree_membership import TreeMembershipProtocol

#: Protocols the ablation matrix can drive.
PROTOCOL_NAMES: Tuple[str, ...] = ("rgb", "flat_ring", "gossip", "tree")


def ring_shape_for_proxies(num_proxies: int) -> Tuple[int, int]:
    """``(ring_size, height)`` of the regular RGB hierarchy with ``num_proxies`` APs.

    Prefers the shallowest hierarchy whose ring size stays within the paper's
    practical range (2–16): 1 000 → (10, 3), 10 000 → (10, 4),
    100 000 → (10, 5); small test sizes like 16 → (4, 2) also resolve.
    """
    for height in range(2, 7):
        base = round(num_proxies ** (1.0 / height))
        for ring_size in (base - 1, base, base + 1):
            if 2 <= ring_size <= 16 and ring_size**height == num_proxies:
                return ring_size, height
    raise ValueError(
        f"no regular hierarchy shape with 2 <= r <= 16 yields {num_proxies} proxies"
    )


def tree_shape_for_leaves(num_leaves: int) -> Tuple[int, int]:
    """``(branching, height)`` of the regular tree with ``num_leaves`` LMSs.

    The paper's tree has ``n = r**(h-1)`` leaves with ``h >= 3``:
    1 000 → (10, 4), 10 000 → (10, 5); 16 → (4, 3).
    """
    for height in range(3, 8):
        base = round(num_leaves ** (1.0 / (height - 1)))
        for branching in (base - 1, base, base + 1):
            if 2 <= branching <= 16 and branching ** (height - 1) == num_leaves:
                return branching, height
    raise ValueError(
        f"no regular tree shape with 2 <= r <= 16 yields {num_leaves} leaf servers"
    )


@dataclass(frozen=True)
class ChangeReport:
    """Per-change cost report, in the paper's Section 5.1 quantities."""

    protocol: str
    kind: str  # join / leave / handoff / fail_site / skipped
    hops: int = 0
    messages: int = 0
    rounds: int = 0
    retransmissions: int = 0
    applied: bool = True


@dataclass
class CostTotals:
    """Cumulative cost accounting across one driven scenario."""

    changes: int = 0
    skipped: int = 0
    hops: int = 0
    messages: int = 0
    rounds: int = 0
    retransmissions: int = 0
    site_failures: int = 0
    injections: int = 0

    def add(self, report: ChangeReport) -> None:
        if not report.applied:
            self.skipped += 1
            return
        if report.kind in ("inject_duplicate", "inject_stale"):
            # Replayed messages are adversarial wire traffic, not membership
            # changes: their cost accumulates (the protocol really pays it)
            # but they must not dilute the per-change denominators.
            self.injections += 1
        else:
            self.changes += 1
        self.hops += report.hops
        self.messages += report.messages
        self.rounds += report.rounds
        self.retransmissions += report.retransmissions
        if report.kind in ("fail_site", "fail_internal"):
            self.site_failures += 1

    def per_change(self, quantity: int) -> float:
        return quantity / self.changes if self.changes else 0.0

    def as_values(self) -> Dict[str, float]:
        """Flat value dict for :class:`repro.sim.stats.RunRecord`."""
        return {
            "changes": float(self.changes),
            "skipped_events": float(self.skipped),
            "hops": float(self.hops),
            "messages": float(self.messages),
            "rounds": float(self.rounds),
            "retransmissions": float(self.retransmissions),
            "site_failures": float(self.site_failures),
            "injections": float(self.injections),
            "hops_per_change": self.per_change(self.hops),
            "messages_per_change": self.per_change(self.messages),
            "rounds_per_change": self.per_change(self.rounds),
        }


class BaseProtocolDriver:
    """Shared gating, attachment tracking and cost accumulation.

    Subclasses implement only the ``_propagate_*`` / ``_crash_site`` hooks;
    every decision about *whether* an event applies is made here so all
    protocols replay a workload trace identically.
    """

    name: str = "abstract"

    def __init__(self, sites: Sequence[str]) -> None:
        if not sites:
            raise ValueError("a membership protocol needs at least one capture site")
        self._sites: List[str] = list(sites)
        self._attachment: Dict[str, str] = {}
        self._failed_sites: Set[str] = set()
        # First and most recent applied propagation per member, as
        # (site, join?) message records — what a replay adversary re-delivers.
        self._first_op: Dict[str, Tuple[str, bool]] = {}
        self._last_op: Dict[str, Tuple[str, bool]] = {}
        self.totals = CostTotals()

    # -- structure ----------------------------------------------------------

    @property
    def sites(self) -> List[str]:
        """Capture sites (access proxies / leaf servers), in index order."""
        return list(self._sites)

    @property
    def attachment(self) -> Dict[str, str]:
        return dict(self._attachment)

    # -- the driver interface -----------------------------------------------

    def join(self, site: str, member: str) -> ChangeReport:
        if site in self._failed_sites or member in self._attachment:
            return self._skip("join")
        report = self._finish("join", self._propagate_join(site, member))
        self._attachment[member] = site
        self._record_op(member, site, True)
        return report

    def leave(self, member: str) -> ChangeReport:
        site = self._attachment.get(member)
        if site is None:
            return self._skip("leave")
        report = self._finish("leave", self._propagate_leave(site, member))
        del self._attachment[member]
        self._record_op(member, site, False)
        return report

    def handoff(self, member: str, to_site: str) -> ChangeReport:
        from_site = self._attachment.get(member)
        if from_site is None or to_site in self._failed_sites or to_site == from_site:
            return self._skip("handoff")
        report = self._finish("handoff", self._propagate_handoff(member, from_site, to_site))
        self._attachment[member] = to_site
        self._record_op(member, to_site, True)
        return report

    def fail_site(self, site: str) -> ChangeReport:
        if site not in self._sites or site in self._failed_sites:
            return self._skip("fail_site")
        if len(self._failed_sites) + 1 >= len(self._sites):
            return self._skip("fail_site")  # never crash the last site
        orphans = sorted(m for m, s in self._attachment.items() if s == site)
        self._failed_sites.add(site)
        report = self._finish("fail_site", self._crash_site(site, orphans))
        for member in orphans:
            del self._attachment[member]
        return report

    def fail_internal(self, site: str, tier: int) -> ChangeReport:
        """Crash the tier-``tier`` ancestor of capture site ``site``.

        Only protocols with an internal hierarchy (RGB's ring tiers, the
        tree's interior servers) can express this; the flat ring and gossip
        have no such node, so the base implementation *skips* — counted in
        the totals, never silently dropped — and the crash reaches those
        protocols only through the tier-1 (AP-level) events of the same
        fault script.
        """
        return self._skip("fail_internal")

    # -- adversarial message replay ------------------------------------------

    def inject_duplicate(self, member: str) -> ChangeReport:
        """Re-deliver the most recent propagated message about ``member``."""
        record = self._last_op.get(member)
        if record is None:
            return self._skip("inject_duplicate")
        site, join = record
        return self._finish(
            "inject_duplicate", self._replay_message(site, member, join, stale=False)
        )

    def inject_stale(self, member: str) -> ChangeReport:
        """Re-deliver the *first* propagated message about ``member``.

        For a member that has since departed this is its original join
        arriving late — the resurrection hazard the RGB kernel's sequence
        watermark absorbs and the toy baselines do not.
        """
        record = self._first_op.get(member)
        if record is None:
            return self._skip("inject_stale")
        site, join = record
        return self._finish(
            "inject_stale", self._replay_message(site, member, join, stale=True)
        )

    def _record_op(self, member: str, site: str, join: bool) -> None:
        self._first_op.setdefault(member, (site, join))
        self._last_op[member] = (site, join)

    # -- converge-check ------------------------------------------------------

    def members(self) -> Set[str]:
        """The agreed membership, read at the first operational site."""
        raise NotImplementedError

    def global_agreement(self) -> bool:
        """Every operational site holds the same membership view."""
        raise NotImplementedError

    # -- propagation hooks (cost tuples: hops, messages, rounds, retrans) ----

    def _propagate_join(self, site: str, member: str) -> Tuple[int, int, int, int]:
        raise NotImplementedError

    def _propagate_leave(self, site: str, member: str) -> Tuple[int, int, int, int]:
        raise NotImplementedError

    def _propagate_handoff(
        self, member: str, from_site: str, to_site: str
    ) -> Tuple[int, int, int, int]:
        raise NotImplementedError

    def _crash_site(self, site: str, orphans: List[str]) -> Tuple[int, int, int, int]:
        raise NotImplementedError

    def _replay_message(
        self, site: str, member: str, join: bool, stale: bool
    ) -> Tuple[int, int, int, int]:
        """Deliver a replayed message, bypassing the workload gating.

        A replayed message is wire traffic, not a workload event: it must not
        touch the attachment bookkeeping, and it deliberately skips the
        duplicate/departed gating — that gating models the *capture* path,
        while a replay arrives on the *propagation* path.
        """
        raise NotImplementedError

    # -- bookkeeping ---------------------------------------------------------

    def _skip(self, kind: str) -> ChangeReport:
        report = ChangeReport(protocol=self.name, kind=kind, applied=False)
        self.totals.add(report)
        return report

    def _finish(self, kind: str, cost: Tuple[int, int, int, int]) -> ChangeReport:
        hops, messages, rounds, retrans = cost
        report = ChangeReport(
            protocol=self.name,
            kind=kind,
            hops=hops,
            messages=messages,
            rounds=rounds,
            retransmissions=retrans,
        )
        self.totals.add(report)
        return report

    def _survivor_site(self) -> str:
        for site in self._sites:
            if site not in self._failed_sites:
                return site
        raise RuntimeError(f"{self.name}: no operational site left")


class _ToyProtocol(BaseProtocolDriver):
    """A toy baseline: every change, departure and replay is one run of its
    propagation primitive :meth:`_one`."""

    def _one(self, site: str, member: str, join: bool) -> Tuple[int, int, int, int]:
        raise NotImplementedError

    def _crash(self, site: str) -> None:
        """Mark ``site`` failed in the underlying toy."""
        raise NotImplementedError

    def _propagate_join(self, site, member):
        return self._one(site, member, True)

    def _propagate_leave(self, site, member):
        return self._one(site, member, False)

    def _propagate_handoff(self, member, from_site, to_site):
        # The member set does not change, but the new location must still be
        # disseminated to every site.
        return self._one(to_site, member, True)

    def _crash_site(self, site, orphans):
        self._crash(site)
        return self._depart(orphans)

    def _depart(self, orphans: List[str]) -> Tuple[int, int, int, int]:
        """Failure-propagate ``orphans`` from a survivor; their summed cost."""
        hops = messages = rounds = retrans = 0
        origin = self._survivor_site()
        for member in orphans:
            h, m, r, x = self._one(origin, member, False)
            hops, messages, rounds, retrans = hops + h, messages + m, rounds + r, retrans + x
        return hops, messages, rounds, retrans

    def _replay_message(self, site, member, join, stale):
        # Re-running the propagation primitive is exactly why a stale join of
        # a departed member resurrects it in every toy; the RGB adapter
        # injects at the harness dispatch seam instead, where the kernel's
        # sequence watermark drops the replayed operation.
        if site in self._failed_sites:
            site = self._survivor_site()
        return self._one(site, member, join)


class FlatRingProtocol(_ToyProtocol):
    """All access proxies in one Totem-style token ring."""

    name = "flat_ring"

    def __init__(self, num_sites: int, loss: float = 0.0, seed: int = 0) -> None:
        sites = [f"site-{i:05d}" for i in range(num_sites)]
        super().__init__(sites)
        self.ring = FlatRingMembership(sites, loss=loss, seed=seed)

    def _one(self, site: str, member: str, join: bool) -> Tuple[int, int, int, int]:
        report = self.ring.propagate_change(site, member, join=join)
        return report.hops, report.messages, 1, report.retransmissions

    def _crash(self, site):
        self.ring.fail_proxy(site)

    def members(self) -> Set[str]:
        return self.ring.membership_at(self._survivor_site())

    def global_agreement(self) -> bool:
        return self.ring.global_agreement()


class GossipProtocol(_ToyProtocol):
    """SWIM-style push gossip over the same proxy population."""

    name = "gossip"

    def __init__(
        self,
        num_sites: int,
        loss: float = 0.0,
        seed: int = 0,
        fanout: int = 2,
        max_rounds: int = 200,
    ) -> None:
        sites = [f"site-{i:05d}" for i in range(num_sites)]
        super().__init__(sites)
        self.gossip = GossipMembership(
            sites, fanout=fanout, seed=seed, max_rounds=max_rounds, loss=loss
        )

    def _one(self, site: str, member: str, join: bool) -> Tuple[int, int, int, int]:
        report = self.gossip.propagate_change(site, member, join=join)
        return 0, report.messages, report.rounds, report.wasted_messages

    def _crash(self, site):
        self.gossip.fail_proxy(site)

    def members(self) -> Set[str]:
        return self.gossip.membership_at(self._survivor_site())

    def global_agreement(self) -> bool:
        return self.gossip.global_agreement()


class TreeProtocol(_ToyProtocol):
    """CONGRESS-style tree of membership servers (with representatives)."""

    name = "tree"

    def __init__(
        self,
        num_sites: int,
        loss: float = 0.0,
        seed: int = 0,
        with_representatives: bool = True,
    ) -> None:
        branching, height = tree_shape_for_leaves(num_sites)
        self.tree = TreeHierarchy.regular(
            height=height, branching=branching, with_representatives=with_representatives
        )
        leaves = [leaf.node_id for leaf in self.tree.leaves()]
        super().__init__(leaves)
        self.protocol = TreeMembershipProtocol(self.tree, loss=loss, seed=seed)

    def _one(self, site: str, member: str, join: bool) -> Tuple[int, int, int, int]:
        report = self.protocol.propagate_change(site, member, join=join)
        return report.physical_hops, report.messages, 1, report.retransmissions

    def _crash(self, site):
        self.protocol.fail_server(self.tree.nodes[site].server)

    def fail_internal(self, site: str, tier: int) -> ChangeReport:
        """Crash the interior server ``tier - 1`` levels above leaf ``site``.

        With representatives the interior node is *played by* a descendant
        leaf's physical server, so that leaf (and any other leaf on the same
        server) dies with it; its orphans are failure-propagated from a
        survivor.  Propagation then stalls below the dead interior server —
        the subtree keeps stale views and ``global_agreement`` goes false,
        the tree-hierarchy weakness the paper's Section 5.2 exploits.
        """
        if site not in self._sites or site in self._failed_sites:
            return self._skip("fail_internal")
        chain = self.tree.path_to_root(site)
        if tier < 2 or tier - 2 >= len(chain):
            return self._skip("fail_internal")
        server = self.tree.nodes[chain[tier - 2]].server
        if server in self.protocol._failed_servers:
            return self._skip("fail_internal")
        victims = {
            leaf.node_id
            for leaf in self.tree.leaves()
            if leaf.server == server and leaf.node_id not in self._failed_sites
        }
        if len(self._failed_sites) + len(victims) >= len(self._sites):
            return self._skip("fail_internal")  # never kill the last site
        self.protocol.fail_server(server)
        orphans = sorted(m for m, s in self._attachment.items() if s in victims)
        self._failed_sites.update(victims)
        cost = self._depart(orphans)
        for member in orphans:
            del self._attachment[member]
        return self._finish("fail_internal", cost)

    def _survivor_site(self) -> str:
        failed_servers = self.protocol._failed_servers
        for site in self._sites:
            if site not in self._failed_sites and self.tree.nodes[site].server not in failed_servers:
                return site
        raise RuntimeError("tree: no operational leaf left")

    def members(self) -> Set[str]:
        return self.protocol.membership_at(self.tree.nodes[self._survivor_site()].server)

    def global_agreement(self) -> bool:
        return self.protocol.global_agreement()


class RGBRingProtocol(BaseProtocolDriver):
    """The RGB kernel behind the driver seam, via the event-driven harness.

    Every change is captured at its simulated time and the engine runs to
    quiescence before the next one, so per-change costs are well-defined;
    they are measured as deltas of the kernel/transport counters
    (``hops.token`` + ``hops.notify`` for the paper's HopCount,
    ``rounds.completed`` for token rounds).  Messages are the transport's
    ``transport.sent`` (notifications) plus the token hops and
    Holder-Acknowledgements the kernel counts (``hops.token``,
    ``messages.holder_ack``): those change no receiver's state, so they
    never reach the transport, but the paper's message cost includes them.
    """

    name = "rgb"

    def __init__(self, num_sites: int, loss: float = 0.0, seed: int = 0) -> None:
        # Imported lazily so `import repro.baselines` does not require the
        # full sim stack at module-import time for the toy baselines.
        from repro.sim.harness import HarnessConfig, ScenarioHarness

        ring_size, height = ring_shape_for_proxies(num_sites)
        # record_sends lets the replay-injection scenarios re-deliver real
        # dispatched messages; recording alone never changes behaviour.
        self.harness = ScenarioHarness(
            HarnessConfig(
                ring_size=ring_size, height=height, seed=seed, loss=loss, record_sends=True
            )
        )
        super().__init__(self.harness.access_proxies())

    # -- counter-delta plumbing ---------------------------------------------

    def _snapshot(self) -> Dict[str, int]:
        return self.harness.counter_values()

    def _delta(self, before: Dict[str, int]) -> Tuple[int, int, int, int]:
        after = self.harness.counter_values()

        def diff(name: str) -> int:
            return after.get(name, 0) - before.get(name, 0)

        hops = diff("hops.token") + diff("hops.notify")
        messages = (
            diff("transport.sent") + diff("hops.token") + diff("messages.holder_ack")
        )
        rounds = diff("rounds.completed")
        return hops, messages, rounds, diff("harness.notify_resends")

    def _drive(self, schedule) -> Tuple[int, int, int, int]:
        before = self._snapshot()
        schedule(self.harness.engine.now)
        self.harness.run()
        return self._delta(before)

    # -- propagation hooks ---------------------------------------------------

    def _propagate_join(self, site, member):
        return self._drive(lambda now: self.harness.schedule_join(now, site, guid=member))

    def _propagate_leave(self, site, member):
        return self._drive(lambda now: self.harness.schedule_leave(now, member))

    def _propagate_handoff(self, member, from_site, to_site):
        return self._drive(lambda now: self.harness.schedule_handoff(now, member, to_site))

    def _crash_site(self, site, orphans):
        # The kernel's own repair discovers the crash, excises the entity and
        # failure-propagates the members attached there — no synthetic leaves.
        return self._drive(lambda now: self.harness.schedule_crash(now, site))

    def fail_internal(self, site: str, tier: int) -> ChangeReport:
        """Crash the tier-``tier`` ring ancestor of access proxy ``site``.

        The interior entity is a first-class ring member here, so the crash
        goes through the same fault injector as an AP crash and the kernel's
        repair surgery excises it, failure-propagates the members aggregated
        beneath it and re-attaches the orphaned subtree.
        """
        if site not in self._sites:
            return self._skip("fail_internal")
        chain = self.harness.hierarchy.ancestry(site)
        if tier < 2 or tier - 2 >= len(chain):
            return self._skip("fail_internal")
        node = chain[tier - 2]
        if node in self.harness.kernel.failed:
            return self._skip("fail_internal")
        return self._finish(
            "fail_internal",
            self._drive(lambda now: self.harness.schedule_crash(now, str(node))),
        )

    def _replay_message(self, site, member, join, stale):
        # Injected at the dispatch seam: the harness re-transmits the
        # recorded notification and the kernel's sequence watermark decides.
        kind = "stale" if stale else "duplicate"
        return self._drive(
            lambda now: self.harness.schedule_injection(now, kind, member)
        )

    def members(self) -> Set[str]:
        return set(self.harness.global_guids())

    def global_agreement(self) -> bool:
        return self.harness.converged() and self.harness.ring_agreement()


_BUILDERS = {
    "rgb": RGBRingProtocol,
    "flat_ring": FlatRingProtocol,
    "gossip": GossipProtocol,
    "tree": TreeProtocol,
}


def build_protocol(
    name: str, num_proxies: int, loss: float = 0.0, seed: int = 0, **kwargs
) -> BaseProtocolDriver:
    """Build the named protocol driver over ``num_proxies`` capture sites."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r} (have {PROTOCOL_NAMES})") from None
    return builder(num_proxies, loss=loss, seed=seed, **kwargs)
