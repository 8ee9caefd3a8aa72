"""Three ways to drive the one reliable-delivery core in a test.

:class:`repro.core.delivery.ReliableNotifier` is transport-agnostic; a rig is
a transport plus the handful of handles the delivery tests need
(``kernel``, ``hierarchy``, ``notifier``, ``counters()``, ``settle()``,
``run_round()``), so one test body runs

* against the core alone (:class:`CoreRig`: a fake clock, and a ``send`` that
  parks every attempt on a list the test delivers, drops, duplicates or
  reorders — no engine, no sockets),
* through the simulator's ``TransportDispatch`` (:class:`SimRig`), and
* through the UDP node's ``SocketDispatch`` (:class:`SocketRig`, over the
  duck-typed :class:`FakeNode` its docstring describes, with datagrams
  encoded, decoded and looped back in-process).
"""

from __future__ import annotations

import heapq
import itertools
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.core.delivery import Notification, ReliableNotifier
from repro.core.hierarchy import HierarchyBuilder
from repro.core.kernel import DirectDispatch, create_kernel
from repro.runtime import wire
from repro.runtime.dispatch import SocketDispatch
from repro.runtime.loop import TimerHandle
from repro.runtime.scenario import ShardPlan
from repro.sim.harness import HarnessConfig, ScenarioHarness
from repro.sim.stats import MetricRegistry


class FakeLoop:
    """A clock the test advances, and the timers that come due on it."""

    def __init__(self) -> None:
        self.now = 0.0
        self._timers: List[Tuple[float, int, TimerHandle]] = []
        self._tie = itertools.count()

    def clock(self) -> float:
        return self.now

    def call_later(self, delay: float, callback) -> TimerHandle:
        handle = TimerHandle(self.now + delay, callback)
        heapq.heappush(self._timers, (handle.when, next(self._tie), handle))
        return handle

    def timers_pending(self) -> int:
        return sum(1 for _, _, handle in self._timers if not handle.cancelled)

    def advance(self, delta: float) -> None:
        """Move the clock and fire every live timer that came due, in order."""
        self.now += delta
        while self._timers and self._timers[0][0] <= self.now:
            handle = heapq.heappop(self._timers)[2]
            if not handle.cancelled:
                handle.callback()


def upward_join(kernel, guid: str):
    """A bottom-ring leader, its parent, and a fresh join to notify about."""
    hierarchy = kernel.hierarchy
    ring = next(r for r in hierarchy.rings.values() if r.tier == hierarchy.bottom_tier())
    sender = ring.leader
    return sender, kernel.entities[sender].parent, kernel.make_join_op(sender, guid)


class _Rig:
    """What the delivery tests need from any driver."""

    kernel = None
    metrics = None
    notifier: ReliableNotifier

    @property
    def hierarchy(self):
        return self.kernel.hierarchy

    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in self.metrics.counters.items()}

    def run_round(self, ring_id: str) -> None:
        """The driver's round handler: gate, round, follow-ups."""
        if self.notifier.round_due(ring_id):
            self.kernel.run_round(ring_id, now=0.0)
            self.notifier.after_round(ring_id)


class _SubmitDispatch(DirectDispatch):
    """The whole adapter the core needs: hand the kernel's notification
    over (the kernel sends nothing else)."""

    notifier: ReliableNotifier

    def deliver_notification(self, kernel, sender, target, operations, now) -> None:
        self.notifier.submit(self.notifier.notification(sender, target, operations))


def _build_kernel(ring_size: int, height: int, metrics: MetricRegistry, dispatch):
    hierarchy = HierarchyBuilder("harness").regular(ring_size=ring_size, height=height)
    return create_kernel(
        hierarchy,
        backend="object",
        metrics=metrics,
        dispatch=dispatch,
    )


class CoreRig(_Rig):
    """``ReliableNotifier`` alone over a fake clock and a parked-send wire."""

    #: What ``send`` tells the core to wait before its unacked check.
    backoff = 1.0

    def __init__(self, ring_size: int = 2, height: int = 2, resend_limit: int = 2) -> None:
        self.loop = FakeLoop()
        self.metrics = MetricRegistry()
        self.wire: List[Tuple[int, Notification]] = []
        #: Every attempt ever sent, delivered or not (id, entry).
        self.attempts: List[Tuple[int, Notification]] = []
        self.rounds_requested: List[str] = []
        dispatch = _SubmitDispatch()
        self.kernel = _build_kernel(ring_size, height, self.metrics, dispatch)
        self.notifier = dispatch.notifier = ReliableNotifier(
            self.kernel,
            self.metrics,
            now=self.loop.clock,
            send=self._send,
            arm=self.loop.call_later,
            schedule_round=self.rounds_requested.append,
            resend_limit=resend_limit,
        )

    def _send(self, notify_id: int, entry: Notification) -> float:
        self.wire.append((notify_id, entry))
        self.attempts.append((notify_id, entry))
        return self.backoff

    def deliver(self, index: int = 0, keep: bool = False) -> None:
        """One parked attempt arrives (``keep`` leaves a duplicate behind)."""
        notify_id, entry = self.wire[index] if keep else self.wire.pop(index)
        acknowledged = self.notifier.acknowledge(notify_id)
        if acknowledged is not None:
            self.notifier.accept(acknowledged)

    def settle(self) -> None:
        while self.wire:
            self.deliver()


class SimRig(_Rig):
    """The simulator's adapter: a :class:`ScenarioHarness` as it ships."""

    def __init__(self, ring_size: int = 2, height: int = 2) -> None:
        self.harness = ScenarioHarness(HarnessConfig(ring_size=ring_size, height=height, seed=1))
        self.kernel = self.harness.kernel
        self.metrics = self.harness.metrics
        self.notifier = self.harness.dispatch.notifier

    def settle(self) -> None:
        self.harness.engine.run()

    def run_round(self, ring_id: str) -> None:
        self.harness._run_ring_round(ring_id)


class FakeNode:
    """The duck-typed node ``SocketDispatch`` asks for, minus the sockets.

    Shard 0 is "this" process and owns ``local_rings``; every other ring
    belongs to shard 1.  Datagrams are recorded in ``sent`` instead of being
    written to a socket; :meth:`receive` puts one through the wire codec and
    loops the decoded message back through the same dispatch, which then
    plays the receiving shard.
    """

    def __init__(
        self,
        ring_size: int = 2,
        height: int = 2,
        resend_limit: int = 2,
        local_rings: Optional[List[str]] = None,
    ) -> None:
        self.shard_id = 0
        self.loop = FakeLoop()
        self.metrics = MetricRegistry()
        self.config = SimpleNamespace(resend_limit=resend_limit, resend_backoff=1.0)
        self.sent: List[Tuple[int, int, dict]] = []
        self.rounds_requested: List[str] = []
        self.dispatch = SocketDispatch(self)
        self.kernel = _build_kernel(ring_size, height, self.metrics, self.dispatch)
        local = set(local_rings or ())
        self.plan = ShardPlan(
            num_shards=2,
            ring_owner={rid: 0 if rid in local else 1 for rid in self.kernel.hierarchy.rings},
            top_shard=0,
        )
        self.dispatch.bind(self.kernel)
        self._codecs = {shard: wire.WireCodec(shard) for shard in (0, 1)}

    def vnow(self) -> float:
        return self.loop.now

    def send_to_shard(self, shard: int, kind: int, payload: dict) -> None:
        self.sent.append((shard, kind, payload))

    def schedule_round(self, ring_id: str, delay: Optional[float] = None) -> None:
        self.rounds_requested.append(ring_id)

    def datagrams(self, kind: int) -> List[dict]:
        return [payload for _, k, payload in self.sent if k == kind]

    def receive(self, shard: int, kind: int, payload: dict) -> None:
        """A recorded NOTIFY / NOTIFY_ACK arrives at ``shard``, its addressee.

        A NOTIFY comes from the shard that owns its sender's ring (a node
        runs only the rounds of rings it owns); an ACK from the other shard.
        """
        if kind == wire.MSG_NOTIFY:
            sender_ring = self.kernel.hierarchy.ring_of_node[payload["sender"]]
            origin = self.plan.owner_of_ring(sender_ring)
        else:
            origin = 1 - shard
        codec = self._codecs[origin]
        message = wire.WireCodec.decode(codec.encode(kind, payload, dest_key=shard))
        if kind == wire.MSG_NOTIFY:
            self.shard_id = shard
            try:
                self.dispatch.on_notify(message)
            finally:
                self.shard_id = 0
        elif kind == wire.MSG_NOTIFY_ACK:
            self.dispatch.on_notify_ack(message)

    def pump(self) -> None:
        """Deliver every recorded datagram until none is left."""
        while self.sent:
            self.receive(*self.sent.pop(0))


class SocketRig(_Rig):
    """The UDP node's adapter over :class:`FakeNode` (every ring remote, so
    every notification crosses the fake wire)."""

    def __init__(self, ring_size: int = 2, height: int = 2) -> None:
        self.node = FakeNode(ring_size=ring_size, height=height)
        self.kernel = self.node.kernel
        self.metrics = self.node.metrics
        self.notifier = self.node.dispatch.notifier

    def settle(self) -> None:
        self.node.pump()


RIGS = {"core": CoreRig, "sim": SimRig, "socket": SocketRig}
