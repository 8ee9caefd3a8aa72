"""One live shard: a kernel replica over real sockets, run as an OS process.

``python -m repro.runtime.node <config.pkl>`` starts one node.  The node

* rehydrates the shared hierarchy and builds a full kernel replica, but
  *owns* only the rings its :class:`~repro.runtime.scenario.ShardPlan`
  assigns it: token rounds run here only for owned rings (single writer
  per ring), and every view mutation for an owned ring happens in this
  process.  Unowned state exists as a routing/lookup replica that other
  shards' notifications keep current.
* binds a UDP unicast socket (and joins the loopback multicast heartbeat
  group, falling back to unicast fan-out where multicast is unavailable),
  multiplexed by the single-threaded :class:`~repro.runtime.loop.EventLoop`
  together with round timers, heartbeat timers and the scenario script.
* replays its slice of the scenario script with the script's pre-assigned
  sequence/epoch identities (the sim harness's capture handlers, with the
  identities supplied instead of minted).
* detects peer-shard death by heartbeat silence and feeds every entity the
  dead shard owned into the kernel's existing ``fail_entity``/repair path —
  the same entry point the simulator's ``FaultEvent`` uses.

Crash determinism: a shard scheduled to die (``crash_at``) *wedges* at that
exact virtual instant — stops heartbeating, drops all I/O — and the
supervisor's real ``SIGKILL`` lands a beat later.  The process genuinely
dies by signal and peers genuinely detect it by heartbeat silence, but the
death *instant* is deterministic in virtual time, which is what lets the
sim schedule the equivalent crash at the same scenario time and the
membership traces line up.

Time: the node's virtual clock is ``(monotonic() - t0) / time_scale`` with
``t0`` agreed in the supervisor's PEERS handshake, so kernel calls and
trace records share the sim's time axis.
"""

from __future__ import annotations

import pickle
import socket
import struct
import sys
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import ProtocolConfig
from repro.core.events import MembershipEventBus
from repro.core.identifiers import NodeId, coerce_guid, coerce_node
from repro.core.kernel import create_kernel
from repro.core.member import MemberInfo, MemberStatus
from repro.core.token import TokenOperation, TokenOperationType
from repro.runtime import wire
from repro.runtime.dispatch import SocketDispatch
from repro.runtime.heartbeat import HeartbeatConfig, HeartbeatMonitor
from repro.runtime.loop import EventLoop
from repro.runtime.scenario import (
    KIND_FAILURE,
    KIND_HANDOFF,
    KIND_HANDOFF_UNREGISTER,
    KIND_JOIN,
    KIND_LEAVE,
    ScenarioScript,
    ScriptOp,
    ShardPlan,
)
from repro.sim.stats import MetricRegistry
from repro.sim.trace import TraceRecorder

__all__ = ["NodeConfig", "NodeRuntime", "main"]

LOOPBACK = "127.0.0.1"


@dataclass(frozen=True)
class NodeConfig:
    """Everything one node process needs, shipped as a pickle file."""

    shard_id: int
    plan: ShardPlan
    ring_size: int
    height: int
    hierarchy_payload: bytes
    script: ScenarioScript
    supervisor_port: int
    result_path: str
    #: Virtual instant this shard wedges ahead of its SIGKILL (None = lives).
    crash_at: Optional[float] = None
    #: Real seconds per virtual time unit.
    time_scale: float = 0.06
    #: Virtual delays, mirroring HarnessConfig.
    round_delay: float = 1.0
    crash_detection_delay: float = 5.0
    #: Reliable-notify budget (backoff in real seconds).
    resend_backoff: float = 0.08
    resend_limit: int = 80
    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)
    multicast: bool = True
    mcast_group: str = "239.255.101.77"
    mcast_port: int = 0
    trace_enabled: bool = False
    status_interval: float = 0.15
    hello_interval: float = 0.2
    #: Handshake grace credited to peers before heartbeat silence counts.
    startup_grace: float = 0.6


class NodeRuntime:
    """The event-loop state machine of one live shard process."""

    def __init__(self, config: NodeConfig) -> None:
        self.config = config
        self.shard_id = config.shard_id
        self.plan = config.plan
        self.loop = EventLoop()
        self.codec = wire.WireCodec(config.shard_id)
        self.tracker = wire.LinkTracker()
        self.metrics = MetricRegistry()
        self.trace = TraceRecorder(enabled=config.trace_enabled)

        self.hierarchy = pickle.loads(config.hierarchy_payload)
        states = self.hierarchy.build_entity_states()
        self.dispatch = SocketDispatch(self)
        self.kernel = create_kernel(
            self.hierarchy,
            backend="object",
            config=ProtocolConfig(aggregation_delay=0.0),
            metrics=self.metrics,
            event_bus=MembershipEventBus(),
            trace=self.trace,
            dispatch=self.dispatch,
            entities=states,
            entities_pristine=True,
        )
        self.dispatch.bind(self.kernel)
        # Disjoint per-shard repair-op sequence stream above the script's.
        self.kernel.set_sequence_stream(
            config.script.next_sequence + config.shard_id, self.plan.num_shards
        )
        self.owned_rings: Set[str] = set(self.plan.rings_of(config.shard_id))
        ring_of = self.hierarchy.ring_of
        self._my_ops: List[ScriptOp] = [
            op
            for op in config.script.ops
            if self.plan.owner_of_ring(ring_of(coerce_node(self._route_ap(op))).ring_id)
            == config.shard_id
        ]
        self._script_remaining = len(self._my_ops)

        self.sock: Optional[socket.socket] = None
        self.mcast_sock: Optional[socket.socket] = None
        self.mcast_mode = False
        self.peers: Dict[int, Tuple[str, int]] = {}
        self.monitor: Optional[HeartbeatMonitor] = None
        self.t0: Optional[float] = None
        self.started = False
        self.halted = False
        self.finalized = False
        self._round_scheduled: Set[str] = set()
        self._member_location: Dict[str, NodeId] = {}

        self._handlers = {
            wire.MSG_PEERS: self._on_peers,
            wire.MSG_NOTIFY: self.dispatch.on_notify,
            wire.MSG_NOTIFY_ACK: self.dispatch.on_notify_ack,
            wire.MSG_TOKEN: self._on_token,
            wire.MSG_HOLDER_ACK: self._on_holder_ack,
            wire.MSG_HEARTBEAT: self._on_heartbeat,
            wire.MSG_SHUTDOWN: self._on_shutdown,
        }

    # -- routing ------------------------------------------------------------

    @staticmethod
    def _route_ap(op: ScriptOp) -> str:
        """The AP whose ring owner executes this scripted op (joins at the
        join AP, departures at the member's recorded AP, handoffs at the
        new AP, unregister directives at the old AP)."""
        if op.kind == KIND_HANDOFF:
            return op.to_ap or op.ap
        return op.ap

    def vnow(self) -> float:
        if self.t0 is None:
            return 0.0
        return max(0.0, (self.loop.clock() - self.t0) / self.config.time_scale)

    # -- sockets ------------------------------------------------------------

    def _bind(self) -> None:
        cfg = self.config
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        self.sock.bind((LOOPBACK, 0))
        self.sock.setblocking(False)
        self.loop.add_reader(self.sock, self._on_datagram)
        if cfg.multicast and cfg.mcast_port:
            try:
                mcast = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                mcast.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                if hasattr(socket, "SO_REUSEPORT"):
                    mcast.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                mcast.bind(("", cfg.mcast_port))
                mreq = struct.pack(
                    "4s4s",
                    socket.inet_aton(cfg.mcast_group),
                    socket.inet_aton(LOOPBACK),
                )
                mcast.setsockopt(socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP, mreq)
                mcast.setblocking(False)
                self.sock.setsockopt(
                    socket.IPPROTO_IP, socket.IP_MULTICAST_IF, socket.inet_aton(LOOPBACK)
                )
                self.sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
                self.mcast_sock = mcast
                self.loop.add_reader(mcast, self._on_datagram)
                self.mcast_mode = True
            except OSError:
                # Restricted environment (no multicast on loopback): fall
                # back to unicast heartbeat fan-out.
                self.mcast_sock = None
                self.mcast_mode = False

    def _close(self) -> None:
        for sock in (self.sock, self.mcast_sock):
            if sock is not None:
                try:
                    self.loop.remove_reader(sock)
                except Exception:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
        self.sock = None
        self.mcast_sock = None
        self.loop.close()

    # -- send helpers --------------------------------------------------------

    def _sendto(self, data: bytes, addr: Tuple[str, int]) -> None:
        if self.sock is None:
            return
        try:
            self.sock.sendto(data, addr)
        except OSError:
            self.metrics.counter("runtime.send_errors").increment()

    def send_to_shard(self, shard: int, kind: int, payload: dict) -> None:
        if self.halted:
            return
        addr = self.peers.get(shard)
        if addr is None:
            return  # unknown yet (or dead); the reliable layer retries
        self._sendto(self.codec.encode(kind, payload, dest_key=shard), addr)

    def send_to_self(self, kind: int, payload: dict) -> None:
        if self.halted or self.sock is None:
            return
        self._sendto(
            self.codec.encode(kind, payload, dest_key=self.shard_id),
            self.sock.getsockname(),
        )

    def send_to_supervisor(self, kind: int, payload: dict) -> None:
        self._sendto(
            self.codec.encode(kind, payload, dest_key="supervisor"),
            (LOOPBACK, self.config.supervisor_port),
        )

    # -- datagram pump -------------------------------------------------------

    def _on_datagram(self, sock) -> None:
        while True:
            try:
                data, _addr = sock.recvfrom(65536)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            if self.halted:
                continue  # wedged ahead of SIGKILL: drop everything
            try:
                message = wire.WireCodec.decode(data)
            except wire.WireError:
                self.metrics.counter("runtime.wire_errors").increment()
                continue
            if message.sender_shard == self.shard_id and message.kind == wire.MSG_HEARTBEAT:
                continue  # own multicast loopback echo
            if message.sender_shard >= 0:
                self.tracker.observe(message)
            handler = self._handlers.get(message.kind)
            if handler is not None:
                handler(message)

    def _on_token(self, message: wire.WireMessage) -> None:
        self.metrics.counter("runtime.token_datagrams").increment()

    def _on_holder_ack(self, message: wire.WireMessage) -> None:
        self.metrics.counter("runtime.holder_ack_datagrams").increment()

    def _on_heartbeat(self, message: wire.WireMessage) -> None:
        if self.monitor is not None:
            self.monitor.heartbeat_received(int(message.payload["shard"]))

    # -- handshake -----------------------------------------------------------

    def _say_hello(self) -> None:
        if self.started or self.finalized:
            return
        assert self.sock is not None
        port = self.sock.getsockname()[1]
        self.send_to_supervisor(wire.MSG_HELLO, {"shard": self.shard_id, "port": port})
        self.loop.call_later(self.config.hello_interval, self._say_hello)

    def _on_peers(self, message: wire.WireMessage) -> None:
        if self.started:
            return
        cfg = self.config
        payload = message.payload
        self.peers = {
            int(shard): (host, int(port))
            for shard, (host, port) in payload["peers"].items()
            if int(shard) != self.shard_id
        }
        self.t0 = float(payload["t0"])
        self.monitor = HeartbeatMonitor(
            peers=sorted(self.peers),
            config=cfg.heartbeat,
            clock=self.loop.clock,
            on_readmit=self._on_peer_readmitted,
            on_evict=self._on_peer_evicted,
            initial_grace=max(cfg.startup_grace, self.t0 - self.loop.clock()),
        )
        scale = cfg.time_scale
        for op in self._my_ops:
            self.loop.call_at(self.t0 + op.time * scale, self._make_op_thunk(op))
        if cfg.crash_at is not None:
            self.loop.call_at(self.t0 + cfg.crash_at * scale, self._halt)
        self.started = True
        self._emit_heartbeat()
        self._poll_monitor()
        self._housekeeping()

    def _make_op_thunk(self, op: ScriptOp):
        def thunk() -> None:
            self._script_remaining -= 1
            self._exec_op(op)

        return thunk

    # -- heartbeats ----------------------------------------------------------

    def _emit_heartbeat(self) -> None:
        if self.halted or self.finalized:
            return
        cfg = self.config
        payload = {"shard": self.shard_id}
        if self.mcast_mode:
            data = self.codec.encode(
                wire.MSG_HEARTBEAT,
                payload,
                dest_key="mcast",
                channel=wire.CHANNEL_MULTICAST,
            )
            try:
                assert self.sock is not None
                self.sock.sendto(data, (cfg.mcast_group, cfg.mcast_port))
            except OSError:
                self.mcast_mode = False  # fall back to unicast fan-out
        if not self.mcast_mode:
            for shard in self.peers:
                self.send_to_shard(shard, wire.MSG_HEARTBEAT, payload)
        self.loop.call_later(cfg.heartbeat.interval, self._emit_heartbeat)

    def _poll_monitor(self) -> None:
        if self.halted or self.finalized:
            return
        assert self.monitor is not None
        self.monitor.poll()
        self.loop.call_later(self.config.heartbeat.interval / 2, self._poll_monitor)

    def _on_peer_readmitted(self, peer: int, silence: float) -> None:
        self.metrics.counter("runtime.peer_readmitted").increment()

    def _on_peer_evicted(self, peer: int, silence: float) -> None:
        """Heartbeat silence crossed the eviction window: the peer's rings
        are dead.  Feed its entities into the kernel's fail/repair path —
        the live analogue of the sim harness's ``_on_fault``."""
        self.metrics.counter("runtime.peer_evicted").increment()
        kernel = self.kernel
        now = self.vnow()
        for node_id in self.plan.entities_of(self.hierarchy, peer):
            key = coerce_node(node_id)
            if key in kernel.entities and key not in kernel.failed:
                if not self.hierarchy.has_node(key):
                    continue
                kernel.fail_entity(key, now=now)
        # The circulating token notices within a circulation: probe rounds
        # on owned rings (no-ops unless there is repair or queued work).
        for ring_id in self.owned_rings:
            self.schedule_round(ring_id, delay=self.config.crash_detection_delay)

    # -- scripted captures (the sim harness's handlers, pre-assigned ids) ----

    def _capturable(self, ap) -> Optional[NodeId]:
        key = coerce_node(ap)
        if key in self.kernel.failed or not self.hierarchy.has_node(key):
            self.metrics.counter("harness.captures_skipped").increment()
            return None
        return key

    def _exec_op(self, op: ScriptOp) -> None:
        if self.halted:
            return
        kernel = self.kernel
        now = self.vnow()
        if op.kind == KIND_JOIN:
            key = self._capturable(op.ap)
            if key is None:
                return
            member = MemberInfo(
                guid=coerce_guid(op.member),
                group=self.hierarchy.group,
                ap=key,
                status=MemberStatus.OPERATIONAL,
                epoch=op.epoch,
            )
            top = TokenOperation(
                op_type=TokenOperationType.MEMBER_JOIN,
                origin=key,
                member=member,
                sequence=op.sequence,
            )
            kernel.capture(key, top, now)
            self._member_location[op.member] = key
            self.schedule_round(self.hierarchy.ring_of(key).ring_id)
        elif op.kind in (KIND_LEAVE, KIND_FAILURE):
            location = self._member_location.get(op.member)
            key = self._capturable(location) if location is not None else None
            if key is None:
                return
            record = kernel.lookup_member(key, coerce_guid(op.member))
            if op.kind == KIND_LEAVE:
                op_type, status = TokenOperationType.MEMBER_LEAVE, MemberStatus.LEFT
            else:
                op_type, status = TokenOperationType.MEMBER_FAILURE, MemberStatus.FAILED
            top = TokenOperation(
                op_type=op_type,
                origin=key,
                member=record.with_status(status),
                sequence=op.sequence,
            )
            kernel.capture(key, top, now)
            self._member_location.pop(op.member, None)
            self.schedule_round(self.hierarchy.ring_of(key).ring_id)
        elif op.kind == KIND_HANDOFF:
            old = self._member_location.get(op.member)
            new = self._capturable(op.to_ap)
            if old is None or new is None or old == new:
                self.metrics.counter("harness.captures_skipped").increment()
                return
            guid = coerce_guid(op.member)
            record = kernel.lookup_member(old, guid)
            moved = record.handed_off_to(new, op.epoch)
            if old in kernel.entities:
                kernel.entities[old].unregister_local_member(str(guid))
            top = TokenOperation(
                op_type=TokenOperationType.MEMBER_HANDOFF,
                origin=new,
                member=moved,
                previous_ap=old,
                sequence=op.sequence,
            )
            kernel.capture(new, top, now)
            self._member_location[op.member] = new
            self.schedule_round(self.hierarchy.ring_of(new).ring_id)
        elif op.kind == KIND_HANDOFF_UNREGISTER:
            key = coerce_node(op.ap)
            if key in kernel.entities:
                kernel.entities[key].unregister_local_member(op.member)
        else:
            self.metrics.counter("runtime.unknown_script_ops").increment()

    # -- rounds (real timers; the gate and follow-ups are the notifier's) -----

    def schedule_round(self, ring_id: str, delay: Optional[float] = None) -> None:
        if ring_id not in self.owned_rings:
            return
        if ring_id in self._round_scheduled:
            return
        self._round_scheduled.add(ring_id)
        virtual = self.config.round_delay if delay is None else delay
        self.loop.call_later(
            max(virtual * self.config.time_scale, 0.001),
            lambda: self._run_ring_round(ring_id),
        )

    def _run_ring_round(self, ring_id: str) -> None:
        self._round_scheduled.discard(ring_id)
        notifier = self.dispatch.notifier
        if self.halted or self.finalized or not notifier.round_due(ring_id):
            return
        self.kernel.run_round(ring_id, now=self.vnow())
        self.metrics.counter("harness.rounds").increment()
        notifier.after_round(ring_id)

    # -- liveness / status ----------------------------------------------------

    def _owned_pending(self) -> bool:
        return any(rid in self.owned_rings for rid in self.kernel.pending_rings())

    def idle(self) -> bool:
        """Quiescent: script replayed, no armed rounds, no unacked sends."""
        return (
            self.started
            and self._script_remaining == 0
            and not self._round_scheduled
            and self.dispatch.pending_count() == 0
            and not self._owned_pending()
        )

    def _housekeeping(self) -> None:
        if self.halted or self.finalized:
            return
        for ring_id in self.kernel.pending_rings():
            if ring_id in self.owned_rings:
                self.schedule_round(ring_id)
        self.dispatch.notifier.retry_dead_letters()
        assert self.monitor is not None
        self.send_to_supervisor(
            wire.MSG_STATUS,
            {
                "shard": self.shard_id,
                "idle": self.idle(),
                "vnow": self.vnow(),
                "evicted": self.monitor.evicted_peers(),
                "readmissions": self.monitor.readmissions,
            },
        )
        self.loop.call_later(self.config.status_interval, self._housekeeping)

    def _halt(self) -> None:
        """Wedge: the deterministic death instant ahead of the SIGKILL."""
        self.halted = True

    # -- shutdown + results ---------------------------------------------------

    def _on_shutdown(self, message: wire.WireMessage) -> None:
        if self.finalized:
            self.send_to_supervisor(wire.MSG_BYE, {"shard": self.shard_id})
            return
        self.finalized = True
        self._write_result()
        self.send_to_supervisor(wire.MSG_BYE, {"shard": self.shard_id})
        self.loop.stop()

    def _owned_ring_agreement(self) -> bool:
        failed = self.kernel.failed
        for ring_id in sorted(self.owned_rings):
            ring = self.hierarchy.rings.get(ring_id)
            if ring is None:
                continue
            views = [
                self.kernel.entity(node).ring_members
                for node in ring.members
                if node not in failed
            ]
            if len(views) <= 1:
                continue
            first = views[0]
            if not all(first.agrees_with(view) for view in views[1:]):
                return False
        return True

    def _global_membership(self) -> Optional[List[Tuple[str, str, str]]]:
        top = self.hierarchy.topmost_ring()
        if self.plan.owner_of_ring(top.ring_id) != self.shard_id:
            return None
        leader = top.leader
        if leader is None:
            return None
        return [
            (str(m.guid), str(m.ap), m.status.value)
            for m in self.kernel.entity(leader).ring_members.members()
        ]

    def result(self) -> dict:
        monitor = self.monitor
        return {
            "shard": self.shard_id,
            "owned_rings": sorted(self.owned_rings),
            "idle": self.idle(),
            "vnow": self.vnow(),
            "counters": {name: c.value for name, c in sorted(self.metrics.counters.items())},
            "ring_agreement": self._owned_ring_agreement(),
            "membership": self._global_membership(),
            "heartbeat": monitor.counters() if monitor is not None else {},
            "eviction_silence": dict(monitor.eviction_silence) if monitor is not None else {},
            "evicted_peers": monitor.evicted_peers() if monitor is not None else [],
            "heartbeat_mode": "multicast" if self.mcast_mode else "unicast",
            "link_stats": self.tracker.summary(),
            "dead_letters": self.dispatch.dead_letter_count(),
            "trace": self.trace.canonical_lines() if self.trace.enabled else [],
        }

    def _write_result(self) -> None:
        path = self.config.result_path
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            pickle.dump(self.result(), handle, protocol=pickle.HIGHEST_PROTOCOL)
        import os

        os.replace(tmp, path)

    # -- entry ----------------------------------------------------------------

    def start(self) -> None:
        self._bind()
        try:
            self._say_hello()
            self.loop.run()
        finally:
            self._close()


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv if argv is None else argv)
    if len(argv) != 2:
        print("usage: python -m repro.runtime.node <config.pkl>", file=sys.stderr)
        return 2
    with open(argv[1], "rb") as handle:
        config: NodeConfig = pickle.load(handle)
    runtime = NodeRuntime(config)
    try:
        runtime.start()
    except Exception:
        with open(config.result_path + ".err", "w") as handle:
            handle.write(traceback.format_exc())
        raise
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
