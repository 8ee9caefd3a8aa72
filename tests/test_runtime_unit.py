"""Unit tests for the live runtime's building blocks.

Everything here runs without sockets-between-processes: the wire codec and
link tracker are pure functions over bytes, the event loop is exercised
in-process with real (sub-millisecond) timers and a socketpair, the
heartbeat monitor is driven by a fake clock — the state machine's whole
point is that it is clock-injectable and I/O-free — ``SocketDispatch``
runs over the duck-typed node its docstring describes
(``delivery_rigs.FakeNode``: datagrams land on a list, timers on a fake
clock), and the forked shard's set-up runs in one bare forked child.
"""

from __future__ import annotations

import ast
import gc
import os
import signal
import socket
import sys

import pytest
from delivery_rigs import FakeNode, upward_join

from repro.runtime import wire
from repro.runtime.heartbeat import HeartbeatConfig, HeartbeatMonitor, PeerHealth
from repro.runtime.loop import EventLoop
from repro.runtime.supervisor import _detach_child
from repro.runtime.wire import (
    CHANNEL_MULTICAST,
    CHANNEL_UNICAST,
    MSG_HEARTBEAT,
    MSG_NOTIFY,
    MSG_TOKEN,
    LinkTracker,
    WireCodec,
    WireError,
    WireMessage,
)

# ---------------------------------------------------------------------------
# wire codec
# ---------------------------------------------------------------------------


def test_codec_roundtrip_preserves_header_and_payload():
    codec = WireCodec(shard_id=3)
    payload = {"sender": "L1-0000-0000", "ops": (1, 2, 3)}
    message = WireCodec.decode(codec.encode(MSG_NOTIFY, payload, dest_key=1))
    assert message.kind == MSG_NOTIFY
    assert message.sender_shard == 3
    assert message.channel == CHANNEL_UNICAST
    assert message.payload == payload


def test_codec_numbers_each_link_stream_independently():
    codec = WireCodec(shard_id=0)
    to_one = [WireCodec.decode(codec.encode(MSG_TOKEN, {}, dest_key=1)).seq for _ in range(3)]
    to_two = WireCodec.decode(codec.encode(MSG_TOKEN, {}, dest_key=2)).seq
    mcast = WireCodec.decode(
        codec.encode(MSG_HEARTBEAT, {}, dest_key="mcast", channel=CHANNEL_MULTICAST)
    ).seq
    assert to_one == [1, 2, 3]
    assert to_two == 1  # separate unicast link, separate stream
    assert mcast == 1  # multicast channel is its own link


def test_codec_rejects_garbage():
    codec = WireCodec(shard_id=0)
    good = codec.encode(MSG_TOKEN, {}, dest_key=1)
    with pytest.raises(WireError, match="short"):
        WireCodec.decode(b"RGB1")
    with pytest.raises(WireError, match="magic"):
        WireCodec.decode(b"XXXX" + good[4:])
    with pytest.raises(WireError, match="version"):
        WireCodec.decode(good[:4] + bytes([99]) + good[5:])
    with pytest.raises(WireError, match="kind"):
        WireCodec.decode(good[:5] + bytes([0]) + good[6:])
    with pytest.raises(WireError, match="payload"):
        WireCodec.decode(good[:-len(good) + 13] + b"not a pickle")
    with pytest.raises(WireError, match="unknown message kind"):
        codec.encode(0, {}, dest_key=1)
    with pytest.raises(WireError, match="split the batch"):
        codec.encode(MSG_NOTIFY, {"blob": b"x" * 70_000}, dest_key=1)


def test_link_tracker_classifies_new_duplicate_reordered():
    tracker = LinkTracker()

    def msg(seq, shard=1, channel=CHANNEL_UNICAST):
        return WireMessage(kind=MSG_TOKEN, sender_shard=shard, seq=seq, channel=channel, payload={})

    assert tracker.observe(msg(1)) == "new"
    assert tracker.observe(msg(2)) == "new"
    assert tracker.observe(msg(2)) == "duplicate"
    assert tracker.observe(msg(5)) == "new"  # jumps the frontier: 2 gaps
    assert tracker.observe(msg(4)) == "reordered"  # late fill-in closes one gap
    # Another sender/channel is a distinct link with its own numbering.
    assert tracker.observe(msg(1, shard=2)) == "new"
    assert tracker.observe(msg(1, channel=CHANNEL_MULTICAST)) == "new"

    stats = tracker.summary()["1:0"]
    assert stats == {"received": 5, "duplicates": 1, "reordered": 1, "gaps": 1, "highest": 5}


def _token(seq):
    return WireMessage(kind=MSG_TOKEN, sender_shard=1, seq=seq, channel=CHANNEL_UNICAST, payload={})


def test_link_tracker_knows_a_replay_far_behind_the_window_is_a_duplicate():
    tracker = LinkTracker()
    assert all(tracker.observe(_token(seq)) == "new" for seq in range(1, 20_001))
    replays = [tracker.observe(_token(seq)) for seq in range(1, 20_001, 97)]

    assert replays == ["duplicate"] * 207
    stats = tracker.summary()["1:0"]
    assert (stats["duplicates"], stats["reordered"], stats["gaps"]) == (207, 0, 0)


def test_link_tracker_fills_a_reordered_gap_late_and_gives_up_a_hole_past_the_window():
    tracker = LinkTracker()
    verdicts = [tracker.observe(_token(seq)) for seq in (1, 2, 6, 4, 3, 5, 4, 6)]
    assert verdicts == ["new", "new", "new", "reordered", "reordered", "reordered"] + [
        "duplicate"
    ] * 2
    stats = tracker.summary()["1:0"]
    assert (stats["reordered"], stats["gaps"], stats["duplicates"]) == (3, 0, 2)

    # Seq 7 is lost for good: once a window's worth has arrived above it,
    # its hole is given up, and a very late copy reads as a duplicate.
    top = 8 + wire.LINK_WINDOW
    assert all(tracker.observe(_token(seq)) == "new" for seq in range(8, top + 1))
    assert tracker.observe(_token(7)) == "duplicate"
    assert tracker.observe(_token(top + 1)) == "new"
    assert tracker.summary()["1:0"]["gaps"] == 1


# ---------------------------------------------------------------------------
# event loop
# ---------------------------------------------------------------------------


def test_loop_fires_timers_in_order_and_honours_cancel():
    loop = EventLoop()
    fired = []
    loop.call_later(0.02, lambda: fired.append("b"))
    loop.call_later(0.001, lambda: fired.append("a"))
    cancelled = loop.call_later(0.005, lambda: fired.append("never"))
    cancelled.cancel()
    loop.call_later(0.03, loop.stop)
    loop.run()
    loop.close()
    assert fired == ["a", "b"]


def test_loop_dispatches_reader_callbacks():
    left, right = socket.socketpair()
    loop = EventLoop()
    got = []

    def on_readable(sock):
        got.append(sock.recv(64))
        loop.stop()

    loop.add_reader(right, on_readable)
    left.send(b"ping")
    assert loop.run_until(lambda: bool(got), timeout=2.0)
    loop.remove_reader(right)
    loop.close()
    left.close()
    right.close()
    assert got == [b"ping"]


def test_loop_run_until_times_out():
    loop = EventLoop()
    assert loop.run_until(lambda: False, timeout=0.05) is False
    loop.close()


def test_loop_timers_pending_excludes_cancelled():
    loop = EventLoop()
    keep = loop.call_later(60, lambda: None)
    drop = loop.call_later(60, lambda: None)
    drop.cancel()
    assert loop.timers_pending() == 1
    keep.cancel()
    loop.close()


# ---------------------------------------------------------------------------
# heartbeat monitor (fake clock)
# ---------------------------------------------------------------------------


CFG = HeartbeatConfig(interval=0.1, suspect_after=0.5, evict_after=1.5)


class _Clock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_heartbeat_config_validates_ordering():
    with pytest.raises(ValueError):
        HeartbeatConfig(interval=0.5, suspect_after=0.3, evict_after=1.0)
    with pytest.raises(ValueError):
        HeartbeatConfig(interval=0.1, suspect_after=0.5, evict_after=0.5)


def test_suspect_then_readmit_runs_no_eviction():
    clock = _Clock()
    events = []
    monitor = HeartbeatMonitor(
        [1, 2],
        CFG,
        clock=clock,
        on_suspect=lambda p, s: events.append(("suspect", p)),
        on_readmit=lambda p, s: events.append(("readmit", p)),
        on_evict=lambda p, s: events.append(("evict", p)),
    )
    clock.now += 0.6  # past suspect_after, short of evict_after
    assert monitor.poll() == []
    assert monitor.state(1) is PeerHealth.SUSPECT
    assert monitor.state(2) is PeerHealth.SUSPECT
    # Peer 1 speaks up again: SIGSTOP/GC-pause survivors re-admit, no repair.
    monitor.heartbeat_received(1)
    assert monitor.state(1) is PeerHealth.ALIVE
    assert monitor.counters() == {"suspicions": 2, "readmissions": 1, "evictions": 0}
    assert ("readmit", 1) in events and ("evict", 1) not in events


def test_eviction_is_terminal_and_records_silence():
    clock = _Clock()
    monitor = HeartbeatMonitor([7], CFG, clock=clock)
    clock.now += 2.0
    assert monitor.poll() == [7]
    assert monitor.state(7) is PeerHealth.EVICTED
    assert monitor.eviction_silence[7] == pytest.approx(2.0)
    # A late heartbeat cannot un-run the repair surgery.
    monitor.heartbeat_received(7)
    assert monitor.state(7) is PeerHealth.EVICTED
    assert monitor.evicted_peers() == [7]
    # Straight-to-evicted still counts the suspicion it implies.
    assert monitor.counters() == {"suspicions": 1, "readmissions": 0, "evictions": 1}


def test_initial_grace_absorbs_handshake_skew():
    clock = _Clock()
    monitor = HeartbeatMonitor([1], CFG, clock=clock, initial_grace=1.0)
    clock.now += 1.2  # would be past evict_after without the grace credit
    assert monitor.poll() == []
    assert monitor.state(1) is PeerHealth.ALIVE
    clock.now += 1.5  # grace spent: silence accrues from the credited point
    assert monitor.poll() == [1]


def test_unknown_peer_heartbeats_are_ignored():
    clock = _Clock()
    monitor = HeartbeatMonitor([1], CFG, clock=clock)
    monitor.heartbeat_received(99)  # no KeyError, no state created
    clock.now += 0.6
    monitor.poll()
    assert monitor.state(1) is PeerHealth.SUSPECT
    with pytest.raises(KeyError):
        monitor.state(99)


# ---------------------------------------------------------------------------
# the forked shard's set-up
# ---------------------------------------------------------------------------


def _open_fds():
    opened = []
    for fd in range(3, 1024):
        try:
            os.fstat(fd)
        except OSError:
            continue
        opened.append(fd)
    return opened


def test_detach_child_drops_what_a_forked_shard_inherits():
    """The forked child keeps no inherited descriptor, hook or handler, and
    runs with the collector on, whatever the parent had set."""
    read_fd, write_fd = os.pipe()
    control = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)  # the supervisor's
    gc_was_enabled, profile = gc.isenabled(), sys.getprofile()
    sigterm = signal.signal(signal.SIGTERM, lambda *_: None)
    sys.setprofile(lambda *_: None)
    gc.disable()
    try:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                _detach_child(pass_fds=(write_fd,))
                state = (
                    _open_fds(),
                    gc.isenabled(),
                    sys.gettrace(),
                    sys.getprofile(),
                    signal.getsignal(signal.SIGTERM) is signal.SIG_DFL,
                )
                os.write(write_fd, repr(state).encode())
                code = 0
            finally:
                os._exit(code)
    finally:
        sys.setprofile(profile)
        signal.signal(signal.SIGTERM, sigterm)
        if gc_was_enabled:
            gc.enable()
        control.close()
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        report = pipe.read()
    _, status = os.waitpid(pid, 0)

    assert os.waitstatus_to_exitcode(status) == 0
    assert ast.literal_eval(report.decode()) == ([write_fd], True, None, None, True)


# ---------------------------------------------------------------------------
# SocketDispatch over the fake node (no sockets, no processes)
# ---------------------------------------------------------------------------


def _upward(node):
    return upward_join(node.kernel, "unit-member")


def _notify_message(node, sender, target, op, notify_id=7, sender_shard=1, low=1):
    payload = {
        "id": notify_id,
        "sender": sender.value,
        "target": target.value,
        "ring": node.kernel.hierarchy.ring_of(target).ring_id,
        "ops": (op,),
        "low": low,
    }
    return wire.WireMessage(
        kind=wire.MSG_NOTIFY, sender_shard=sender_shard, seq=0, channel=0, payload=payload
    )


def test_on_notify_always_acks_and_inserts_a_duplicate_once():
    node = FakeNode()
    sender, target, op = _upward(node)
    message = _notify_message(node, sender, target, op)
    node.dispatch.on_notify(message)
    node.dispatch.on_notify(message)  # the resend after a lost ack

    assert node.sent == [(1, wire.MSG_NOTIFY_ACK, {"id": 7})] * 2
    assert node.kernel.entity(target).mq.peek() == (op,)
    assert node.metrics.counter("runtime.notify_duplicates").value == 1
    assert node.metrics.counter("harness.notifications_delivered").value == 1
    assert node.rounds_requested == [node.kernel.hierarchy.ring_of(target).ring_id]
    # The dedup key is (sender_shard, id): another shard's id 7 is another message.
    other = node.kernel.make_join_op(sender, "unit-member-2")
    node.dispatch.on_notify(_notify_message(node, sender, target, other, sender_shard=2))
    assert node.kernel.entity(target).mq.peek() == (op, other)


def test_on_notify_ack_cancels_the_armed_check():
    node = FakeNode()
    sender, target, op = _upward(node)
    node.kernel.forward_notification(sender, target, (op,), 0.0)
    (payload,) = node.datagrams(wire.MSG_NOTIFY)
    assert node.dispatch.pending_count() == 1 and node.loop.timers_pending() == 1

    ack = wire.WireMessage(
        kind=wire.MSG_NOTIFY_ACK, sender_shard=1, seq=0, channel=0, payload={"id": payload["id"]}
    )
    node.dispatch.on_notify_ack(ack)
    assert node.dispatch.pending_count() == 0 and node.loop.timers_pending() == 0
    node.dispatch.on_notify_ack(ack)  # a duplicate ack finds nothing
    node.loop.advance(10.0)
    assert len(node.datagrams(wire.MSG_NOTIFY)) == 1  # nothing was re-sent
    assert "harness.notify_resends" not in node.metrics.counters


def test_same_shard_target_never_touches_the_socket():
    node = FakeNode()
    sender, target, op = _upward(node)
    node = FakeNode(local_rings=[node.kernel.hierarchy.ring_of(target).ring_id])
    node.kernel.forward_notification(sender, target, (op,), 0.0)

    assert node.sent == [] and node.dispatch.pending_count() == 0
    assert node.loop.timers_pending() == 0
    assert node.kernel.entity(target).mq.peek() == (op,)
    assert node.metrics.counter("harness.notifications_delivered").value == 1


def test_unacked_send_is_resent_to_the_limit_then_abandoned_and_unmarked():
    node = FakeNode(resend_limit=3)
    sender, target, op = _upward(node)
    ring_id = node.kernel.hierarchy.ring_of(target).ring_id
    node.kernel.forward_notification(sender, target, (op,), 0.0)
    assert op.sequence in node.kernel.ring_seen[ring_id]  # marked at send time

    for _ in range(10):
        node.loop.advance(node.config.resend_backoff)
    notifies = node.datagrams(wire.MSG_NOTIFY)
    assert len(notifies) == 1 + 3  # the send and resend_limit resends
    assert len({payload["id"] for payload in notifies}) == 1  # one id for its whole life
    assert node.metrics.counter("harness.notify_resends").value == 3
    assert node.metrics.counter("harness.notify_abandoned").value == 1
    assert node.dispatch.pending_count() == 0 and node.loop.timers_pending() == 0
    # Un-marked, so a later notification from another path may still carry it.
    assert op.sequence not in node.kernel.ring_seen[ring_id]


def test_unacked_send_to_an_evicted_shard_reroutes():
    node = FakeNode(resend_limit=3)
    kernel = node.kernel
    sender, target, op = _upward(node)
    kernel.forward_notification(sender, target, (op,), 0.0)
    # Heartbeat eviction: every entity the dead shard owned fails (here the
    # target only; its ring keeps a survivor on a shard that still answers).
    kernel.fail_entity(target, now=0.0)
    node.loop.advance(node.config.resend_backoff)

    assert node.metrics.counter("harness.notify_rerouted").value == 1
    assert "harness.notify_resends" not in node.metrics.counters
    assert not kernel.hierarchy.has_node(target)  # the reroute ran the repair
    first, second = node.datagrams(wire.MSG_NOTIFY)
    survivor = kernel.entities[sender].parent
    assert second["target"] == survivor.value != first["target"]
    assert second["id"] != first["id"] and second["ops"] == (op,)
    assert node.dispatch.pending_count() == 1 and node.dispatch.dead_letter_count() == 0


def _lose_acks(node):
    """Deliver the recorded NOTIFYs, and lose the ACKs they draw."""
    notifies, node.sent = node.sent, []
    for _shard, _kind, payload in notifies:
        message = wire.WireMessage(
            kind=wire.MSG_NOTIFY, sender_shard=0, seq=0, channel=0, payload=payload
        )
        node.dispatch.on_notify(message)
    node.sent = []


def test_dedup_state_holds_only_ids_at_or_above_the_senders_low_water_mark():
    node = FakeNode()
    sender, target, _ = _upward(node)

    def notify(guid):
        op = node.kernel.make_join_op(sender, guid)
        node.kernel.forward_notification(sender, target, (op,), 0.0)

    for index in range(5):  # five in flight at once: all carry mark 1
        notify(f"m{index}")
    node.pump()
    assert node.dispatch.pending_count() == 0
    assert node.dispatch._delivered[0] == (1, {1, 2, 3, 4, 5})

    for index in range(5, 25):  # one at a time: each is all that is in flight
        notify(f"m{index}")
        node.pump()
    assert node.dispatch._delivered[0] == (25, {25})
    assert len(node.kernel.entity(target).mq.peek()) == 25
    assert "runtime.notify_duplicates" not in node.metrics.counters


def test_resend_after_a_lost_ack_is_still_deduped():
    node = FakeNode()
    sender, target, op = _upward(node)
    node.kernel.forward_notification(sender, target, (op,), 0.0)
    _lose_acks(node)  # inserted, but the ACK is lost
    node.loop.advance(node.config.resend_backoff)
    assert node.metrics.counter("harness.notify_resends").value == 1
    node.pump()  # the resend arrives, and this time its ACK too

    assert node.kernel.entity(target).mq.peek() == (op,)
    assert node.metrics.counter("runtime.notify_duplicates").value == 1
    assert node.dispatch.pending_count() == 0


def test_late_copy_below_the_mark_is_acked_and_not_inserted():
    node = FakeNode()
    sender, target, op = _upward(node)
    node.dispatch.on_notify(_notify_message(node, sender, target, op, notify_id=3, low=3))
    late = node.kernel.make_join_op(sender, "unit-member-late")
    node.sent = []
    # Its sender has since rerouted or abandoned id 2: nothing may insert it.
    node.dispatch.on_notify(_notify_message(node, sender, target, late, notify_id=2, low=2))

    assert node.sent == [(1, wire.MSG_NOTIFY_ACK, {"id": 2})]
    assert node.kernel.entity(target).mq.peek() == (op,)
    assert node.metrics.counter("runtime.notify_duplicates").value == 1
