"""Unit tests for the live runtime's building blocks.

Everything here runs without sockets-between-processes: the wire codec and
link tracker are pure functions over bytes, the event loop is exercised
in-process with real (sub-millisecond) timers and a socketpair, the
heartbeat monitor is driven by a fake clock — the state machine's whole
point is that it is clock-injectable and I/O-free — ``SocketDispatch``
runs over the duck-typed node its docstring describes
(``delivery_rigs.FakeNode``: datagrams land on a list, timers on a fake
clock), the forked shard's set-up runs in one bare forked child, and a
real ``NodeRuntime`` is built in this process and bound on loopback, with
a plain socket standing in for its peer shard and its supervisor.
"""

from __future__ import annotations

import ast
import gc
import os
import pickle
import signal
import socket
import struct
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest
from delivery_rigs import FakeNode, upward_join
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples

from repro.core.identifiers import GloballyUniqueId, GroupId, LocallyUniqueId, NodeId
from repro.core.member import MemberInfo, MemberStatus
from repro.core.token import TokenOperation, TokenOperationType
from repro.runtime import wire
from repro.runtime.heartbeat import HeartbeatConfig, HeartbeatMonitor, PeerHealth
from repro.runtime.loop import EventLoop
from repro.runtime.node import NodeRuntime
from repro.runtime.runner import LiveScenarioConfig, LiveScenarioRunner
from repro.runtime.scenario import ShardPlan
from repro.runtime.supervisor import Supervisor, _detach_child, _ShardProc
from repro.runtime.wire import (
    CHANNEL_MULTICAST,
    CHANNEL_UNICAST,
    MAX_DATAGRAM,
    MSG_BYE,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_NOTIFY,
    MSG_NOTIFY_ACK,
    MSG_PEERS,
    MSG_SHUTDOWN,
    MSG_STATUS,
    LinkTracker,
    WireCodec,
    WireError,
    WireMessage,
    decode_datagram,
    encode_frame,
)

# ---------------------------------------------------------------------------
# wire codec
# ---------------------------------------------------------------------------

_A, _B, _C = NodeId("L1-0000-0000"), NodeId("L2-0000-0000"), NodeId("L1-0000-0001")


def _member(explicit_luid: bool, ap: NodeId = _A) -> MemberInfo:
    guid = GloballyUniqueId("host-ü")
    if explicit_luid:
        return MemberInfo(guid, GroupId("g"), ap, luid=LocallyUniqueId("coa-7"))
    return MemberInfo(guid, GroupId("g"), ap, status=MemberStatus.LEFT, epoch=3)


#: Join, handoff and NE-failure operations, with and without an explicit LUID.
_OPS = (
    TokenOperation(TokenOperationType.MEMBER_JOIN, _A, _member(False), sequence=9),
    TokenOperation(TokenOperationType.MEMBER_JOIN, _A, _member(True), sequence=10),
    TokenOperation(
        TokenOperationType.MEMBER_HANDOFF, _C, _member(True, _C), previous_ap=_A, sequence=2**40
    ),
    TokenOperation(
        TokenOperationType.MEMBER_HANDOFF, _C, _member(False, _C), previous_ap=_A, sequence=11
    ),
    TokenOperation(TokenOperationType.NE_FAILURE, _B, entity=_C, sequence=12),
)

#: One schema'd payload per kind, as the decoder returns it.
_EVERY_KIND = (
    (MSG_NOTIFY, {"id": 7, "low": 3, "sender": _A, "target": _B, "ring": "ring-T2", "ops": _OPS}),
    (MSG_NOTIFY_ACK, {"id": 7}),
    (MSG_HEARTBEAT, {"shard": 2}),
    (MSG_HELLO, {"shard": 1}),
    (MSG_PEERS, {"peers": {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 65_535)}, "t0": 12.5}),
    (
        MSG_STATUS,
        {"shard": 1, "idle": True, "vnow": 3.25, "evicted": [0, 3], "readmissions": 2},
    ),
    (MSG_SHUTDOWN, {}),
    (MSG_BYE, {"shard": 3}),
)


def test_codec_roundtrip_preserves_header_and_payload():
    codec = WireCodec(shard_id=3)
    assert sorted(kind for kind, _ in _EVERY_KIND) == sorted(wire._SCHEMAS)
    for kind, payload in _EVERY_KIND:
        message = WireCodec.decode(codec.encode(kind, payload, dest_key=1))
        assert message.kind == kind
        assert message.sender_shard == 3
        assert message.channel == CHANNEL_UNICAST
        assert message.payload == payload
    # Node fields may be given as strings; they come back as identifiers,
    # and a NOTIFY without a low-water mark carries mark 0.
    plain = {"id": 1, "sender": "a", "target": "b", "ring": "r", "ops": ()}
    decoded = WireCodec.decode(codec.encode(MSG_NOTIFY, plain, dest_key=1)).payload
    assert decoded == {**plain, "sender": NodeId("a"), "target": NodeId("b"), "low": 0}


def test_codec_numbers_each_link_stream_independently():
    codec = WireCodec(shard_id=0)
    ack = {"id": 1}
    to_one = [WireCodec.decode(codec.encode(MSG_NOTIFY_ACK, ack, dest_key=1)).seq for _ in range(3)]
    to_two = WireCodec.decode(codec.encode(MSG_NOTIFY_ACK, ack, dest_key=2)).seq
    mcast = WireCodec.decode(
        codec.encode(MSG_HEARTBEAT, {"shard": 0}, dest_key="mcast", channel=CHANNEL_MULTICAST)
    ).seq
    assert to_one == [1, 2, 3]
    assert to_two == 1  # separate unicast link, separate stream
    assert mcast == 1  # multicast channel is its own link


def _empty_notify(sender=_A):
    """A NOTIFY that carries no operation; its last field is a string."""
    return {"id": 1, "sender": sender, "target": _C, "ring": "r", "ops": ()}


def test_codec_rejects_garbage():
    codec = WireCodec(shard_id=0)
    good = codec.encode(MSG_NOTIFY, _empty_notify(), dest_key=1)
    body = len(good) - len(encode_frame(MSG_NOTIFY, _empty_notify()))
    with pytest.raises(WireError, match="short"):
        WireCodec.decode(b"RGB1")
    with pytest.raises(WireError, match="magic"):
        WireCodec.decode(b"XXXX" + good[4:])
    with pytest.raises(WireError, match="version"):
        WireCodec.decode(good[:4] + bytes([1]) + good[5:])
    with pytest.raises(WireError, match="kind"):
        WireCodec.decode(good[:body] + bytes([0]) + good[body + 1 :])
    with pytest.raises(WireError, match="cut off"):
        WireCodec.decode(good[:-1])
    with pytest.raises(WireError, match="trailing"):
        WireCodec.decode(good + b"\0")
    with pytest.raises(WireError, match="UTF-8|utf-8"):
        WireCodec.decode(good[:-1] + b"\xff")
    with pytest.raises(WireError, match="non-empty"):  # an identifier's constructor
        WireCodec.decode(codec.encode(MSG_NOTIFY, _empty_notify(sender=""), dest_key=1))
    with pytest.raises(WireError, match="unknown message kind"):
        codec.encode(0, {}, dest_key=1)
    with pytest.raises(WireError, match="layout"):
        codec.encode(MSG_NOTIFY, {"ops": (1, 2, 3)}, dest_key=1)
    with pytest.raises(WireError, match="layout"):
        codec.encode(MSG_PEERS, {"peers": {0: ("127.0.0.1", 70_000)}, "t0": 0.0}, dest_key=1)
    with pytest.raises(WireError, match="non-finite"):
        peers = codec.encode(MSG_PEERS, {"peers": {}, "t0": float("nan")}, dest_key=1)
        WireCodec.decode(peers)


def test_one_oversize_message_raises():
    with pytest.raises(WireError, match="split the batch"):
        encode_frame(MSG_NOTIFY, _empty_notify(sender=NodeId("x" * MAX_DATAGRAM)))
    with pytest.raises(WireError, match="layout"):  # past a string's length prefix
        encode_frame(MSG_NOTIFY, _empty_notify(sender=NodeId("x" * 70_000)))


def test_retired_kinds_and_version_2_headers_are_wire_errors():
    """Kinds 1 (token hop) and 4 (holder-ack) left the layout in version 3;
    HELLO lost its port field in version 4."""
    good = WireCodec(1).encode(MSG_NOTIFY_ACK, {"id": 1}, dest_key=0)
    body = len(good) - len(encode_frame(MSG_NOTIFY_ACK, {"id": 1}))
    for retired in (1, 4):
        with pytest.raises(WireError, match=f"unknown message kind {retired}"):
            decode_datagram(good[:body] + bytes([retired]) + good[body + 1 :])
        with pytest.raises(WireError, match=f"unknown message kind {retired}"):
            encode_frame(retired, {})
    assert wire.VERSION == 4
    for old in (2, 3):
        with pytest.raises(WireError, match=f"unsupported wire version {old}"):
            decode_datagram(good[:4] + bytes([old]) + good[5:])


_ids = st.text(min_size=1, max_size=10)
_nodes = _ids.map(NodeId)
_u64 = st.integers(0, 2**64 - 1)
_shards = st.integers(-(2**31), 2**31 - 1)
_ports = st.integers(0, 65_535)
_reals = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _token_ops(draw):
    op_type = draw(st.sampled_from(list(TokenOperationType)))
    member = None
    if op_type.concerns_member or draw(st.booleans()):
        explicit = draw(st.booleans())
        member = MemberInfo(
            draw(_ids.map(GloballyUniqueId)),
            draw(_ids.map(GroupId)),
            draw(_nodes),
            luid=draw(_ids.map(LocallyUniqueId)) if explicit else None,
            status=draw(st.sampled_from(list(MemberStatus))),
            epoch=draw(st.integers(0 if explicit else 1, 2**32 - 1)),
        )
    entity = draw(_nodes) if not op_type.concerns_member else draw(st.none() | _nodes)
    previous = draw(_nodes if op_type is TokenOperationType.MEMBER_HANDOFF else st.none() | _nodes)
    return TokenOperation(op_type, draw(_nodes), member, entity, previous, draw(_u64))


def _kind(kind, **fields):
    return st.tuples(st.just(kind), st.fixed_dictionaries(fields))


_messages = st.one_of(
    _kind(
        MSG_NOTIFY,
        id=_u64,
        low=_u64,
        sender=_nodes,
        target=_nodes,
        ring=st.text(max_size=10),
        ops=st.lists(_token_ops(), max_size=3).map(tuple),
    ),
    _kind(MSG_NOTIFY_ACK, id=_u64),
    _kind(MSG_HEARTBEAT, shard=_shards),
    _kind(MSG_HELLO, shard=_shards),
    _kind(
        MSG_PEERS,
        peers=st.dictionaries(_shards, st.tuples(st.text(max_size=15), _ports), max_size=3),
        t0=_reals,
    ),
    _kind(
        MSG_STATUS,
        shard=_shards,
        idle=st.booleans(),
        vnow=_reals,
        evicted=st.lists(_shards, max_size=3),
        readmissions=st.integers(0, 2**32 - 1),
    ),
    _kind(MSG_SHUTDOWN),
    _kind(MSG_BYE, shard=_shards),
)


def _pack_one(batch, shard=5):
    (datagram,) = WireCodec(shard).pack([encode_frame(k, p) for k, p in batch], dest_key=1)
    return datagram


@given(batch=st.lists(_messages, min_size=1, max_size=6))
def test_every_kind_round_trips_in_multi_message_datagrams(batch):
    decoded = decode_datagram(_pack_one(batch))
    assert [(m.kind, m.payload) for m in decoded] == batch
    assert {(m.sender_shard, m.seq, m.channel) for m in decoded} == {(5, 1, CHANNEL_UNICAST)}


def _caught_or_well_formed(data: bytes) -> None:
    """Decoding ``data`` raises WireError or yields messages that re-encode
    to themselves: never another exception, never a half-read payload."""
    try:
        messages = decode_datagram(data)
    except WireError:
        return
    for message in messages:
        again = WireCodec(message.sender_shard).encode(message.kind, message.payload, dest_key=0)
        assert WireCodec.decode(again).payload == message.payload


#: A datagram's first bytes up to its channel: lets random tails reach the body.
_PREFIX = wire.MAGIC + bytes([wire.VERSION, CHANNEL_UNICAST])


@settings(max_examples=examples(10))
@given(data=st.binary(max_size=200) | st.binary(max_size=200).map(lambda tail: _PREFIX + tail))
@example(data=_PREFIX + bytes(12) + b"\x00\x01" + encode_frame(MSG_NOTIFY_ACK, {"id": 1}))
def test_wire_fuzz_arbitrary_bytes(data):
    _caught_or_well_formed(data)


@settings(max_examples=examples(10))
@given(
    batch=st.lists(_messages, min_size=1, max_size=4), where=st.integers(0), bit=st.integers(0, 7)
)
def test_wire_fuzz_damaged_datagrams(batch, where, bit):
    datagram = _pack_one(batch)
    _caught_or_well_formed(datagram[: where % len(datagram)])
    flipped = bytearray(datagram)
    flipped[where % len(datagram)] ^= 1 << bit
    _caught_or_well_formed(bytes(flipped))


def test_every_truncation_and_bit_flip_of_a_notify_is_caught_or_well_formed():
    datagram = _pack_one(_EVERY_KIND[:3])
    for cut in range(len(datagram)):
        with pytest.raises(WireError):
            decode_datagram(datagram[:cut])
    for index in range(len(datagram)):
        for bit in range(8):
            flipped = bytearray(datagram)
            flipped[index] ^= 1 << bit
            _caught_or_well_formed(bytes(flipped))


@settings(max_examples=examples(20))
@given(sizes=st.lists(st.integers(1, 25_000), min_size=1, max_size=12))
def test_a_large_turn_splits_in_order_with_nothing_lost(sizes):
    frames = [
        encode_frame(MSG_NOTIFY, _empty_notify(sender=NodeId(f"{index}:" + "x" * size)))
        for index, size in enumerate(sizes)
    ]
    datagrams = WireCodec(0).pack(frames, dest_key=1)
    assert all(len(datagram) <= MAX_DATAGRAM for datagram in datagrams)
    decoded = [decode_datagram(datagram) for datagram in datagrams]
    assert [messages[0].seq for messages in decoded] == list(range(1, len(datagrams) + 1))
    flat = [message.payload["sender"] for messages in decoded for message in messages]
    assert flat == [NodeId(f"{index}:" + "x" * size) for index, size in enumerate(sizes)]
    # As few datagrams as fit: no datagram could have taken its successor's
    # first message.
    lengths = [len(frame) for frame in frames]
    first = 0
    for datagram, messages in zip(datagrams[:-1], decoded):
        first += len(messages)
        assert len(datagram) + lengths[first] > MAX_DATAGRAM


def test_link_tracker_classifies_new_duplicate_reordered():
    tracker = LinkTracker()

    def msg(seq, shard=1, channel=CHANNEL_UNICAST):
        return WireMessage(MSG_NOTIFY_ACK, sender_shard=shard, seq=seq, channel=channel, payload={})

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


def _ack(seq):
    return WireMessage(MSG_NOTIFY_ACK, sender_shard=1, seq=seq, channel=CHANNEL_UNICAST, payload={})


def test_link_tracker_knows_a_replay_far_behind_the_window_is_a_duplicate():
    tracker = LinkTracker()
    assert all(tracker.observe(_ack(seq)) == "new" for seq in range(1, 20_001))
    replays = [tracker.observe(_ack(seq)) for seq in range(1, 20_001, 97)]

    assert replays == ["duplicate"] * 207
    stats = tracker.summary()["1:0"]
    assert (stats["duplicates"], stats["reordered"], stats["gaps"]) == (207, 0, 0)


def test_link_tracker_fills_a_reordered_gap_late_and_gives_up_a_hole_past_the_window():
    tracker = LinkTracker()
    verdicts = [tracker.observe(_ack(seq)) for seq in (1, 2, 6, 4, 3, 5, 4, 6)]
    assert verdicts == ["new", "new", "new", "reordered", "reordered", "reordered"] + [
        "duplicate"
    ] * 2
    stats = tracker.summary()["1:0"]
    assert (stats["reordered"], stats["gaps"], stats["duplicates"]) == (3, 0, 2)

    # Seq 7 is lost for good: once a window's worth has arrived above it,
    # its hole is given up, and a very late copy reads as a duplicate.
    top = 8 + wire.LINK_WINDOW
    assert all(tracker.observe(_ack(seq)) == "new" for seq in range(8, top + 1))
    assert tracker.observe(_ack(7)) == "duplicate"
    assert tracker.observe(_ack(top + 1)) == "new"
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
    deadline = loop.call_later(2.0, loop.stop)
    loop.run()
    deadline.cancel()
    loop.remove_reader(right)
    loop.close()
    left.close()
    right.close()
    assert got == [b"ping"]


def test_loop_run_until_times_out():
    # With nothing to read, the loop runs until a deadline timer stops it.
    loop = EventLoop()
    start = loop.clock()
    loop.call_later(0.05, loop.stop)
    loop.run()
    assert loop.clock() - start >= 0.05
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


def _receiving_node():
    """A fake shard 0 that owns the ring ``_upward``'s NOTIFYs target (the
    sender's ring stays on shard 1), with that sender, target and join."""
    probe = FakeNode()
    _sender, target, _op = _upward(probe)
    node = FakeNode(local_rings=[probe.kernel.hierarchy.ring_of(target).ring_id])
    return node, _upward(node)


def _notify_message(node, sender, target, op, notify_id=7, sender_shard=1, low=1):
    payload = {
        "id": notify_id,
        "sender": sender,
        "target": target,
        "ring": node.kernel.hierarchy.ring_of(target).ring_id,
        "ops": (op,),
        "low": low,
    }
    return WireCodec.decode(WireCodec(sender_shard).encode(MSG_NOTIFY, payload, dest_key=0))


def test_on_notify_always_acks_and_inserts_a_duplicate_once():
    node, (sender, target, op) = _receiving_node()
    message = _notify_message(node, sender, target, op)
    node.dispatch.on_notify(message)
    node.dispatch.on_notify(message)  # the resend after a lost ack

    assert node.sent == [(1, wire.MSG_NOTIFY_ACK, {"id": 7})] * 2
    assert node.kernel.entity(target).mq.peek() == (op,)
    assert node.metrics.counter("runtime.notify_duplicates").value == 1
    assert node.metrics.counter("harness.notifications_delivered").value == 1
    assert node.rounds_requested == [node.kernel.hierarchy.ring_of(target).ring_id]
    # The dedup key is (sender_shard, id): another shard's id 7 is another message.
    other_ring = node.kernel.hierarchy.bottom_rings()[1]
    node.plan = ShardPlan(
        num_shards=3, ring_owner={**node.plan.ring_owner, other_ring.ring_id: 2}, top_shard=0
    )
    other = node.kernel.make_join_op(other_ring.leader, "unit-member-2")
    node.dispatch.on_notify(
        _notify_message(node, other_ring.leader, target, other, sender_shard=2)
    )
    assert node.kernel.entity(target).mq.peek() == (op, other)


def test_on_notify_ack_cancels_the_armed_check():
    node = FakeNode()
    sender, target, op = _upward(node)
    node.kernel.forward_notification(sender, target, (op,), 0.0)
    (payload,) = node.datagrams(wire.MSG_NOTIFY)
    assert node.dispatch.pending_count() == 1 and node.loop.timers_pending() == 1

    ack = WireCodec.decode(WireCodec(1).encode(MSG_NOTIFY_ACK, {"id": payload["id"]}, dest_key=0))
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
    assert second["target"] == survivor != first["target"]
    assert second["id"] != first["id"] and second["ops"] == (op,)
    assert node.dispatch.pending_count() == 1 and node.dispatch.dead_letter_count() == 0


def _lose_acks(node):
    """Deliver the recorded NOTIFYs, and lose the ACKs they draw."""
    notifies, node.sent = node.sent, []
    for datagram in notifies:
        node.receive(*datagram)
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
    assert node.dispatch._delivered[1] == (1, {1, 2, 3, 4, 5})

    for index in range(5, 25):  # one at a time: each is all that is in flight
        notify(f"m{index}")
        node.pump()
    assert node.dispatch._delivered[1] == (25, {25})
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
    node, (sender, target, op) = _receiving_node()
    node.dispatch.on_notify(_notify_message(node, sender, target, op, notify_id=3, low=3))
    late = node.kernel.make_join_op(sender, "unit-member-late")
    node.sent = []
    # Its sender has since rerouted or abandoned id 2: nothing may insert it.
    node.dispatch.on_notify(_notify_message(node, sender, target, late, notify_id=2, low=2))

    assert node.sent == [(1, wire.MSG_NOTIFY_ACK, {"id": 2})]
    assert node.kernel.entity(target).mq.peek() == (op,)
    assert node.metrics.counter("runtime.notify_duplicates").value == 1


def test_notify_no_peer_could_have_sent_is_a_wire_error_dropped_unacked():
    """A NOTIFY is taken only for a ring this shard owns, from a sender whose
    ring the claimed sending shard owns."""
    node, (sender, target, op) = _receiving_node()
    for forged in (
        _notify_message(node, NodeId("ghost"), target, op),  # a sender no shard hosts
        _notify_message(node, target, target, op),  # shard 0's node, claimed by shard 1
        _notify_message(node, sender, sender, op),  # a ring shard 1 owns, sent to shard 0
    ):
        node.dispatch.on_notify(forged)

    assert node.sent == []
    assert node.metrics.counter("runtime.wire_errors").value == 3
    assert "harness.notifications_delivered" not in node.metrics.counters
    assert not node.kernel.entity(target).mq.peek() and not node.kernel.entity(sender).mq.peek()


# ---------------------------------------------------------------------------
# NodeRuntime in this process, bound on loopback
# ---------------------------------------------------------------------------


@pytest.fixture
def live_node(tmp_path):
    """Shard 0 of a two-shard fleet, bound on loopback but never started:
    ``peer`` stands in for both shard 1 and the supervisor.  The node
    mutates the hierarchy its config carries; the runner is this fixture's
    own, so nothing else uses it."""
    runner = LiveScenarioRunner(
        LiveScenarioConfig(ring_size=2, height=2, num_shards=2, events=2, multicast=False)
    )
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    peer.settimeout(2.0)
    config = runner.build_configs(str(tmp_path))[0]
    node = NodeRuntime(replace(config, supervisor_port=peer.getsockname()[1]))
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    node._bind(sock)
    node.peers = {1: peer.getsockname()}
    yield node, peer
    node._close()
    peer.close()


def _run_one_turn(node, body) -> None:
    """Run ``body`` as one timer turn of the node's loop, then stop."""

    def turn():
        body()
        node.loop.stop()

    node.loop.call_later(0.0, turn)
    node.loop.run()


def _received(peer):
    """Every datagram waiting at ``peer``, decoded."""
    datagrams = []
    peer.setblocking(False)
    try:
        while True:
            datagrams.append(decode_datagram(peer.recv(65_536)))
    except BlockingIOError:
        return datagrams
    finally:
        peer.settimeout(2.0)


def test_node_sends_one_datagram_per_destination_per_turn(live_node):
    node, peer = live_node

    def body():
        for notify_id in range(40):
            node.send_to_shard(1, MSG_NOTIFY_ACK, {"id": notify_id})
        node.send_to_supervisor(MSG_BYE, {"shard": 0})

    _run_one_turn(node, body)
    (to_shard, to_supervisor) = _received(peer)
    assert [m.payload["id"] for m in to_shard] == list(range(40))
    assert [m.kind for m in to_supervisor] == [MSG_BYE]
    assert node.metrics.counter("runtime.datagrams_sent").value == 2


def test_node_flushes_what_it_queued_before_the_halt_and_nothing_after(live_node):
    node, peer = live_node

    def body():
        node.send_to_shard(1, MSG_NOTIFY_ACK, {"id": 1})
        node._halt()
        node.send_to_shard(1, MSG_NOTIFY_ACK, {"id": 2})
        node.send_to_supervisor(MSG_BYE, {"shard": 0})

    _run_one_turn(node, body)
    (only,) = _received(peer)
    assert [m.payload for m in only] == [{"id": 1}]


def test_node_flushes_its_outbox_when_a_handler_stops_the_loop(live_node):
    node, peer = live_node
    peer.sendto(WireCodec(-1).encode(MSG_SHUTDOWN, {}, dest_key=0), node.sock.getsockname())
    node.loop.call_later(5.0, node.loop.stop)  # only if the SHUTDOWN never lands
    node.loop.run()  # the SHUTDOWN handler writes the result, sends BYE, stops
    assert node.finalized and os.path.exists(node.config.result_path)
    (bye,) = _received(peer)
    assert [(m.kind, m.payload) for m in bye] == [(MSG_BYE, {"shard": 0})]


def test_node_drops_its_own_multicast_echo_from_the_header(live_node):
    node, _peer = live_node

    def echo(shard):
        """A heartbeat from ``shard`` whose body is an unknown kind."""
        good = WireCodec(shard).encode(
            MSG_HEARTBEAT, {"shard": shard}, dest_key="mcast", channel=CHANNEL_MULTICAST
        )
        at = len(good) - len(encode_frame(MSG_HEARTBEAT, {"shard": shard}))
        return good[:at] + b"\xff" + good[at + 1 :]

    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sender.sendto(echo(0), node.sock.getsockname())
        node._on_datagram(node.sock)
        assert node.metrics.counter("runtime.wire_errors").value == 0  # never decoded
        sender.sendto(echo(1), node.sock.getsockname())
        node._on_datagram(node.sock)
        assert node.metrics.counter("runtime.wire_errors").value == 1  # a peer's is decoded
    finally:
        sender.close()


def _read_from(sock, node, kind, payload, shard) -> None:
    """``sock`` sends one ``kind`` message whose header claims ``shard``, and
    the node reads it."""
    sock.sendto(WireCodec(shard).encode(kind, payload, dest_key=0), node.sock.getsockname())
    node._on_datagram(node.sock)


def _acceptable(kind, node):
    """A message of ``kind`` the node would act on from the right socket: its
    header shard, its payload, and a probe that turns true once it acted."""
    # A bottom-ring leader on shard 1, and its parent in shard 0's top ring.
    sender, target, op = upward_join(node.kernel, "authority-member")
    if kind == MSG_PEERS:
        peers = {0: node.sock.getsockname(), 1: node.peers[1]}
        return -1, {"peers": peers, "t0": node.loop.clock()}, lambda: node.started
    if kind == MSG_SHUTDOWN:
        return -1, {}, lambda: node.finalized
    if kind == MSG_NOTIFY:
        ring = node.hierarchy.ring_of(target).ring_id
        payload = {"id": 1, "low": 1, "sender": sender, "target": target, "ring": ring, "ops": (op,)}
        return 1, payload, lambda: "harness.notifications_delivered" in node.metrics.counters
    if kind == MSG_NOTIFY_ACK:
        node.kernel.forward_notification(target, sender, (op,), 0.0)  # pending at shard 1
        notify_id = node.dispatch.notifier.low_water()
        return 1, {"id": notify_id}, lambda: node.dispatch.pending_count() == 0
    heard = []
    node.monitor = SimpleNamespace(heartbeat_received=heard.append)
    return 1, {"shard": 1}, lambda: heard == [1]


@pytest.mark.parametrize(
    "kind", [MSG_PEERS, MSG_SHUTDOWN, MSG_NOTIFY, MSG_NOTIFY_ACK, MSG_HEARTBEAT]
)
def test_node_takes_each_kind_only_from_the_socket_entitled_to_send_it(live_node, kind):
    """Control kinds only from the supervisor's address, peer kinds only from
    the address PEERS registered for the header's shard."""
    node, peer = live_node
    shard, payload, acted = _acceptable(kind, node)
    stranger = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        _read_from(stranger, node, kind, payload, shard)
    finally:
        stranger.close()
    assert not acted()
    assert node.metrics.counter("runtime.wire_errors").value == 1
    assert "1:0" not in node.tracker.summary()  # a forged datagram is not shard 1's
    _read_from(peer, node, kind, payload, shard)  # the supervisor's and shard 1's
    assert acted()
    assert node.metrics.counter("runtime.wire_errors").value == 1


def test_a_peer_heartbeat_before_peers_is_dropped_uncounted(live_node):
    """A faster peer may heartbeat before this node's PEERS lands: there is
    no registered address to check it against, and it is no wire error."""
    node, peer = live_node
    node.peers = {}
    _read_from(peer, node, MSG_HEARTBEAT, {"shard": 1}, 1)
    assert node.metrics.counter("runtime.wire_errors").value == 0
    assert node.tracker.summary() == {}


#: The pre-schema datagram layout: a header, then a pickled payload dict.
_PICKLED_HEADER = struct.Struct("!4sBBBiQ")


def test_stray_datagrams_are_counted_and_dropped_not_fatal(live_node):
    """A well-formed pickle under kind NOTIFY once reached ``on_notify`` and
    killed the shard with a KeyError; now it and a NOTIFY whose body does not
    fit the layout are wire errors, and the node reads on."""
    node, peer = live_node
    stray = [
        _PICKLED_HEADER.pack(b"RGB1", 1, MSG_NOTIFY, 0, 1, 1) + pickle.dumps({"x": 1}),
        _PREFIX + struct.pack("!iQH", 1, 1, 1) + struct.pack("!BH", MSG_NOTIFY, 7) + b'{"x": 1',
    ]
    ack = WireCodec(1).encode(MSG_NOTIFY_ACK, {"id": 99}, dest_key=0)
    for data in (*stray, ack):  # all from shard 1's registered address
        peer.sendto(data, node.sock.getsockname())
    node._on_datagram(node.sock)
    assert node.metrics.counter("runtime.wire_errors").value == 2
    assert node.metrics.counter("runtime.datagrams_received").value == 3
    assert node.tracker.summary()["1:0"]["received"] == 1  # the ack was read


def test_supervisor_drops_a_hello_it_cannot_read():
    """The supervisor takes HELLO, STATUS and BYE only from the socket it
    bound for the header's shard: a stranger claiming shard 0 is ignored,
    readable or not, and PEERS goes only to shard 0's own socket."""
    supervisor = Supervisor({})
    supervisor.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    supervisor.sock.bind(("127.0.0.1", 0))
    supervisor.sock.settimeout(0.05)
    shard_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    shard_sock.bind(("127.0.0.1", 0))
    shard_sock.settimeout(0.05)
    stranger = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    stranger.bind(("127.0.0.1", 0))
    stranger.settimeout(0.05)
    proc = _ShardProc(shard=0, process=None, config=None, addr=shard_sock.getsockname())
    supervisor.procs[0] = proc
    hello = WireCodec(0).encode(MSG_HELLO, {"shard": 0}, 0)
    status = WireCodec(0).encode(
        MSG_STATUS,
        {"shard": 0, "idle": True, "vnow": 1.0, "evicted": [], "readmissions": 0},
        0,
    )
    bye = WireCodec(0).encode(MSG_BYE, {"shard": 0}, 0)

    def pump() -> None:
        for message, addr in supervisor._drain():
            supervisor._handle(message, addr)

    try:
        address = supervisor.sock.getsockname()
        shard_sock.sendto(
            _PICKLED_HEADER.pack(b"RGB1", 1, MSG_HELLO, 0, 0, 1) + pickle.dumps({"shard": 0}),
            address,
        )
        shard_sock.sendto(hello[:-1], address)
        for data in (hello, status, bye):
            stranger.sendto(data, address)
        pump()
        assert not proc.hello and not proc.bye and proc.last_status is None
        shard_sock.sendto(hello, address)
        pump()
        assert proc.hello
        supervisor.t0 = 1.0  # after the broadcast a repeated HELLO re-sends PEERS
        stranger.sendto(hello, address)
        shard_sock.sendto(hello, address)
        pump()
        peers = wire.decode_datagram(shard_sock.recvfrom(65536)[0])
        assert [m.kind for m in peers] == [MSG_PEERS]
        assert peers[0].payload["peers"] == {0: shard_sock.getsockname()}
        with pytest.raises(socket.timeout):
            stranger.recvfrom(65536)
    finally:
        for sock in (stranger, shard_sock, supervisor.sock):
            sock.close()
