"""Wire codec for the live runtime's UDP datagrams.

A datagram is a fixed binary header followed by one or more protocol
messages.  The header carries

* a magic/version pair (foreign or stale datagrams are rejected loudly),
* the link channel (unicast stream or the multicast heartbeat group),
* the sending shard id,
* a *per-link sequence number*: each sender numbers the datagrams it emits
  towards each destination (unicast peer or the multicast group)
  independently, so every receiver can account duplicates, reordering and
  gaps per link without any cross-link coordination,
* the number of messages that follow.

A node sends everything one loop turn queued for one destination as few
datagrams as fit :data:`MAX_DATAGRAM` (:meth:`WireCodec.pack`), so sequence
numbers and the :class:`LinkTracker` count datagrams, not messages.

Each message is ``kind(B) length(H)`` and a body with an explicit layout per
kind (``_SCHEMAS``): integers are fixed-width ``struct`` fields, strings are
length-prefixed UTF-8, enums travel as their index, and a
:class:`~repro.core.token.TokenOperation` (with its
:class:`~repro.core.member.MemberInfo`) is written field by field and
rebuilt through its validating constructors.  Nothing on the socket is
trusted: a short, trailing, out-of-range or non-UTF-8 datagram raises
:class:`WireError`, so a stray datagram is counted and dropped instead of
reaching a handler with a payload it cannot read.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.identifiers import GloballyUniqueId, GroupId, LocallyUniqueId, NodeId
from repro.core.member import MemberInfo, MemberStatus
from repro.core.token import TokenOperation, TokenOperationType

__all__ = [
    "CHANNEL_MULTICAST",
    "CHANNEL_UNICAST",
    "LINK_WINDOW",
    "MAX_DATAGRAM",
    "Header",
    "LinkTracker",
    "MSG_BYE",
    "MSG_HEARTBEAT",
    "MSG_HELLO",
    "MSG_NOTIFY",
    "MSG_NOTIFY_ACK",
    "MSG_PEERS",
    "MSG_SHUTDOWN",
    "MSG_STATUS",
    "WireCodec",
    "WireError",
    "WireMessage",
    "decode_datagram",
    "decode_header",
    "decode_messages",
    "encode_frame",
]

#: Datagram magic + codec version.  Bump the version on any layout change.
MAGIC = b"RGB1"
VERSION = 3

#: Message kinds.  Data plane (kinds 1 and 4, the token hop and the
#: holder-acknowledgement, are retired: neither changes a receiver's state,
#: so the kernel only counts them):
MSG_NOTIFY = 2
MSG_NOTIFY_ACK = 3
#: Failure detection:
MSG_HEARTBEAT = 5
#: Control plane (supervisor <-> node):
MSG_HELLO = 16
MSG_PEERS = 17
MSG_STATUS = 18
MSG_SHUTDOWN = 19
MSG_BYE = 20

#: Link channels: a sender numbers its unicast stream towards each peer and
#: its multicast stream independently, so a receiver seeing both can track
#: them as two links instead of one stream with phantom gaps.
CHANNEL_UNICAST = 0
CHANNEL_MULTICAST = 1

#: magic(4s) version(B) channel(B) shard(i) seq(Q) count(H)
_HEADER = struct.Struct("!4sBBiQH")
#: kind(B) length(H), in front of every message body.
_FRAME = struct.Struct("!BH")

#: Stay comfortably under the UDP datagram ceiling (65507 bytes of payload
#: on loopback); one message approaching this indicates a logic error.
MAX_DATAGRAM = 60_000


class WireError(RuntimeError):
    """A datagram failed validation, or a message exceeded the size budget."""


class WireMessage(NamedTuple):
    """One decoded message; the messages of one datagram share its header."""

    kind: int
    sender_shard: int
    seq: int
    channel: int
    payload: dict


class Header(NamedTuple):
    """A datagram's validated header."""

    channel: int
    shard: int
    seq: int
    count: int


# -- field layouts -------------------------------------------------------------

_U16 = struct.Struct("!H")
_U64 = struct.Struct("!Q")
_I32 = struct.Struct("!i")
#: id(Q) low(Q) ops(H)
_NOTIFY = struct.Struct("!QQH")
#: shard(i) port(H)
_HELLO = struct.Struct("!iH")
#: t0(d) peers(H)
_PEERS = struct.Struct("!dH")
#: shard(i) idle(B) vnow(d) readmissions(I) evicted(H)
_STATUS = struct.Struct("!iBdIH")
#: op_type(B) flags(B) sequence(Q)
_OP = struct.Struct("!BBQ")
#: status(B) has_luid(B) epoch(I)
_MEMBER = struct.Struct("!BBI")

_OP_TYPES = tuple(TokenOperationType)
_OP_INDEX = {op_type: index for index, op_type in enumerate(_OP_TYPES)}
_STATUSES = tuple(MemberStatus)
_STATUS_INDEX = {status: index for index, status in enumerate(_STATUSES)}
#: TokenOperation flag bits: which optional fields follow.
_HAS_MEMBER, _HAS_ENTITY, _HAS_PREVIOUS = 1, 2, 4


class _Reader:
    """A cursor over one message body; every read is bounds-checked."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, pos: int, end: int) -> None:
        self.data = data
        self.pos = pos
        self.end = end

    def fixed(self, layout: struct.Struct) -> tuple:
        pos = self.pos
        if pos + layout.size > self.end:
            raise WireError("short message body")
        self.pos = pos + layout.size
        return layout.unpack_from(self.data, pos)

    def text(self, ids: Optional["_Ids"] = None):
        """A length-prefixed UTF-8 string; with ``ids``, the identifier it
        names."""
        data, pos, end = self.data, self.pos, self.end
        start = pos + 2
        if start > end:
            raise WireError("short string length")
        stop = start + (data[pos] << 8 | data[pos + 1])
        if stop > end:
            raise WireError("short string")
        self.pos = stop
        if ids is None:
            return data[start:stop].decode("utf-8")
        return ids[data[start:stop]]


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise WireError(f"non-finite number {value}")
    return value


def _flag(value: int) -> bool:
    if value > 1:
        raise WireError(f"boolean field holds {value}")
    return value == 1


class _Ids(dict):
    """Raw bytes -> identifier of one class, built through its validating
    constructor on first sight (a decode and a constructor call saved per
    repeat: a ring's node ids recur in every NOTIFY).  A memo of a pure
    function, so what it holds never changes a result; bounded: past
    :data:`_IDS_LIMIT` entries it starts over."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[str], object]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, raw: bytes) -> object:
        value = self.make(raw.decode("utf-8"))
        if len(self) >= _IDS_LIMIT:
            self.clear()
        self[raw] = value
        return value


_IDS_LIMIT = 1 << 16
_NODES = _Ids(NodeId)
_GUIDS = _Ids(GloballyUniqueId)
_GROUPS = _Ids(GroupId)
_LUIDS = _Ids(LocallyUniqueId)


#: Identifier or string -> its length-prefixed UTF-8 encoding (the sending
#: side's counterpart of :class:`_Ids`, bounded the same way).
_TEXTS: Dict[object, bytes] = {}


def _put_text(out: bytearray, value: object) -> None:
    raw = _TEXTS.get(value)
    if raw is None:
        encoded = str(value).encode("utf-8")
        raw = _U16.pack(len(encoded)) + encoded
        if len(_TEXTS) >= _IDS_LIMIT:
            _TEXTS.clear()
        _TEXTS[value] = raw
    out += raw


# -- token operations ----------------------------------------------------------


def _put_op(out: bytearray, op: TokenOperation) -> None:
    member = op.member
    flags = (
        (_HAS_MEMBER if member is not None else 0)
        | (_HAS_ENTITY if op.entity is not None else 0)
        | (_HAS_PREVIOUS if op.previous_ap is not None else 0)
    )
    out += _OP.pack(_OP_INDEX[op.op_type], flags, op.sequence)
    _put_text(out, op.origin)
    if member is not None:
        luid = member._luid
        out += _MEMBER.pack(_STATUS_INDEX[member.status], luid is not None, member.epoch)
        _put_text(out, member.guid)
        _put_text(out, member.group)
        _put_text(out, member.ap)
        if luid is not None:
            _put_text(out, luid)
    if op.entity is not None:
        _put_text(out, op.entity)
    if op.previous_ap is not None:
        _put_text(out, op.previous_ap)


def _read_op(reader: _Reader) -> TokenOperation:
    type_index, flags, sequence = reader.fixed(_OP)
    if type_index >= len(_OP_TYPES) or flags > 7:
        raise WireError(f"bad token operation head ({type_index}, {flags})")
    origin = reader.text(_NODES)
    member = entity = previous = None
    if flags & _HAS_MEMBER:
        status, has_luid, epoch = reader.fixed(_MEMBER)
        if status >= len(_STATUSES):
            raise WireError(f"bad member status {status}")
        explicit = _flag(has_luid)
        guid = reader.text(_GUIDS)
        group = reader.text(_GROUPS)
        ap = reader.text(_NODES)
        luid = reader.text(_LUIDS) if explicit else None
        member = MemberInfo(guid, group, ap, luid, _STATUSES[status], epoch)
    if flags & _HAS_ENTITY:
        entity = reader.text(_NODES)
    if flags & _HAS_PREVIOUS:
        previous = reader.text(_NODES)
    return TokenOperation(_OP_TYPES[type_index], origin, member, entity, previous, sequence)


# -- one layout per kind -------------------------------------------------------


def _put_notify(out: bytearray, payload: dict) -> None:
    ops = payload["ops"]
    # Without a low-water mark the NOTIFY carries 0, which never advances
    # the receiver's mark (``SocketDispatch.on_notify``).
    out += _NOTIFY.pack(payload["id"], payload.get("low", 0), len(ops))
    _put_text(out, payload["sender"])
    _put_text(out, payload["target"])
    _put_text(out, payload["ring"])
    for op in ops:
        _put_op(out, op)


def _read_notify(reader: _Reader) -> dict:
    notify_id, low, count = reader.fixed(_NOTIFY)
    return {
        "id": notify_id,
        "low": low,
        "sender": reader.text(_NODES),
        "target": reader.text(_NODES),
        "ring": reader.text(),
        "ops": tuple([_read_op(reader) for _ in range(count)]),
    }


def _put_notify_ack(out: bytearray, payload: dict) -> None:
    out += _U64.pack(payload["id"])


def _read_notify_ack(reader: _Reader) -> dict:
    return {"id": reader.fixed(_U64)[0]}


def _put_shard(out: bytearray, payload: dict) -> None:
    out += _I32.pack(payload["shard"])


def _read_shard(reader: _Reader) -> dict:
    return {"shard": reader.fixed(_I32)[0]}


def _put_hello(out: bytearray, payload: dict) -> None:
    out += _HELLO.pack(payload["shard"], payload["port"])


def _read_hello(reader: _Reader) -> dict:
    shard, port = reader.fixed(_HELLO)
    return {"shard": shard, "port": port}


def _put_peers(out: bytearray, payload: dict) -> None:
    peers = payload["peers"]
    out += _PEERS.pack(payload["t0"], len(peers))
    for shard, (host, port) in peers.items():
        out += _I32.pack(shard)
        _put_text(out, host)
        out += _U16.pack(port)


def _read_peers(reader: _Reader) -> dict:
    t0, count = reader.fixed(_PEERS)
    peers = {}
    for _ in range(count):
        (shard,) = reader.fixed(_I32)
        host = reader.text()
        peers[shard] = (host, reader.fixed(_U16)[0])
    return {"peers": peers, "t0": _finite(t0)}


def _put_status(out: bytearray, payload: dict) -> None:
    evicted = payload["evicted"]
    out += _STATUS.pack(
        payload["shard"], payload["idle"], payload["vnow"], payload["readmissions"], len(evicted)
    )
    for shard in evicted:
        out += _I32.pack(shard)


def _read_status(reader: _Reader) -> dict:
    shard, idle, vnow, readmissions, count = reader.fixed(_STATUS)
    return {
        "shard": shard,
        "idle": _flag(idle),
        "vnow": _finite(vnow),
        "evicted": [reader.fixed(_I32)[0] for _ in range(count)],
        "readmissions": readmissions,
    }


def _put_nothing(out: bytearray, payload: dict) -> None:
    pass


def _read_nothing(reader: _Reader) -> dict:
    return {}


_Schema = Tuple[Callable[[bytearray, dict], None], Callable[[_Reader], dict]]

_SCHEMAS: Dict[int, _Schema] = {
    MSG_NOTIFY: (_put_notify, _read_notify),
    MSG_NOTIFY_ACK: (_put_notify_ack, _read_notify_ack),
    MSG_HEARTBEAT: (_put_shard, _read_shard),
    MSG_HELLO: (_put_hello, _read_hello),
    MSG_PEERS: (_put_peers, _read_peers),
    MSG_STATUS: (_put_status, _read_status),
    MSG_SHUTDOWN: (_put_nothing, _read_nothing),
    MSG_BYE: (_put_shard, _read_shard),
}


# -- frames and datagrams ------------------------------------------------------


def encode_frame(kind: int, payload: dict) -> bytes:
    """One message (kind, length, body); raises :class:`WireError` on an
    unknown kind, a payload its layout cannot hold, or a message too large
    for any datagram."""
    schema = _SCHEMAS.get(kind)
    if schema is None:
        raise WireError(f"unknown message kind {kind}")
    body = bytearray()
    try:
        schema[0](body, payload)
    except (KeyError, TypeError, struct.error) as exc:
        raise WireError(f"payload does not fit the layout of kind {kind}: {exc!r}") from exc
    size = _HEADER.size + _FRAME.size + len(body)
    if size > MAX_DATAGRAM:
        raise WireError(
            f"message of kind {kind} is {size} bytes (limit {MAX_DATAGRAM}); split the batch"
        )
    return _FRAME.pack(kind, len(body)) + body


def decode_header(data: bytes) -> Header:
    """Validate and unpack a datagram's header, leaving the body unread."""
    if len(data) < _HEADER.size:
        raise WireError(f"short datagram ({len(data)} bytes)")
    magic, version, channel, shard, seq, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version}")
    if channel not in (CHANNEL_UNICAST, CHANNEL_MULTICAST):
        raise WireError(f"unknown channel {channel}")
    if count == 0:
        raise WireError("datagram carries no message")
    return Header(channel, shard, seq, count)


def decode_messages(data: bytes, header: Header) -> List[WireMessage]:
    """The messages behind ``header``; every byte must belong to one."""
    messages: List[WireMessage] = []
    total = len(data)
    channel, shard, seq, count = header
    reader = _Reader(data, _HEADER.size, total)
    for _ in range(count):
        start = reader.pos + _FRAME.size
        if start > total:
            raise WireError("short datagram: a message frame is cut off")
        kind, size = _FRAME.unpack_from(data, reader.pos)
        schema = _SCHEMAS.get(kind)
        if schema is None:
            raise WireError(f"unknown message kind {kind}")
        end = start + size
        if end > total:
            raise WireError(f"short datagram: message of kind {kind} is cut off")
        reader.pos, reader.end = start, end
        try:
            payload = schema[1](reader)
        except (ValueError, struct.error) as exc:  # bad UTF-8, empty ids, bad ops
            raise WireError(f"malformed message of kind {kind}: {exc}") from exc
        if reader.pos != end:
            raise WireError(f"{end - reader.pos} trailing bytes in a message of kind {kind}")
        messages.append(WireMessage(kind, shard, seq, channel, payload))
    if reader.pos != total:
        raise WireError(f"{total - reader.pos} trailing bytes after the last message")
    return messages


def decode_datagram(data: bytes) -> List[WireMessage]:
    """Every message of one datagram, in order."""
    return decode_messages(data, decode_header(data))


class WireCodec:
    """Encode datagrams for one shard, numbering each link's stream."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self._next_seq: Dict[Tuple[object, int], int] = {}

    def _header(self, dest_key: object, channel: int, count: int) -> bytes:
        link = (dest_key, channel)
        seq = self._next_seq.get(link, 0) + 1
        self._next_seq[link] = seq
        return _HEADER.pack(MAGIC, VERSION, channel, self.shard_id, seq, count)

    def pack(
        self, frames: Sequence[bytes], dest_key: object, channel: int = CHANNEL_UNICAST
    ) -> List[bytes]:
        """Pack ``frames`` (from :func:`encode_frame`), in order, into as few
        datagrams towards ``dest_key`` as fit :data:`MAX_DATAGRAM`."""
        datagrams: List[bytes] = []
        budget = MAX_DATAGRAM - _HEADER.size
        start, size = 0, 0
        for index, frame in enumerate(frames):
            if size + len(frame) > budget and index > start:
                body = b"".join(frames[start:index])
                datagrams.append(self._header(dest_key, channel, index - start) + body)
                start, size = index, 0
            size += len(frame)
        if start < len(frames):
            body = b"".join(frames[start:])
            datagrams.append(self._header(dest_key, channel, len(frames) - start) + body)
        return datagrams

    def encode(
        self, kind: int, payload: dict, dest_key: object, channel: int = CHANNEL_UNICAST
    ) -> bytes:
        """One datagram holding one message towards ``dest_key``."""
        return self._header(dest_key, channel, 1) + encode_frame(kind, payload)

    @staticmethod
    def decode(data: bytes) -> WireMessage:
        """The message of a one-message datagram."""
        header = decode_header(data)
        if header.count != 1:
            raise WireError(f"expected one message, the datagram holds {header.count}")
        return decode_messages(data, header)[0]


@dataclass
class LinkStats:
    """Per-link receive accounting."""

    received: int = 0
    duplicates: int = 0
    reordered: int = 0
    gaps: int = 0
    highest: int = 0
    #: Every seq at or below it has arrived (or its hole was given up).
    frontier: int = 0


#: Seqs above the frontier a link remembers before giving up its oldest hole.
LINK_WINDOW = 4096


class LinkTracker:
    """Receiver-side per-link sequence accounting, one call per datagram.

    Keyed by ``(sender_shard, channel)``.  UDP over loopback essentially
    never loses or reorders, but the accounting is what turns "essentially
    never" into a measured claim — the live reports carry these counters.
    """

    def __init__(self) -> None:
        self._links: Dict[Tuple[int, int], LinkStats] = {}
        #: Per link, the seqs seen above its contiguous frontier.
        self._above: Dict[Tuple[int, int], Set[int]] = {}

    def observe(self, message: WireMessage) -> str:
        """Record the arrival of ``message``'s datagram; returns 'new',
        'duplicate' or 'reordered'."""
        link = (message.sender_shard, message.channel)
        stats = self._links.get(link)
        if stats is None:
            stats = self._links[link] = LinkStats()
            self._above[link] = set()
        above = self._above[link]
        seq = message.seq
        stats.received += 1
        if seq <= stats.frontier or seq in above:
            stats.duplicates += 1
            return "duplicate"
        # Everything at or below the contiguous frontier can be forgotten;
        # a hole older than the window is given up, so memory stays bounded.
        above.add(seq)
        if len(above) > LINK_WINDOW:
            stats.frontier = min(above) - 1
        while stats.frontier + 1 in above:
            stats.frontier += 1
            above.remove(stats.frontier)
        if seq > stats.highest:
            if seq > stats.highest + 1:
                stats.gaps += seq - stats.highest - 1
            stats.highest = seq
            return "new"
        stats.reordered += 1
        # A gap previously counted is being filled in late.
        stats.gaps = max(0, stats.gaps - 1)
        return "reordered"

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Counters per link, keyed ``"shard:channel"``."""
        return {
            f"{shard}:{channel}": {
                "received": s.received,
                "duplicates": s.duplicates,
                "reordered": s.reordered,
                "gaps": s.gaps,
                "highest": s.highest,
            }
            for (shard, channel), s in sorted(self._links.items())
        }
