"""Wire codec for the live runtime's UDP datagrams.

Every datagram is one protocol message: a fixed binary header followed by a
pickled payload dict.  The header carries

* a magic/version pair (foreign or stale datagrams are rejected loudly),
* the message kind (token / notify / ack / heartbeat / control plane),
* the sending shard id,
* a *per-link sequence number*: each sender numbers the datagrams it emits
  towards each destination (unicast peer or the multicast group)
  independently, so every receiver can account duplicates, reordering and
  gaps per link without any cross-link coordination.

The payload is pickled: the runtime runs trusted, co-spawned processes over
loopback (the supervisor forks every peer), so the codec optimises for
fidelity with the in-process message shapes (``TokenOperation`` tuples
travel as-is) rather than for hostile inputs.  The header is still
validated structurally so a stray datagram cannot crash a node.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

__all__ = [
    "CHANNEL_MULTICAST",
    "CHANNEL_UNICAST",
    "LINK_WINDOW",
    "LinkTracker",
    "MSG_BYE",
    "MSG_HEARTBEAT",
    "MSG_HELLO",
    "MSG_HOLDER_ACK",
    "MSG_NOTIFY",
    "MSG_NOTIFY_ACK",
    "MSG_PEERS",
    "MSG_SHUTDOWN",
    "MSG_STATUS",
    "MSG_TOKEN",
    "WireCodec",
    "WireError",
    "WireMessage",
]

#: Datagram magic + codec version.  Bump the version on any header change.
MAGIC = b"RGB1"
VERSION = 1

#: Message kinds.  Data plane (the kernel's three message classes):
MSG_TOKEN = 1
MSG_NOTIFY = 2
MSG_NOTIFY_ACK = 3
MSG_HOLDER_ACK = 4
#: Failure detection:
MSG_HEARTBEAT = 5
#: Control plane (supervisor <-> node):
MSG_HELLO = 16
MSG_PEERS = 17
MSG_STATUS = 18
MSG_SHUTDOWN = 19
MSG_BYE = 20

_KINDS = frozenset(
    (
        MSG_TOKEN,
        MSG_NOTIFY,
        MSG_NOTIFY_ACK,
        MSG_HOLDER_ACK,
        MSG_HEARTBEAT,
        MSG_HELLO,
        MSG_PEERS,
        MSG_STATUS,
        MSG_SHUTDOWN,
        MSG_BYE,
    )
)

#: Link channels: a sender numbers its unicast stream towards each peer and
#: its multicast stream independently, so a receiver seeing both can track
#: them as two links instead of one stream with phantom gaps.
CHANNEL_UNICAST = 0
CHANNEL_MULTICAST = 1

#: magic(4s) version(B) kind(B) channel(B) shard(i) seq(Q)
_HEADER = struct.Struct("!4sBBBiQ")

#: Stay comfortably under the UDP datagram ceiling (65507 bytes of payload
#: on loopback); a notify batch approaching this indicates a logic error.
MAX_DATAGRAM = 60_000


class WireError(RuntimeError):
    """A datagram failed header validation or exceeded the size budget."""


@dataclass(frozen=True)
class WireMessage:
    """One decoded datagram."""

    kind: int
    sender_shard: int
    seq: int
    channel: int
    payload: dict


class WireCodec:
    """Encode/decode datagrams for one shard, numbering each link's stream."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self._next_seq: Dict[Tuple[object, int], int] = {}

    def encode(self, kind: int, payload: dict, dest_key: object, channel: int = CHANNEL_UNICAST) -> bytes:
        """Build one datagram towards ``dest_key`` (assigns the link seq)."""
        if kind not in _KINDS:
            raise WireError(f"unknown message kind {kind}")
        link = (dest_key, channel)
        seq = self._next_seq.get(link, 0) + 1
        self._next_seq[link] = seq
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        data = _HEADER.pack(MAGIC, VERSION, kind, channel, self.shard_id, seq) + body
        if len(data) > MAX_DATAGRAM:
            raise WireError(
                f"datagram of kind {kind} is {len(data)} bytes "
                f"(limit {MAX_DATAGRAM}); split the batch"
            )
        return data

    @staticmethod
    def decode(data: bytes) -> WireMessage:
        """Parse one datagram; raises :class:`WireError` on a bad header."""
        if len(data) < _HEADER.size:
            raise WireError(f"short datagram ({len(data)} bytes)")
        magic, version, kind, channel, shard, seq = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise WireError(f"bad magic {magic!r}")
        if version != VERSION:
            raise WireError(f"unsupported wire version {version}")
        if kind not in _KINDS:
            raise WireError(f"unknown message kind {kind}")
        try:
            payload = pickle.loads(data[_HEADER.size :])
        except Exception as exc:  # pickle raises a zoo of types
            raise WireError(f"undecodable payload: {exc}") from exc
        if not isinstance(payload, dict):
            raise WireError(f"payload must be a dict, got {type(payload).__name__}")
        return WireMessage(kind=kind, sender_shard=shard, seq=seq, channel=channel, payload=payload)


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
    """Receiver-side per-link sequence accounting.

    Keyed by ``(sender_shard, channel)``.  UDP over loopback essentially
    never loses or reorders, but the accounting is what turns "essentially
    never" into a measured claim — the live reports carry these counters.
    """

    def __init__(self) -> None:
        self._links: Dict[Tuple[int, int], LinkStats] = {}
        #: Per link, the seqs seen above its contiguous frontier.
        self._above: Dict[Tuple[int, int], Set[int]] = {}

    def observe(self, message: WireMessage) -> str:
        """Record one arrival; returns 'new', 'duplicate' or 'reordered'."""
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
