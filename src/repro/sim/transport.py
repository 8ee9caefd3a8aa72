"""Message transport over the simulated network.

The transport connects protocol endpoints (anything exposing an
``on_message(message)`` callable registered with :meth:`Transport.register`)
through the :class:`repro.sim.network.Network`.  Sending a message:

1. resolves the current shortest usable path between the two nodes,
2. samples latency and loss per link along that path,
3. schedules delivery on the :class:`repro.sim.engine.SimulationEngine`, and
4. records counters (messages sent / delivered / dropped, physical and
   logical hops) in the :class:`repro.sim.stats.MetricRegistry`.

The paper's scalability metric counts *logical* hops — one logical hop per
protocol message between two network entities regardless of the physical path
length — so the transport tracks both.  In the scenario harness every
message is a Notification-to-Parent/Child: token hops and
Holder-Acknowledgements change no receiver's state, so the kernel counts them
(``hops.token``, ``messages.holder_ack``) and they never reach the transport.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional

from repro.sim.engine import SimulationEngine
from repro.sim.network import Network, NodeState
from repro.sim.rng import RandomStreams
from repro.sim.stats import MetricRegistry
from repro.sim.trace import TraceRecorder

MessageHandler = Callable[["Message"], None]

#: Delay added after each lost transmission before its retransmission.
RETRY_BACKOFF = 5.0


class TransportError(RuntimeError):
    """Raised for invalid transport usage (unknown endpoint, etc.)."""


@dataclass(frozen=True)
class Message:
    """A protocol message in flight.

    ``payload`` is an arbitrary mapping owned by the protocol layer; the
    transport never inspects it.
    """

    message_id: int
    source: str
    destination: str
    msg_type: str
    payload: Mapping[str, Any]
    sent_at: float

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Message(#{self.message_id} {self.msg_type} "
            f"{self.source}->{self.destination} @{self.sent_at:.3f})"
        )


@dataclass(frozen=True)
class DeliveryReceipt:
    """Outcome of a :meth:`Transport.send` call."""

    message: Message
    accepted: bool
    reason: str = ""
    expected_delivery: Optional[float] = None


class Transport:
    """Delivers messages between registered endpoints.

    Parameters
    ----------
    engine, network, streams:
        The shared simulation substrate.
    metrics:
        Registry receiving transport counters and hop histograms.
    trace:
        Optional trace recorder for per-message records.
    default_retries:
        Number of automatic retransmissions when a transmission is lost.
        The paper assumes "token retransmission schemes" detect and mask
        single losses, so the default is 2.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        network: Network,
        streams: RandomStreams,
        metrics: Optional[MetricRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        default_retries: int = 2,
    ) -> None:
        self.engine = engine
        self.network = network
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.default_retries = default_retries
        self._rng = streams.stream("transport")
        self._handlers: Dict[str, MessageHandler] = {}
        self._message_ids = itertools.count(1)
        # Pre-bound counters/histograms: metrics.counter() is a dict probe per
        # call and send() runs a hundred thousand times per large scenario.
        self._c_sent = self.metrics.counter("transport.sent")
        self._c_logical = self.metrics.counter("transport.logical_hops")
        self._c_delivered = self.metrics.counter("transport.delivered")
        self._c_retrans = self.metrics.counter("transport.retransmissions")
        self._c_dropped = self.metrics.counter("transport.dropped")
        self._h_physical = self.metrics.histogram("transport.physical_hops")
        self._h_latency = self.metrics.histogram("transport.latency")
        self._sent_by_type: Dict[str, Any] = {}

    # -- endpoint registration ---------------------------------------------

    def register(self, node_id: str, handler: MessageHandler) -> None:
        """Register the message handler for ``node_id``."""
        if not self.network.has_node(node_id):
            raise TransportError(f"cannot register handler for unknown node {node_id!r}")
        self._handlers[node_id] = handler

    def unregister(self, node_id: str) -> None:
        self._handlers.pop(node_id, None)

    # -- sending -------------------------------------------------------------

    def send(
        self,
        source: str,
        destination: str,
        msg_type: str,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> DeliveryReceipt:
        """Send a message; returns a receipt describing what was scheduled."""
        message = Message(
            message_id=next(self._message_ids),
            source=source,
            destination=destination,
            msg_type=msg_type,
            payload=dict(payload or {}),
            sent_at=self.engine.clock.now,
        )
        self._c_sent.increment()
        type_counter = self._sent_by_type.get(msg_type)
        if type_counter is None:
            type_counter = self.metrics.counter(f"transport.sent.{msg_type}")
            self._sent_by_type[msg_type] = type_counter
        type_counter.increment()
        if source != destination:
            self._c_logical.increment()

        if source == destination:
            # Local delivery: no network traversal, immediate dispatch.
            self._schedule_delivery(message, delay=0.0, physical_hops=0)
            return DeliveryReceipt(message, True, "local", self.engine.now)

        source_node = self.network.node(source)
        if not source_node.is_operational:
            self._drop(message, "source-not-operational")
            return DeliveryReceipt(message, False, "source-not-operational")

        destination_node = self.network.node(destination)
        if destination_node.state is NodeState.FAILED:
            self._drop(message, "destination-failed")
            return DeliveryReceipt(message, False, "destination-failed")

        path = self.network.path(source, destination)
        if path is None:
            self._drop(message, "no-path")
            return DeliveryReceipt(message, False, "no-path")

        max_attempts = 1 + self.default_retries
        delay = 0.0
        rng = self._rng
        if len(path) == 2:
            # Direct link (the overwhelmingly common case on the minimal link
            # graph): sample the one link's model without building per-hop
            # lists.  Draw order matches path_latency + path_loses exactly.
            latency = self.network.link(path[0], path[1]).latency
            for _attempt in range(max_attempts):
                delay += latency.sample_delay(rng)
                if not latency.sample_loss(rng):
                    return self._accept(message, delay, 1)
                self._c_retrans.increment()
                delay += RETRY_BACKOFF
        else:
            for _attempt in range(max_attempts):
                delay += self.network.path_latency(path, rng)
                if not self.network.path_loses(path, rng):
                    return self._accept(message, delay, len(path) - 1)
                self._c_retrans.increment()
                delay += RETRY_BACKOFF

        self._drop(message, "lost-after-retries")
        return DeliveryReceipt(message, False, "lost-after-retries")

    def _accept(self, message: Message, delay: float, physical_hops: int) -> DeliveryReceipt:
        """Account for a transmission that will arrive ``delay`` from now."""
        self._schedule_delivery(message, delay=delay, physical_hops=physical_hops)
        return DeliveryReceipt(message, True, "scheduled", self.engine.clock.now + delay)

    # Kept only because ``bench/tracing.py`` wraps this class attribute by
    # name; nothing in the package calls it.
    send_fire_and_forget = send

    # -- delivery -------------------------------------------------------------

    def _schedule_delivery(self, message: Message, delay: float, physical_hops: int) -> None:
        self._h_physical.observe(physical_hops)

        def deliver(_engine: SimulationEngine) -> None:
            destination_node = self.network.node(message.destination)
            if not destination_node.is_operational:
                self._drop(message, "destination-down-at-delivery")
                return
            handler = self._handlers.get(message.destination)
            if handler is None:
                self._drop(message, "no-handler")
                return
            self._c_delivered.increment()
            now = self.engine.clock.now
            self._h_latency.observe(now - message.sent_at)
            if self.trace.enabled:
                self.trace.record(
                    now,
                    "deliver",
                    message.destination,
                    f"{message.msg_type} from {message.source}",
                    message_id=message.message_id,
                )
            handler(message)

        self.engine.schedule(delay, deliver, label=f"deliver:{message.msg_type}")

    def _drop(self, message: Message, reason: str) -> None:
        self._c_dropped.increment()
        self.metrics.counter(f"transport.dropped.{reason}").increment()
        self.trace.record(
            self.engine.now,
            "drop",
            message.source,
            f"{message.msg_type} to {message.destination}: {reason}",
            message_id=message.message_id,
        )
