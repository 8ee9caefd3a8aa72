"""Message transport over the simulated network.

The transport connects protocol endpoints (anything exposing an
``on_message(message)`` callable registered with :meth:`Transport.register`)
between the nodes of a :class:`repro.sim.network.Network`.  A message between
two live nodes is a datagram:

1. one draw of delay and one draw of loss from the transport's
   :class:`repro.sim.network.LatencyModel`;
2. a loss drops it (``transport.dropped.lost``) and is never retried here —
   masking loss is the protocol layer's job, as on the live wire;
3. otherwise delivery is scheduled on the
   :class:`repro.sim.engine.SimulationEngine`, and counters (messages sent /
   delivered / dropped, logical hops) land in the
   :class:`repro.sim.stats.MetricRegistry`.

The paper's scalability metric counts *logical* hops — one logical hop per
protocol message between two network entities — so the transport does no
routing.  In the scenario harness every
message is a Notification-to-Parent/Child: token hops and
Holder-Acknowledgements change no receiver's state, so the kernel counts them
(``hops.token``, ``messages.holder_ack``) and they never reach the transport.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional

from repro.sim.engine import SimulationEngine
from repro.sim.network import LatencyModel, Network, NodeState
from repro.sim.rng import RandomStreams
from repro.sim.stats import MetricRegistry
from repro.sim.trace import TraceRecorder

MessageHandler = Callable[["Message"], None]


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
    latency:
        The delay and loss of one transmission between any two nodes.
    metrics:
        Registry receiving transport counters and the latency histogram.
    trace:
        Optional trace recorder for per-message records.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        network: Network,
        streams: RandomStreams,
        latency: LatencyModel,
        metrics: Optional[MetricRegistry] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.engine = engine
        self.network = network
        self.latency = latency
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._rng = streams.stream("transport")
        self._handlers: Dict[str, MessageHandler] = {}
        self._message_ids = itertools.count(1)
        # Pre-bound counters/histograms: metrics.counter() is a dict probe per
        # call and send() runs a hundred thousand times per large scenario.
        self._c_sent = self.metrics.counter("transport.sent")
        self._c_logical = self.metrics.counter("transport.logical_hops")
        self._c_delivered = self.metrics.counter("transport.delivered")
        self._c_dropped = self.metrics.counter("transport.dropped")
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
            self._schedule_delivery(message, delay=0.0)
            return DeliveryReceipt(message, True, "local", self.engine.now)

        source_node = self.network.node(source)
        if not source_node.is_operational:
            self._drop(message, "source-not-operational")
            return DeliveryReceipt(message, False, "source-not-operational")

        destination_node = self.network.node(destination)
        if destination_node.state is NodeState.FAILED:
            self._drop(message, "destination-failed")
            return DeliveryReceipt(message, False, "destination-failed")

        delay = self.latency.sample_delay(self._rng)
        if self.latency.sample_loss(self._rng):
            self._drop(message, "lost")
            return DeliveryReceipt(message, False, "lost")
        self._schedule_delivery(message, delay=delay)
        return DeliveryReceipt(message, True, "scheduled", self.engine.clock.now + delay)

    # Kept only because ``bench/tracing.py`` wraps this class attribute by
    # name; nothing in the package calls it.
    send_fire_and_forget = send

    # -- delivery -------------------------------------------------------------

    def _schedule_delivery(self, message: Message, delay: float) -> None:
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
