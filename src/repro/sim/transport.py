"""Notification transport over the simulated network: one lossy hop.

The harness's one message is a Notification-to-Parent/Child.  Token hops and
Holder-Acknowledgements change no receiver's state, so the kernel counts them
(``hops.token``, ``messages.holder_ack``) and they never reach the transport.
A send carries one :class:`repro.core.delivery.Notification` record as one
datagram:

1. a send from a node that is not up, or to a crashed node, is dropped before
   any draw (``transport.dropped.source-not-operational`` /
   ``.destination-failed``);
2. one draw of delay, then one draw of loss, from the ``transport`` stream of
   the run's :class:`repro.sim.rng.RandomStreams`; a loss drops it
   (``transport.dropped.lost``) and is never retried here — masking loss is
   the notifier's job, as on the live wire;
3. otherwise its arrival is one engine event, which drops it if the
   destination went down in flight (``destination-down-at-delivery``) and
   else hands the record to the sender's arrival callback.

Liveness is ``down``: the sparse map of the node ids that are not UP, which
:class:`repro.sim.faults.FaultInjector` writes.  The paper's scalability
metric counts *logical* hops — one per protocol message between two network
entities — so the transport does no routing.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional

from repro.sim.engine import SimulationEngine
from repro.sim.network import LatencyModel, NodeState
from repro.sim.rng import RandomStreams
from repro.sim.stats import Counter, MetricRegistry
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # the delivery core imports the kernel; the lane only passes records
    from repro.core.delivery import Notification

#: Wire tag of the transport's one message class.
MSG_NOTIFY = "rgb.notify"
_DELIVER_LABEL = "deliver:" + MSG_NOTIFY
_SENT_BY_TYPE = "transport.sent." + MSG_NOTIFY

_FAILED = NodeState.FAILED


class Transport:
    """Carries notification records between simulated entities.

    Parameters
    ----------
    engine, streams:
        The shared simulation substrate.
    down:
        Node id → state, for every node that is not UP (read, never written).
    latency:
        The delay and loss of one transmission between any two nodes.
    metrics:
        Registry receiving the transport counters.
    trace:
        Optional trace recorder for per-message records.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        down: Mapping[str, NodeState],
        streams: RandomStreams,
        latency: LatencyModel,
        metrics: Optional[MetricRegistry] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.engine = engine
        self.down = down
        self.latency = latency
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._rng = streams.stream("transport")
        # Read as ``_clock._now``, as the engine's dispatch loop writes it: the
        # ``engine.now`` → ``clock.now`` properties are two calls per hop.
        self._clock = engine.clock
        self._message_ids = itertools.count(1)
        # Pre-bound counters: send() runs a hundred thousand times per large
        # scenario.  The per-type and per-reason ones appear on first use.
        self._c_sent = self.metrics.counter("transport.sent")
        self._c_logical = self.metrics.counter("transport.logical_hops")
        self._c_delivered = self.metrics.counter("transport.delivered")
        self._c_dropped = self.metrics.counter("transport.dropped")
        self._c_sent_notify: Optional[Counter] = None
        self._c_dropped_by: Dict[str, Counter] = {}

    def send(
        self, entry: "Notification", arrive: Callable[["Notification"], None]
    ) -> Optional[float]:
        """Send ``entry``; ``arrive(entry)`` runs if and when it lands.
        Returns the arrival time, or ``None`` when the send was dropped."""
        message_id = next(self._message_ids)
        self._c_sent._value += 1
        by_type = self._c_sent_notify
        if by_type is None:
            by_type = self._c_sent_notify = self.metrics.counter(_SENT_BY_TYPE)
        by_type._value += 1
        now = self._clock._now
        source, destination = entry.sender.value, entry.target.value
        if source == destination:
            # Local delivery: no network traversal, immediate dispatch.
            self._schedule_arrival(entry, arrive, message_id, 0.0)
            return now
        self._c_logical._value += 1
        down = self.down
        if down:
            if source in down:
                self._drop(entry, message_id, "source-not-operational")
                return None
            if down.get(destination) is _FAILED:
                self._drop(entry, message_id, "destination-failed")
                return None
        latency = self.latency
        delay = latency.sample_delay(self._rng)
        if latency.sample_loss(self._rng):
            self._drop(entry, message_id, "lost")
            return None
        self._schedule_arrival(entry, arrive, message_id, delay)
        return now + delay

    # Kept only because ``bench/tracing.py`` wraps this class attribute by
    # name; nothing in the package calls it.
    send_fire_and_forget = send

    def _schedule_arrival(
        self,
        entry: "Notification",
        arrive: Callable[["Notification"], None],
        message_id: int,
        delay: float,
    ) -> None:
        def deliver(_engine: SimulationEngine) -> None:
            down = self.down
            if down and entry.target.value in down:
                self._drop(entry, message_id, "destination-down-at-delivery")
                return
            self._c_delivered._value += 1
            trace = self.trace
            if trace.enabled:
                trace.record(
                    self._clock._now,
                    "deliver",
                    entry.target.value,
                    f"{MSG_NOTIFY} from {entry.sender.value}",
                    message_id=message_id,
                )
            arrive(entry)

        self.engine.schedule(delay, deliver, label=_DELIVER_LABEL)

    def _drop(self, entry: "Notification", message_id: int, reason: str) -> None:
        self._c_dropped._value += 1
        counter = self._c_dropped_by.get(reason)
        if counter is None:
            counter = self._c_dropped_by[reason] = self.metrics.counter(
                f"transport.dropped.{reason}"
            )
        counter._value += 1
        trace = self.trace
        if trace.enabled:
            trace.record(
                self._clock._now,
                "drop",
                entry.sender.value,
                f"{MSG_NOTIFY} to {entry.target.value}: {reason}",
                message_id=message_id,
            )
