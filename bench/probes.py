"""Direct probes: one public call of one layer, timed in a loop.

Each probe runs on a quiesced instance (the system the last iteration left
behind, or a small one built here), loops the call for at least
``MIN_SECONDS`` in total over ``LOOPS`` loops, and reports the median loop in
work-normalised units.  Probes are grouped by the workload whose end-to-end
metric the layer should move; a workload that bypasses a layer reports 0 for
that layer's probes.
"""

from __future__ import annotations

import gc
import socket
import statistics
from time import perf_counter
from typing import Callable, Dict

LOOPS = 5
MIN_SECONDS = 0.2

__all__ = ["PROBE_GROUPS", "run_probes"]


def _median_loop(body: Callable[[], float], calls_per_loop: int = 1) -> float:
    """Median seconds per call.  ``body()`` makes one pass of
    ``calls_per_loop`` calls and returns the seconds they took (set-up it
    does not time is not counted); a loop repeats passes for
    ``MIN_SECONDS / LOOPS`` of wall time."""
    loops = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(LOOPS):
            deadline = perf_counter() + MIN_SECONDS / LOOPS
            spent = 0.0
            passes = 0
            while passes == 0 or perf_counter() < deadline:
                spent += body()
                passes += 1
            loops.append(spent / (passes * calls_per_loop))
    finally:
        gc.enable()
    return statistics.median(loops)


def _timed(fn: Callable[[], object]) -> Callable[[], float]:
    def body() -> float:
        start = perf_counter()
        fn()
        return perf_counter() - start

    return body


# -- sim / core ------------------------------------------------------------


def probe_engine(_system) -> Dict[str, float]:
    """Schedule and dispatch 50k no-op events (``engine_dispatch_50k``'s body)."""
    from repro.sim.engine import SimulationEngine

    events = 50_000

    def noop(_engine) -> None:
        return None

    def body() -> float:
        engine = SimulationEngine()
        start = perf_counter()
        for i in range(events):
            engine.schedule(float(i % 97) * 0.25, noop)
        engine.run()
        return perf_counter() - start

    return {"sim.engine.probe_us_per_event": 1e6 * _median_loop(body, events)}


def probe_deltas(_system) -> Dict[str, float]:
    """Compile a 512-op batch and apply it to 64 views; µs per op per view."""
    from repro.core.deltas import MembershipDelta
    from repro.core.hierarchy import HierarchyBuilder
    from repro.core.identifiers import GroupId, NodeId
    from repro.core.kernel import TokenRoundKernel
    from repro.core.membership import MembershipView

    hierarchy = HierarchyBuilder("probe").regular(ring_size=4, height=2)
    kernel = TokenRoundKernel(hierarchy)
    aps = hierarchy.access_proxies()
    ops = [kernel.make_join_op(aps[i % len(aps)], f"probe-{i:04d}") for i in range(512)]

    def body() -> float:
        views = [
            MembershipView("probe", NodeId(f"n-{i:02d}"), GroupId("probe")) for i in range(64)
        ]
        start = perf_counter()
        delta = MembershipDelta.from_operations(ops)
        for view in views:
            view.apply_delta(delta, 0.0)
        return perf_counter() - start

    return {"core.deltas.compile_apply_us": 1e6 * _median_loop(body, 512 * 64)}


# -- serving ---------------------------------------------------------------


def probe_serving(harness) -> Dict[str, float]:
    """The read path's pieces on the quiesced harness, at its bottom tier."""
    from repro.core.query import MembershipQueryService, MembershipScheme
    from repro.serving.columnar_query import tier_leader_fanout
    from repro.serving.snapshots import MembershipFrame

    kernel, hierarchy = harness.kernel, harness.hierarchy
    tier = hierarchy.bottom_tier()
    epoch = kernel.coverage_epoch
    service = MembershipQueryService(kernel)
    fanout = tier_leader_fanout(kernel, hierarchy, tier)
    frame = MembershipFrame(tier, fanout, epoch, 0)

    def sort_body() -> float:
        fresh = MembershipFrame(tier, fanout, epoch, 0)
        start = perf_counter()
        fresh.members()
        return perf_counter() - start

    object_samples = sorted(
        _timed(lambda: service.query(MembershipScheme.BMS))() for _ in range(10)
    )
    return {
        "core.query.bms_object_ms": 1e3 * statistics.median(object_samples),
        "serving.columnar_query.fanout_ms": 1e3
        * _median_loop(_timed(lambda: tier_leader_fanout(kernel, hierarchy, tier))),
        "serving.snapshots.capture_ms": 1e3
        * _median_loop(_timed(lambda: MembershipFrame(tier, fanout, epoch, 0))),
        "serving.snapshots.revalidate_ms": 1e3
        * _median_loop(_timed(lambda: frame.is_current(epoch))),
        "serving.snapshots.members_sort_ms": 1e3 * _median_loop(sort_body),
    }


# -- runtime ---------------------------------------------------------------


def _notify_payload() -> dict:
    """A NOTIFY payload as ``SocketDispatch._transmit`` ships it: one join
    operation from a bottom-ring leader to its parent."""
    from repro.core.hierarchy import HierarchyBuilder
    from repro.core.kernel import TokenRoundKernel

    hierarchy = HierarchyBuilder("probe").regular(ring_size=4, height=3)
    kernel = TokenRoundKernel(hierarchy)
    sender = hierarchy.access_proxies()[0]
    target = hierarchy.ancestry(sender)[0]
    return {
        "id": 1,
        "sender": sender.value,
        "target": target.value,
        "ring": hierarchy.ring_of(target).ring_id,
        "ops": (kernel.make_join_op(sender, "probe-member"),),
    }


def probe_runtime(_system) -> Dict[str, float]:
    from repro.runtime import wire
    from repro.runtime.loop import EventLoop

    payload = _notify_payload()
    codec = wire.WireCodec(0)
    datagram = codec.encode(wire.MSG_NOTIFY, payload, dest_key=1)
    batch = 2_000

    def encode_body() -> float:
        start = perf_counter()
        for _ in range(batch):
            codec.encode(wire.MSG_NOTIFY, payload, dest_key=1)
        return perf_counter() - start

    def decode_body() -> float:
        decode = wire.WireCodec.decode
        start = perf_counter()
        for _ in range(batch):
            decode(datagram)
        return perf_counter() - start

    timers = 10_000

    def timer_body() -> float:
        loop = EventLoop()
        fired = [0]

        def tick() -> None:
            fired[0] += 1
            if fired[0] == timers:
                loop.stop()  # run_until would add its 5 ms poll to the timing

        start = perf_counter()
        for _ in range(timers):
            loop.call_later(0.0, tick)
        loop.run()
        elapsed = perf_counter() - start
        loop.close()
        return elapsed

    trips = 500

    def rtt_body() -> float:
        loop = EventLoop()
        ping = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        pong = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for sock in (ping, pong):
                sock.bind(("127.0.0.1", 0))
                sock.setblocking(False)
            ping_addr, pong_addr = ping.getsockname(), pong.getsockname()
            done = [0]

            def on_pong(sock) -> None:
                sock.sendto(sock.recvfrom(65536)[0], ping_addr)

            def on_ping(sock) -> None:
                sock.recvfrom(65536)
                done[0] += 1
                if done[0] < trips:
                    sock.sendto(datagram, pong_addr)
                else:
                    loop.stop()

            loop.add_reader(pong, on_pong)
            loop.add_reader(ping, on_ping)
            loop.call_later(10.0, loop.stop)  # a lost datagram must not hang the probe
            start = perf_counter()
            ping.sendto(datagram, pong_addr)
            loop.run()
            elapsed = perf_counter() - start
            if done[0] < trips:
                raise RuntimeError("loopback ping-pong did not complete")
            return elapsed
        finally:
            loop.close()
            ping.close()
            pong.close()

    return {
        "runtime.wire.encode_us": 1e6 * _median_loop(encode_body, batch),
        "runtime.wire.decode_us": 1e6 * _median_loop(decode_body, batch),
        "runtime.wire.bytes_per_datagram": float(len(datagram)),
        "runtime.loop.timer_us": 1e6 * _median_loop(timer_body, timers),
        "runtime.loop.udp_rtt_us": 1e6 * _median_loop(rtt_body, trips),
    }


PROBE_GROUPS: Dict[str, Callable[[object], Dict[str, float]]] = {
    "engine": probe_engine,
    "deltas": probe_deltas,
    "serving": probe_serving,
    "runtime": probe_runtime,
}


def run_probes(groups, system) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for group in groups:
        out.update(PROBE_GROUPS[group](system))
    return out
