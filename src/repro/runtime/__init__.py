"""Live UDP runtime: the token-round kernel over real OS processes and sockets.

The ``sim`` layer runs the whole hierarchy inside one process on a virtual
clock.  This package is the third :class:`repro.core.kernel.MessageDispatch`
driver: each *shard* of the hierarchy is a real OS process
(:mod:`repro.runtime.node`) owning a set of whole rings, multiplexing UDP
unicast + loopback-multicast sockets on a single-threaded event loop
(:mod:`repro.runtime.loop`), and driving the *same* kernel rounds the
simulator drives — notifications travel as real datagrams through
:class:`repro.runtime.dispatch.SocketDispatch` (token hops and holder-acks
change no receiver's state, so the kernel only counts them), and
failure detection is heartbeat-based (:mod:`repro.runtime.heartbeat`)
feeding the kernel's existing ``fail_entity``/repair path instead of the
sim's ``FaultEvent``.

A :class:`repro.runtime.supervisor.Supervisor` forks/handshakes/tears down
the shard processes (crash injection is a real ``SIGKILL``), and
:mod:`repro.runtime.runner` replays the same scenario scripts on both the
live runtime and the simulator and checks golden-trace conformance: the two
runs must produce equivalent membership traces.
"""
