"""Process supervisor for the live runtime.

Forks one OS process per shard from itself (the child runs ``NodeRuntime``
from the in-memory ``NodeConfig``), runs the control-plane handshake over
its own UDP socket, injects faults with real signals, decides completion,
and tears everything down hard enough that a test suite can assert nothing
leaked.

Lifecycle::

    fork all shards             (each in its own session; direct children,
                                 so their CPU lands in RUSAGE_CHILDREN)
      <- HELLO{shard, port}     (each node repeats until answered)
      -> PEERS{peers, t0}       (broadcast once all shards reported;
                                 re-sent to any shard that repeats HELLO)
    ... scenario runs on the nodes' own timers, anchored at t0 ...
      signal injection          (SIGKILL at t0 + crash_at*scale + epsilon —
                                 the victim has already wedged itself at the
                                 exact virtual instant; SIGSTOP/SIGCONT for
                                 slow-but-alive experiments)
      <- STATUS{idle, ...}      (periodic pushes; completion = wall clock
                                 past the script horizon and every surviving
                                 node idle in two consecutive pushes)
      -> SHUTDOWN               (repeated until BYE or process exit)
      <- BYE                    (node has written its JSON result file)
    reap                        (terminate -> kill escalation, then asserts)

Faults are injected *by the supervisor with real signals*, not by asking the
node to exit: the point of the live runtime is that peers detect the death
by heartbeat silence on a real socket, not by being told.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import socket
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime import wire
from repro.runtime.node import LOOPBACK, NodeConfig, NodeRuntime

__all__ = ["KillSpec", "LiveRunReport", "StopSpec", "Supervisor", "SupervisorError"]

#: Shard id the supervisor stamps on its own control datagrams.  Negative so
#: node-side link trackers (which only watch real shards) ignore it.
SUPERVISOR_SHARD = -1


class SupervisorError(RuntimeError):
    """A live run failed at the supervision layer (handshake, timeout, ...)."""


@dataclass(frozen=True)
class KillSpec:
    """SIGKILL ``shard`` just after its virtual ``at`` instant.

    The node wedges itself at ``at`` (its config carries the same value as
    ``crash_at``), so the signal only has to land *eventually soon*; the
    death instant in virtual time is exact either way.
    """

    shard: int
    at: float


@dataclass(frozen=True)
class StopSpec:
    """SIGSTOP ``shard`` at virtual ``at``, SIGCONT it ``duration`` real
    seconds later — a genuinely silent but alive peer."""

    shard: int
    at: float
    duration: float


@dataclass
class _ShardProc:
    shard: int
    process: _ForkedShard
    config: NodeConfig
    port: Optional[int] = None
    bye: bool = False
    #: Consecutive idle=True STATUS pushes.
    idle_streak: int = 0
    last_status: Optional[dict] = None
    killed: bool = False
    stopped: bool = False


@dataclass
class LiveRunReport:
    """Everything the harness layer needs from one supervised run."""

    results: Dict[int, dict]
    exit_codes: Dict[int, Optional[int]]
    killed_shards: List[int]
    clean_shutdown: bool
    wall_seconds: float
    errors: List[str] = field(default_factory=list)

    def surviving_results(self) -> Dict[int, dict]:
        return {s: r for s, r in self.results.items() if s not in self.killed_shards}


class Supervisor:
    """Owns the shard processes and the control socket for one live run."""

    def __init__(
        self,
        configs: Dict[int, NodeConfig],
        *,
        kills: Tuple[KillSpec, ...] = (),
        stops: Tuple[StopSpec, ...] = (),
        deadline: float = 60.0,
        handshake_timeout: float = 15.0,
        kill_epsilon: float = 0.05,
    ) -> None:
        self.configs = configs
        self.kills = kills
        self.stops = stops
        self.deadline = deadline
        self.handshake_timeout = handshake_timeout
        self.kill_epsilon = kill_epsilon
        self.codec = wire.WireCodec(SUPERVISOR_SHARD)
        self.sock: Optional[socket.socket] = None
        self.procs: Dict[int, _ShardProc] = {}
        self.t0: Optional[float] = None
        self._torn_down = False

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> LiveRunReport:
        start = time.monotonic()
        errors: List[str] = []
        try:
            self._spawn()
            self._handshake()
            self._main_loop()
            clean = self._shutdown()
        except Exception as exc:  # noqa: BLE001 - recorded, teardown still runs
            errors.append(f"{type(exc).__name__}: {exc}")
            clean = False
        finally:
            self._teardown()
        results = self._collect_results(errors)
        return LiveRunReport(
            results=results,
            exit_codes={s: p.process.returncode for s, p in self.procs.items()},
            killed_shards=sorted(s for s, p in self.procs.items() if p.killed),
            clean_shutdown=clean and not errors,
            wall_seconds=time.monotonic() - start,
            errors=errors,
        )

    def _spawn(self) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((LOOPBACK, 0))
        self.sock.settimeout(0.05)
        port = self.sock.getsockname()[1]
        for shard, config in sorted(self.configs.items()):
            if config.supervisor_port != port:
                config = replace(config, supervisor_port=port)
                self.configs[shard] = config
            process = _fork_shard(config)
            self.procs[shard] = _ShardProc(shard=shard, process=process, config=config)

    def _send(self, proc: _ShardProc, kind: int, payload: dict) -> None:
        if self.sock is None or proc.port is None:
            return
        try:
            self.sock.sendto(
                self.codec.encode(kind, payload, dest_key=proc.shard),
                (LOOPBACK, proc.port),
            )
        except OSError:
            pass

    def _broadcast_peers(self, proc: _ShardProc) -> None:
        assert self.t0 is not None
        peers = {p.shard: (LOOPBACK, p.port) for p in self.procs.values()}
        self._send(proc, wire.MSG_PEERS, {"peers": peers, "t0": self.t0})

    def _drain(self) -> List[wire.WireMessage]:
        """Non-blocking-ish read of every pending control datagram."""
        assert self.sock is not None
        messages: List[wire.WireMessage] = []
        while True:
            try:
                data, _addr = self.sock.recvfrom(65536)
            except socket.timeout:
                return messages
            except OSError:
                return messages
            try:
                messages.extend(wire.decode_datagram(data))
            except wire.WireError:
                continue

    def _handle(self, message: wire.WireMessage) -> None:
        proc = self.procs.get(message.sender_shard)
        if proc is None:
            return
        if message.kind == wire.MSG_HELLO:
            proc.port = message.payload["port"]
            if self.t0 is not None:
                # Late or repeated HELLO after the broadcast: the PEERS
                # datagram was lost — resend it.
                self._broadcast_peers(proc)
        elif message.kind == wire.MSG_STATUS:
            payload = message.payload
            proc.last_status = payload
            proc.idle_streak = proc.idle_streak + 1 if payload["idle"] else 0
        elif message.kind == wire.MSG_BYE:
            proc.bye = True

    def _handshake(self) -> None:
        deadline = time.monotonic() + self.handshake_timeout
        while any(p.port is None for p in self.procs.values()):
            if time.monotonic() > deadline:
                missing = sorted(s for s, p in self.procs.items() if p.port is None)
                raise SupervisorError(f"shards {missing} never said HELLO")
            self._reap_crashed_during_handshake()
            for message in self._drain():
                self._handle(message)
        # Anchor virtual time far enough out that the PEERS broadcast (and
        # any resend round) lands on every node before the scenario starts.
        self.t0 = time.monotonic() + 0.6
        for proc in self.procs.values():
            self._broadcast_peers(proc)

    def _reap_crashed_during_handshake(self) -> None:
        for proc in self.procs.values():
            if proc.port is None and proc.process.poll() is not None:
                err = _read_error(proc.config.result_path)
                raise SupervisorError(
                    f"shard {proc.shard} exited rc={proc.process.returncode} "
                    f"before HELLO{': ' + err if err else ''}"
                )

    # -- scenario phase ------------------------------------------------------

    def _scenario_end(self) -> float:
        assert self.t0 is not None
        horizon = max(
            (cfg.script.ops[-1].time if cfg.script.ops else 0.0)
            for cfg in self.configs.values()
        )
        scale = next(iter(self.configs.values())).time_scale
        return self.t0 + horizon * scale

    def _main_loop(self) -> None:
        assert self.t0 is not None
        scale = next(iter(self.configs.values())).time_scale
        kill_at = {
            spec.shard: self.t0 + spec.at * scale + self.kill_epsilon
            for spec in self.kills
        }
        stop_at = {spec.shard: self.t0 + spec.at * scale for spec in self.stops}
        cont_at: Dict[int, float] = {}
        scenario_end = self._scenario_end()
        hard_deadline = time.monotonic() + self.deadline
        while True:
            now = time.monotonic()
            if now > hard_deadline:
                raise SupervisorError(
                    f"live run exceeded deadline ({self.deadline}s); statuses: "
                    f"{ {s: p.last_status for s, p in self.procs.items()} }"
                )
            for shard, when in list(kill_at.items()):
                if now >= when:
                    del kill_at[shard]
                    self._kill(shard)
            for shard, when in list(stop_at.items()):
                if now >= when:
                    del stop_at[shard]
                    spec = next(s for s in self.stops if s.shard == shard)
                    self._signal(shard, signal.SIGSTOP)
                    self.procs[shard].stopped = True
                    cont_at[shard] = now + spec.duration
            for shard, when in list(cont_at.items()):
                if now >= when:
                    del cont_at[shard]
                    self._signal(shard, signal.SIGCONT)
                    self.procs[shard].stopped = False
            for message in self._drain():
                self._handle(message)
            self._check_unexpected_exits()
            if (
                now >= scenario_end
                and not kill_at
                and not stop_at
                and not cont_at
                and self._survivors_settled()
            ):
                return

    def _survivors_settled(self) -> bool:
        """Every survivor idle twice in a row *and* aware of every kill.

        The eviction requirement closes a race: right after a SIGKILL the
        survivors can be momentarily idle (heartbeat silence still inside
        the suspect window) — completing then would shut the run down before
        failure detection and repair ever happened.
        """
        killed = {s for s, p in self.procs.items() if p.killed}
        for proc in self.procs.values():
            if proc.killed or proc.stopped:
                continue
            if proc.idle_streak < 2 or proc.last_status is None:
                return False
            if not killed <= set(proc.last_status.get("evicted", ())):
                return False
        return True

    def _kill(self, shard: int) -> None:
        proc = self.procs[shard]
        proc.killed = True
        self._signal(shard, signal.SIGKILL)

    def _signal(self, shard: int, sig: int) -> None:
        process = self.procs[shard].process
        if process.poll() is None:
            try:
                process.send_signal(sig)
            except ProcessLookupError:
                pass

    def _check_unexpected_exits(self) -> None:
        for proc in self.procs.values():
            if not proc.killed and proc.process.poll() is not None:
                err = _read_error(proc.config.result_path)
                raise SupervisorError(
                    f"shard {proc.shard} exited unexpectedly "
                    f"rc={proc.process.returncode}{': ' + err if err else ''}"
                )

    # -- shutdown + teardown -------------------------------------------------

    def _shutdown(self) -> bool:
        """SHUTDOWN each survivor until it writes results and says BYE."""
        live = [p for p in self.procs.values() if not p.killed]
        deadline = time.monotonic() + 10.0
        next_send = 0.0
        while time.monotonic() < deadline:
            pending = [p for p in live if not p.bye and p.process.poll() is None]
            if not pending:
                break
            if time.monotonic() >= next_send:
                for proc in pending:
                    self._send(proc, wire.MSG_SHUTDOWN, {})
                next_send = time.monotonic() + 0.2
            for message in self._drain():
                self._handle(message)
        return all(p.bye or p.killed for p in self.procs.values())

    def _teardown(self) -> None:
        for proc in self.procs.values():
            process = proc.process
            if process.poll() is None:
                if proc.stopped:
                    self._signal(proc.shard, signal.SIGCONT)
                process.terminate()
        deadline = time.monotonic() + 3.0
        for proc in self.procs.values():
            process = proc.process
            while process.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            if process.poll() is None:
                process.kill()
            process.wait(timeout=5.0)
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self._torn_down = True

    def ensure_torn_down(self) -> None:
        """Assert no shard process or socket survived the run (for tests)."""
        if not self._torn_down:
            raise SupervisorError("teardown never ran")
        if self.sock is not None:
            raise SupervisorError("control socket still open after teardown")
        leaked = [
            proc.shard
            for proc in self.procs.values()
            if proc.process.poll() is None
        ]
        if leaked:
            raise SupervisorError(f"shard processes leaked: {leaked}")

    def _collect_results(self, errors: List[str]) -> Dict[int, dict]:
        results: Dict[int, dict] = {}
        for shard, proc in self.procs.items():
            path = proc.config.result_path
            if os.path.exists(path):
                try:
                    with open(path) as handle:
                        results[shard] = json.load(handle)
                except Exception as exc:  # noqa: BLE001
                    errors.append(f"shard {shard} result unreadable: {exc}")
            elif not proc.killed:
                err = _read_error(path)
                errors.append(
                    f"shard {shard} wrote no result"
                    f"{': ' + err if err else ''}"
                )
        return results


def _read_error(result_path: str) -> str:
    err_path = result_path + ".err"
    if os.path.exists(err_path):
        try:
            with open(err_path) as handle:
                return handle.read().strip().splitlines()[-1]
        except OSError:
            return ""
    return ""


def scratch_dir(prefix: str = "repro-live-") -> str:
    """A per-run scratch directory for the shards' result files."""
    return tempfile.mkdtemp(prefix=prefix)


# -- forking a shard ---------------------------------------------------------


class _ForkedShard:
    """The slice of ``subprocess.Popen`` the supervisor uses, over a pid
    this process forked and reaps itself."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while self.poll() is None:
            if time.monotonic() > deadline:
                raise TimeoutError(f"shard pid {self.pid} alive after {timeout}s")
            time.sleep(0.01)
        return self.returncode

    def send_signal(self, sig: int) -> None:
        if self.returncode is None:  # a reaped pid may already be reused
            os.kill(self.pid, sig)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


def _fork_shard(config: NodeConfig) -> _ForkedShard:
    """Fork one shard from this warm process; the child runs its node.

    Fork is safe here because only the main thread runs Python, and the one
    foreign thread a bench or pytest parent has (numpy's OpenBLAS pool) owns
    no lock the child can take: the shard's import closure never reaches
    numpy (``tests/test_import_closure.py``).  Python 3.12+ warns about
    forking a multi-threaded process anyway; the warning is left visible.
    The shard stays a direct child this process reaps, so its CPU lands in
    this process's ``RUSAGE_CHILDREN``.  The child leaves only through
    ``os._exit``: it must never return into the caller's stack.
    """
    pid = os.fork()
    if pid:
        return _ForkedShard(pid)
    code = 1
    try:
        _detach_child()
        NodeRuntime(config).start()
        code = 0
    except Exception:
        with open(config.result_path + ".err", "w") as handle:
            handle.write(traceback.format_exc())
    finally:
        os._exit(code)


def _detach_child(pass_fds: Sequence[int] = ()) -> None:
    """Drop what a forked child inherits and a process started by ``exec``
    with ``close_fds`` in a new session would not have: the session, stdio,
    every descriptor >= 3 but ``pass_fds`` (the control socket too), signal
    handlers and trace/profile hooks (a coverage tracer would slow the node
    several-fold against its heartbeats).  The parent's heap is frozen, so
    no inherited ``__del__`` can close a descriptor number the node has
    reused, and the collector runs whatever the parent set.
    """
    os.setsid()
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(devnull, fd)
    low = 3
    for fd in sorted(pass_fds):
        os.closerange(low, fd)
        low = fd + 1
    os.closerange(low, os.sysconf("SC_OPEN_MAX"))
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    sys.settrace(None)
    sys.setprofile(None)
    gc.freeze()
    gc.enable()
