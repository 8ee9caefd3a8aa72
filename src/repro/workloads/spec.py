"""Declarative scenario specs compiled to replayable fault scripts.

A :class:`ScenarioSpec` describes one scenario as *plain data*:
the topology shape (a proxy count resolving to the paper's regular ``r**h``
hierarchy), a master seed, a loss rate, a size knob and a family-specific
parameter dict.  An ordered **pass pipeline** (:data:`PASS_PIPELINE`,
modelled on FireSim's ``topology_with_passes``: topology as data, transformed
by passes) compiles the spec into a :class:`FaultScript` — a timestamped,
JSON-serialisable event list with RNG-substream provenance.  All randomness
happens at *compile* time, drawn from named
:class:`repro.sim.rng.RandomStreams` substreams recorded in the script's
provenance; running a compiled script draws nothing from the family streams,
so a recorded script replays bit-identically (the STS model: fault scripts
are reconstructable artifacts, not side effects).

Scenario families (:mod:`repro.workloads.families`) subclass
:class:`ScenarioFamily` and register themselves; every scenario of the matrix
(:mod:`repro.workloads.matrix`) is a registered family, runnable through the
event-driven RGB harness (:func:`schedule_script`) *and* — via
:func:`repro.workloads.matrix.replay_workload` — through every baseline
behind the :class:`repro.baselines.driver.MembershipProtocol` seam.

Script events reference capture sites **by index** into the run's site list,
never by name, so one compiled script replays across protocols whose sites
are named differently (RGB node ids, ``site-00000`` toys, tree leaves).
Events the target protocol cannot express (``crash`` with ``tier > 1`` on a
hierarchy-free baseline) are skipped *and counted*, never silently dropped.

CLI::

    PYTHONPATH=src python -m repro.workloads.spec --list
    PYTHONPATH=src python -m repro.workloads.spec --family flash_crowd \\
        --proxies 16 --events 8 --out flash_crowd.script.json
    PYTHONPATH=src python -m repro.workloads.spec --run flash_crowd.script.json \\
        --protocol gossip
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.driver import ring_shape_for_proxies
from repro.sim.rng import RandomStreams

#: Event kinds a fault script may contain.  ``join``/``leave``/``failure``/
#: ``handoff`` are workload events; ``crash``/``disconnect`` are fault events
#: (``crash`` with ``tier > 1`` targets the tier-``tier`` ancestor of AP
#: ``site`` — only hierarchical protocols can honour it); ``inject_duplicate``
#: and ``inject_stale`` re-deliver a member's recorded propagation message at
#: the dispatch seam (most recent / original message respectively).
#: ``probe_partitions`` is an observation, not an event: the harness records
#: its partition count at that instant and the baselines skip it.
EVENT_KINDS: Tuple[str, ...] = (
    "join",
    "leave",
    "failure",
    "handoff",
    "crash",
    "disconnect",
    "inject_duplicate",
    "inject_stale",
    "probe_partitions",
)

_SCRIPT_VERSION = 1


class SpecError(ValueError):
    """Raised for invalid scenario specs or fault scripts."""


@dataclass(frozen=True)
class ScriptEvent:
    """One timestamped event of a compiled fault script (pure data).

    ``site`` is an *index* into the run's capture-site list (-1 when the
    event has no site); ``tier`` qualifies ``crash`` events (1 = the AP
    itself, ``t`` > 1 = its tier-``t`` ancestor in the ring hierarchy);
    ``duration`` qualifies ``disconnect`` events.
    """

    time: float
    kind: str
    member: str = ""
    site: int = -1
    tier: int = 1
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise SpecError(f"unknown script event kind {self.kind!r} (have {EVENT_KINDS})")
        if not math.isfinite(self.time) or self.time < 0:
            raise SpecError(f"event time must be finite and >= 0, got {self.time}")
        if self.tier < 1:
            raise SpecError(f"event tier must be >= 1, got {self.tier}")
        if self.kind in ("join", "handoff", "crash", "disconnect") and self.site < 0:
            raise SpecError(f"{self.kind} event needs a site index")
        if self.kind in ("join", "leave", "failure", "handoff") and not self.member:
            raise SpecError(f"{self.kind} event needs a member id")
        if self.kind in ("inject_duplicate", "inject_stale") and not self.member:
            raise SpecError(f"{self.kind} event needs a member id")

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {"time": float(self.time), "kind": self.kind}
        if self.member:
            out["member"] = self.member
        if self.site >= 0:
            out["site"] = int(self.site)
        if self.tier != 1:
            out["tier"] = int(self.tier)
        if self.duration:
            out["duration"] = float(self.duration)
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "ScriptEvent":
        return cls(
            time=float(data["time"]),
            kind=str(data["kind"]),
            member=str(data.get("member", "")),
            site=int(data.get("site", -1)),
            tier=int(data.get("tier", 1)),
            duration=float(data.get("duration", 0.0)),
        )


@dataclass(frozen=True)
class FaultScript:
    """A compiled, replayable event list with RNG-substream provenance.

    ``provenance`` records everything needed to reproduce the run: the full
    source spec, the resolved family parameters, the hierarchy shape and the
    exact named RNG substreams the compiler drew from.  Replaying the script
    (:func:`schedule_script` / the matrix replay) consumes only the event
    *data* — no family stream is touched at run time — which is what makes a
    recorded script reproduce a bit-identical run fingerprint.
    """

    events: Tuple[ScriptEvent, ...]
    provenance: Mapping[str, object]

    @property
    def family(self) -> str:
        return str(self.provenance.get("family", ""))

    @property
    def num_proxies(self) -> int:
        return int(self.provenance.get("num_proxies", 0))

    def to_json(self) -> Dict[str, object]:
        return {
            "version": _SCRIPT_VERSION,
            "provenance": _plain(self.provenance),
            "events": [event.to_json() for event in self.events],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "FaultScript":
        version = int(data.get("version", 0))
        if version != _SCRIPT_VERSION:
            raise SpecError(f"unsupported fault-script version {version}")
        return cls(
            events=tuple(ScriptEvent.from_json(e) for e in data["events"]),
            provenance=dict(data.get("provenance", {})),
        ).validate()

    def validate(self) -> "FaultScript":
        """Range-check every event against the provenance's topology (the
        compiler's own finalize check); returns ``self``."""
        try:
            _, height = ring_shape_for_proxies(self.num_proxies)
        except ValueError as exc:
            raise SpecError(f"fault script has no valid topology: {exc}") from None
        _check_ranges(self.events, self.num_proxies, height)
        return self

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def loads(cls, text: str) -> "FaultScript":
        return cls.from_json(json.loads(text))


def _plain(value: object) -> object:
    """Recursively coerce numpy scalars etc. to JSON-native types."""
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario as plain JSON-serialisable data."""

    family: str
    num_proxies: int = 16
    loss: float = 0.0
    seed: int = 0
    events: int = 24
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.family:
            raise SpecError("spec needs a family name")
        if self.events < 1:
            raise SpecError(f"events must be >= 1, got {self.events}")
        if not 0.0 <= self.loss < 1.0:
            raise SpecError(f"loss must be in [0, 1), got {self.loss}")
        ring_shape_for_proxies(self.num_proxies)  # validates the shape early
        object.__setattr__(self, "params", dict(self.params))

    def to_json(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "num_proxies": int(self.num_proxies),
            "loss": float(self.loss),
            "seed": int(self.seed),
            "events": int(self.events),
            "params": _plain(dict(self.params)),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        return cls(
            family=str(data["family"]),
            num_proxies=int(data.get("num_proxies", 16)),
            loss=float(data.get("loss", 0.0)),
            seed=int(data.get("seed", 0)),
            events=int(data.get("events", 24)),
            params=dict(data.get("params", {})),
        )


# ----------------------------------------------------------------------
# family registry
# ----------------------------------------------------------------------


class ScenarioFamily:
    """Base class for scenario families.

    A family contributes events to the compile context in up to three passes
    (workload, faults, injections); each hook is optional.  All randomness
    must go through :meth:`CompileContext.stream` so the substream names land
    in the script's provenance.
    """

    name: str = ""
    title: str = ""
    #: Tunable knobs and their defaults; ``spec.params`` may override any
    #: subset, unknown keys are a compile error.
    defaults: Mapping[str, object] = {}
    #: True when the family needs the harness to record dispatch sends
    #: (duplicate/stale replay injection).
    record_sends: bool = False

    def build_workload(self, ctx: "CompileContext") -> None:  # pragma: no cover
        return None

    def build_faults(self, ctx: "CompileContext") -> None:  # pragma: no cover
        return None

    def build_injections(self, ctx: "CompileContext") -> None:  # pragma: no cover
        return None


_FAMILIES: Dict[str, ScenarioFamily] = {}


def register_family(family: ScenarioFamily) -> ScenarioFamily:
    if not family.name:
        raise SpecError(f"{type(family).__name__} has no family name")
    _FAMILIES[family.name] = family
    return family


def _ensure_families_loaded() -> None:
    # The built-in families live in their own package and self-register on
    # import; imported lazily to keep spec importable from the families
    # package itself without a cycle.
    import repro.workloads.families  # noqa: F401


def available_families() -> Tuple[str, ...]:
    _ensure_families_loaded()
    return tuple(sorted(_FAMILIES))


def get_family(name: str) -> ScenarioFamily:
    _ensure_families_loaded()
    try:
        return _FAMILIES[name]
    except KeyError:
        raise SpecError(
            f"unknown scenario family {name!r} (available: "
            f"{', '.join(sorted(_FAMILIES)) or 'none'})"
        ) from None


# ----------------------------------------------------------------------
# the pass pipeline
# ----------------------------------------------------------------------


@dataclass
class CompileContext:
    """Mutable state threaded through the compile passes, in order."""

    spec: ScenarioSpec
    family: Optional[ScenarioFamily] = None
    ring_size: int = 0
    height: int = 0
    num_sites: int = 0
    params: Dict[str, object] = field(default_factory=dict)
    events: List[ScriptEvent] = field(default_factory=list)
    streams_used: List[str] = field(default_factory=list)
    _streams: Optional[RandomStreams] = None

    def stream(self, label: str) -> np.random.Generator:
        """A named family substream; its name is recorded in the provenance."""
        if self._streams is None:
            self._streams = RandomStreams(self.spec.seed)
        name = f"family.{self.spec.family}.{label}"
        if name not in self.streams_used:
            self.streams_used.append(name)
        return self._streams.stream(name)

    def emit(
        self,
        time: float,
        kind: str,
        member: str = "",
        site: int = -1,
        tier: int = 1,
        duration: float = 0.0,
    ) -> None:
        self.events.append(
            ScriptEvent(
                time=float(time), kind=kind, member=member, site=int(site),
                tier=int(tier), duration=float(duration),
            )
        )


@dataclass(frozen=True)
class CompiledScenario:
    """Output of the pass pipeline: shape + replayable script."""

    spec: ScenarioSpec
    ring_size: int
    height: int
    script: FaultScript


def _validate_pass(ctx: CompileContext) -> None:
    ctx.family = get_family(ctx.spec.family)
    unknown = sorted(set(ctx.spec.params) - set(ctx.family.defaults))
    if unknown:
        raise SpecError(
            f"unknown params {unknown} for family {ctx.spec.family!r} "
            f"(valid: {sorted(ctx.family.defaults)})"
        )
    ctx.params = dict(ctx.family.defaults)
    ctx.params.update(ctx.spec.params)


def _topology_pass(ctx: CompileContext) -> None:
    ctx.ring_size, ctx.height = ring_shape_for_proxies(ctx.spec.num_proxies)
    ctx.num_sites = ctx.spec.num_proxies


def _workload_pass(ctx: CompileContext) -> None:
    ctx.family.build_workload(ctx)


def _fault_pass(ctx: CompileContext) -> None:
    ctx.family.build_faults(ctx)


def _injection_pass(ctx: CompileContext) -> None:
    ctx.family.build_injections(ctx)


def _check_ranges(events: Sequence[ScriptEvent], num_sites: int, height: int) -> None:
    for event in events:
        if event.site >= num_sites:
            raise SpecError(
                f"event {event} references site {event.site} "
                f"but the topology has {num_sites} sites"
            )
        if event.kind == "crash" and event.tier > height:
            raise SpecError(
                f"event {event} targets tier {event.tier} "
                f"but the hierarchy has height {height}"
            )


def _finalize_pass(ctx: CompileContext) -> None:
    _check_ranges(ctx.events, ctx.num_sites, ctx.height)
    # Stable sort: ties keep emission order, so the compile is deterministic
    # and the fault ordering a family chose at one instant survives.
    ctx.events.sort(key=lambda e: e.time)


#: The ordered pass pipeline.  Order is part of the contract: families emit
#: workload before faults before injections, and finalize sees everything.
PassFn = Callable[[CompileContext], None]
PASS_PIPELINE: Tuple[Tuple[str, PassFn], ...] = (
    ("validate", _validate_pass),
    ("topology", _topology_pass),
    ("workload", _workload_pass),
    ("faults", _fault_pass),
    ("injections", _injection_pass),
    ("finalize", _finalize_pass),
)


def compile_spec(spec: ScenarioSpec) -> CompiledScenario:
    """Run the pass pipeline; the result's script is pure replayable data."""
    ctx = CompileContext(spec=spec)
    for _name, pass_fn in PASS_PIPELINE:
        pass_fn(ctx)
    provenance = {
        "family": spec.family,
        "num_proxies": spec.num_proxies,
        "loss": spec.loss,
        "seed": spec.seed,
        "events": spec.events,
        "ring_size": ctx.ring_size,
        "height": ctx.height,
        "params": _plain(ctx.params),
        "streams": sorted(ctx.streams_used),
        "spec": spec.to_json(),
    }
    script = FaultScript(events=tuple(ctx.events), provenance=provenance)
    return CompiledScenario(
        spec=spec, ring_size=ctx.ring_size, height=ctx.height, script=script
    )


# ----------------------------------------------------------------------
# the harness-side fault-script driver
# ----------------------------------------------------------------------


def schedule_script(harness, script: FaultScript) -> int:
    """Schedule every script event on a :class:`repro.sim.harness.ScenarioHarness`.

    Site indices bind to ``harness.access_proxies()`` (index order); ``crash``
    events with ``tier > 1`` resolve to the tier-``t`` ancestor of the AP at
    the event's site index; ``probe_partitions`` appends the partition count
    at its instant to ``harness.partition_probes``.  Returns the number of
    scheduled workload and fault events (probes are not counted).
    """
    from repro.sim.faults import FaultPlan

    aps = harness.access_proxies()
    count = 0
    for event in script.events:
        if event.kind == "join":
            harness.schedule_join(event.time, aps[event.site], guid=event.member)
        elif event.kind == "leave":
            harness.schedule_leave(event.time, event.member)
        elif event.kind == "failure":
            harness.schedule_failure(event.time, event.member)
        elif event.kind == "handoff":
            harness.schedule_handoff(event.time, event.member, aps[event.site])
        elif event.kind == "crash":
            if event.tier <= 1:
                node = aps[event.site]
            else:
                node = str(harness.hierarchy.ancestry(aps[event.site])[event.tier - 2])
            harness.schedule_crash(event.time, node)
        elif event.kind == "disconnect":
            harness.schedule_fault_plan(
                FaultPlan().disconnect(
                    aps[event.site], time=event.time, duration=event.duration
                )
            )
        elif event.kind == "inject_duplicate":
            harness.schedule_injection(event.time, "duplicate", event.member)
        elif event.kind == "inject_stale":
            harness.schedule_injection(event.time, "stale", event.member)
        elif event.kind == "probe_partitions":
            harness.schedule_partition_probe(event.time)
            continue
        else:  # pragma: no cover - ScriptEvent validates kinds
            raise SpecError(f"unknown script event kind {event.kind!r}")
        count += 1
    return count


# ----------------------------------------------------------------------
# CLI: compile a spec to a script file / replay a script file
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compile declarative scenarios to replayable fault scripts"
    )
    parser.add_argument("--list", action="store_true", help="list registered families")
    parser.add_argument("--family", type=str, default=None, help="family to compile")
    parser.add_argument("--proxies", type=int, default=16)
    parser.add_argument("--loss", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--events", type=int, default=24, help="workload size knob")
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="family parameter override (repeatable; values parsed as JSON)",
    )
    parser.add_argument("--out", type=str, default=None, help="write the compiled script here")
    parser.add_argument("--run", type=str, default=None, help="replay a compiled script file")
    parser.add_argument("--protocol", type=str, default="rgb", help="protocol for --run")
    parser.add_argument("--backend", type=str, default="object", help="kernel backend for --run")
    args = parser.parse_args(argv)

    if args.list:
        for name in available_families():
            family = get_family(name)
            print(f"{name:<22} {family.title}")
        return 0

    if args.run:
        from repro.workloads.matrix import replay_script

        with open(args.run) as fh:
            script = FaultScript.loads(fh.read())
        result = replay_script(script, protocol=args.protocol, backend=args.backend)
        status = "ok" if (result.converged and result.ring_agreement) else "DISAGREE"
        print(
            f"{script.family}/{args.protocol}: events={result.workload_events} "
            f"membership={result.membership} {status}"
        )
        return 0 if status == "ok" else 1

    if not args.family:
        parser.error("--family is required (or use --list / --run)")
    params: Dict[str, object] = {}
    for item in args.param:
        key, _, raw = item.partition("=")
        if not key or not raw:
            parser.error(f"--param expects KEY=VALUE, got {item!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    spec = ScenarioSpec(
        family=args.family, num_proxies=args.proxies, loss=args.loss,
        seed=args.seed, events=args.events, params=params,
    )
    compiled = compile_spec(spec)
    text = compiled.script.dumps()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(
            f"wrote {args.out}: {len(compiled.script.events)} events "
            f"(r={compiled.ring_size}, h={compiled.height})"
        )
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":  # pragma: no cover
    # Under ``python -m`` runpy executes this file as ``__main__`` while the
    # canonical ``repro.workloads.spec`` module (imported via the package
    # __init__) owns the family registry — delegate to it so both see the
    # same ``_FAMILIES``.
    from repro.workloads.spec import main as _canonical_main

    sys.exit(_canonical_main())
