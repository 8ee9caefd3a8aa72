"""Small-scope exhaustive checking: every short trace of one member, scored
against the truth (ROADMAP item 15, first slice).

The hypothesis properties compare the system with itself (object vs
columnar, batched vs per-op, lossy vs lossless), so a bug both sides share
passes them.  This test enumerates every trace of a small alphabet on
``regular(3, 3)`` (27 proxies, 13 rings) through :class:`OneRoundEngine`
(object backend, lazy crash detection) and scores each against what the
script says the membership is:

* the alphabet has one member ``m``: it joins at one of four proxies (a ring
  leader, its ring-mate, the sibling ring's leader and the far subtree's
  leader), leaves, or hands off to one of the four; the other steps are
  ``propagate()`` and the crash of one of five entities (two top-ring
  non-leaders, a tier-2 leader, a tier-2 non-leader, a tier-1 non-leader);
* every trace starts with a join, infeasible steps are skipped (a join of a
  present member, a handoff to its own or a crashed proxy, a second crash),
  and a final ``propagate()`` closes it;
* the truth: a join places ``m``, a leave removes it, a handoff moves it,
  and a crashed proxy takes its member with it;
* the verdict: the top leader's global view equals the truth (guid and
  proxy), and every ring's operational members agree.

Traces run shortest first, so every failing trace's proper prefixes are
scored before it and each reproducer is as short as the alphabet allows.
The depth follows the loaded hypothesis profile: 3 steps under ``tier1``,
4 under ``explore``.

``tests/golden/small_scope.json`` is a ratchet: it lists every failing trace
up to depth 4 with its class.  The test fails on a failing trace the file
lacks, and on a listed trace (within the depth run) that now passes or
changed class — so the file only shrinks, and every fix shows as a diff.
Regenerate it with ``PYTHONPATH=src python tests/test_small_scope.py
--regen`` after a fix, and name the removed traces in the change.
"""

from __future__ import annotations

import json
import pickle
import sys
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from hypothesis import settings
from hypothesis_profiles import TIER1_EXAMPLES

from repro.core.hierarchy import HierarchyBuilder
from repro.core.one_round import OneRoundEngine

GOLDEN = Path(__file__).resolve().parent / "golden" / "small_scope.json"
MAX_DEPTH = 4
MEMBER = "m"
PROXIES = ("L1-0000-0000", "L1-0000-0001", "L1-0001-0000", "L1-0006-0000")
CRASHABLE = ("L3-0001", "L3-0002", "L2-0000-0000", "L2-0000-0001", "L1-0000-0001")
ALPHABET: Tuple[Tuple[str, Optional[str]], ...] = (
    tuple(("join", p) for p in PROXIES)
    + (("leave", None),)
    + tuple(("handoff", p) for p in PROXIES)
    + (("propagate", None),)
    + tuple(("crash", e) for e in CRASHABLE)
)
_SHAPE = pickle.dumps(HierarchyBuilder("small-scope").regular(ring_size=3, height=3))

Step = Tuple[str, Optional[str]]


def depth_for_profile() -> int:
    """3 steps under the ``tier1`` profile, 4 under ``explore``."""
    return 4 if settings.default.max_examples > TIER1_EXAMPLES else 3


def _truth_after(truth: Optional[str], crashed: frozenset, step: Step):
    """Apply ``step`` to the script's truth; ``None`` when it is infeasible."""
    verb, arg = step
    if verb == "join":
        return None if truth is not None or arg in crashed else (arg, crashed)
    if verb == "leave":
        return None if truth is None else (None, crashed)
    if verb == "handoff":
        if truth is None or arg == truth or arg in crashed:
            return None
        return (arg, crashed)
    if verb == "crash":
        if arg in crashed:
            return None
        return (None if truth == arg else truth, crashed | {arg})
    return (truth, crashed)  # propagate


def traces(depth: int) -> Iterator[Tuple[Tuple[Step, ...], Optional[str]]]:
    """Every feasible trace of 1..``depth`` steps that starts with a join,
    shortest first, with the member's true proxy at its end."""
    level = [
        ((step,), step[1], frozenset()) for step in ALPHABET if step[0] == "join"
    ]
    while level:
        for trace, truth, _ in level:
            yield trace, truth
        if len(level[0][0]) == depth:
            return
        level = [
            (trace + (step,), *after)
            for trace, truth, crashed in level
            for step in ALPHABET
            for after in [_truth_after(truth, crashed, step)]
            if after is not None
        ]


def run_trace(trace: Tuple[Step, ...]) -> OneRoundEngine:
    engine = OneRoundEngine(pickle.loads(_SHAPE))
    kernel = engine.kernel
    where: Optional[str] = None  # the proxy each capture names as the member's
    for verb, arg in trace:
        if verb == "join":
            kernel.join(arg, MEMBER, now=0.0)
            where = arg
        elif verb == "leave":
            kernel.leave(MEMBER, where, now=0.0)
        elif verb == "handoff":
            kernel.handoff(MEMBER, arg, where, now=0.0)
            where = arg
        elif verb == "crash":
            engine.fail_entity(arg)
        else:
            engine.propagate()
    engine.propagate()
    return engine


def verdict(engine: OneRoundEngine, truth: Optional[str], trace: Tuple[Step, ...]) -> Optional[str]:
    """``None`` when the run is exact, else the failure's class."""
    split = any(not engine.ring_agreement(ring_id) for ring_id in engine.hierarchy.rings)
    view = sorted((str(m.guid), str(m.ap)) for m in engine.global_membership())
    wrong = view != ([(MEMBER, truth)] if truth is not None else [])
    if split:
        return "split"
    if wrong:
        crashed = any(verb == "crash" for verb, _ in trace)
        return "wrong-view-after-crash" if crashed else "wrong-view"
    return None


def render(trace: Tuple[Step, ...]) -> str:
    return " ".join(verb if arg is None else f"{verb}:{arg}" for verb, arg in trace)


def failing(depth: int) -> Tuple[int, Dict[str, str]]:
    """(traces run, failing trace → class) up to ``depth`` steps."""
    count = 0
    found: Dict[str, str] = {}
    for trace, truth in traces(depth):
        count += 1
        kind = verdict(run_trace(trace), truth, trace)
        if kind is not None:
            found[render(trace)] = kind
    return count, found


def test_every_short_trace_is_scored_against_the_ratchet():
    depth = depth_for_profile()
    golden = json.loads(GOLDEN.read_text())
    count, found = failing(depth)
    expected = {
        trace: kind
        for trace, kind in golden["failing"].items()
        if len(trace.split()) <= depth
    }
    assert count == golden["traces_by_depth"][str(depth)]
    new = {t: k for t, k in found.items() if expected.get(t) != k}
    fixed = {t: k for t, k in expected.items() if found.get(t) != k}
    assert not new, f"traces that now fail (or changed class), not in the ratchet: {new}"
    assert not fixed, (
        f"ratchet entries that now pass (or changed class): {fixed}; regenerate with "
        "`PYTHONPATH=src python tests/test_small_scope.py --regen`"
    )


def test_shortest_overtake_is_the_two_operation_reproducer():
    """The shortest wrong view needs no crash: a join and its own handoff,
    captured before the closing propagate, leave the member at its join
    proxy (ROADMAP item 17)."""
    trace = (("join", "L1-0006-0000"), ("handoff", "L1-0000-0000"))
    engine = run_trace(trace)
    assert [str(m.ap) for m in engine.global_membership()] == ["L1-0006-0000"]
    assert verdict(engine, "L1-0000-0000", trace) == "wrong-view"


def _regen() -> None:
    counts: Dict[str, int] = {}
    for depth in range(1, MAX_DEPTH + 1):
        counts[str(depth)] = sum(1 for _ in traces(depth))
    _, found = failing(MAX_DEPTH)
    by_class: Dict[str, int] = {}
    for kind in found.values():
        by_class[kind] = by_class.get(kind, 0) + 1
    payload = {
        "shape": "regular(3, 3)",
        "backend": "object",
        "detection": "lazy",
        "max_depth": MAX_DEPTH,
        "traces_by_depth": counts,
        "failing_by_class": dict(sorted(by_class.items())),
        "failing": found,
    }
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {GOLDEN}: {len(found)} failing of {counts[str(MAX_DEPTH)]} traces")


if __name__ == "__main__":
    if sys.argv[1:] == ["--regen"]:
        _regen()
    else:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_small_scope.py --regen")
