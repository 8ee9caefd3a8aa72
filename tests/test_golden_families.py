"""Golden cross-protocol traces for the adversarial scenario families.

One small seeded cell of each family (16 proxies, seed 0) compiles to a
single fault script whose events replay verbatim (``replay_workload``)
across all four protocols behind the ``MembershipProtocol`` seam.
The per-protocol cost/membership values and the cross-protocol conformance
verdicts are canonicalised against ``tests/golden/families_small.json``.
Regenerate after an intentional change::

    PYTHONPATH=src python tests/test_golden_families.py --regen

Two DISAGREEs are *pinned as honest*:

* ``replay_injection`` — a stale replay of a departed member's original join
  resurrects it in every toy baseline (they re-apply whatever arrives); the
  RGB kernel's per-member sequence watermark (``stale_for``) absorbs it.
* ``correlated_failure`` — annihilating an entire bottom ring defeats RGB's
  ring-internal failure detection (Section 5.2 detects by token
  retransmission *within* a ring; the last AP's crash has no surviving ring
  peer to observe it), so RGB retains the member attached at the last victim
  AP while the globally-informed toys remove everyone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.baselines.driver import PROTOCOL_NAMES, build_protocol
from repro.workloads.matrix import replay_workload
from repro.workloads.spec import ScenarioSpec, compile_spec

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "families_small.json"

FAMILIES = ("flash_crowd", "correlated_failure", "diurnal_mobility", "replay_injection")
#: Value keys that measure wall clock, not protocol behaviour.
NONDETERMINISTIC = ("wall_seconds", "build_seconds", "events_per_second")


def _replay(family: str, protocol: str) -> Tuple[Dict[str, float], Set[str]]:
    """Replay the family's compiled script through one protocol driver."""
    script = compile_spec(
        ScenarioSpec(family=family, num_proxies=16, loss=0.0, seed=0, events=12)
    ).script
    driver = build_protocol(protocol, 16, loss=0.0, seed=0)
    replay_workload(driver, script.events)
    values = {key: round(float(v), 6) for key, v in driver.totals.as_values().items()}
    values["converged"] = 1.0 if driver.global_agreement() else 0.0
    values["membership"] = float(len(driver.members()))
    return values, set(driver.members())


def canonical_families() -> str:
    """All families x all protocols, canonicalised for golden comparison."""
    out: Dict[str, Dict[str, object]] = {}
    for family in FAMILIES:
        protocols: Dict[str, Dict[str, float]] = {}
        memberships: Dict[str, Set[str]] = {}
        for protocol in PROTOCOL_NAMES:
            values, members = _replay(family, protocol)
            protocols[protocol] = values
            memberships[protocol] = members
        baseline = memberships["gossip"]
        diffs: Dict[str, Dict[str, List[str]]] = {}
        for protocol in PROTOCOL_NAMES:
            extra = sorted(memberships[protocol] - baseline)
            missing = sorted(baseline - memberships[protocol])
            if extra or missing:
                diffs[protocol] = {"extra": extra, "missing": missing}
        out[family] = {
            "protocols": protocols,
            "conformance": {
                "verdict": "DISAGREE" if diffs else "AGREE",
                "diffs_vs_gossip": diffs,
            },
        }
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


class TestGoldenFamilies:
    def test_canonicalisation_is_deterministic(self):
        assert canonical_families() == canonical_families()

    def test_families_match_golden_file(self):
        assert GOLDEN_PATH.exists(), (
            f"missing golden file {GOLDEN_PATH}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_families.py --regen`"
        )
        assert canonical_families() == GOLDEN_PATH.read_text()

    def test_pinned_resurrection_disagree(self):
        """Stale join replays resurrect departed members in every toy, not RGB."""
        _, rgb = _replay("replay_injection", "rgb")
        for protocol in ("gossip", "tree", "flat_ring"):
            _, toy = _replay("replay_injection", protocol)
            resurrected = {m for m in toy - rgb if m.startswith("ri-stale-")}
            assert resurrected, f"{protocol} should resurrect stale-replayed members"
            assert not any(m.startswith("ri-stale-") for m in rgb)

    def test_pinned_annihilated_ring_ghost(self):
        """RGB keeps exactly the member whose whole bottom ring died."""
        _, rgb = _replay("correlated_failure", "rgb")
        _, gossip = _replay("correlated_failure", "gossip")
        ghosts = rgb - gossip
        assert len(ghosts) == 1
        assert not gossip - rgb
        assert next(iter(ghosts)).startswith("cf-")

    def test_correlated_failure_head_to_head_costs(self):
        """The honest cost story: RGB pays repair traffic, toys pay nothing."""
        golden = json.loads(GOLDEN_PATH.read_text())
        table = golden["correlated_failure"]["protocols"]
        assert set(table) == set(PROTOCOL_NAMES)
        for protocol, values in table.items():
            assert values["site_failures"] >= 4.0, protocol
            assert values["injections"] == 0.0, protocol
        # Interior-entity crashes only exist in the hierarchical protocols;
        # the flat toys skip (and count) them rather than dropping silently.
        assert golden["correlated_failure"]["protocols"]["gossip"]["skipped_events"] >= 1.0


def _regen() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(canonical_families())
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
