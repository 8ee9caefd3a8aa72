"""Cross-protocol conformance for the MembershipProtocol driver seam.

Two kinds of coverage:

* **Property tests** — every protocol behind
  :mod:`repro.baselines.driver` (RGB kernel, flat ring, gossip, tree) replays
  an arbitrary lossless scenario and must reach global agreement on *the same*
  final membership, because all event gating lives in the shared driver base.
* **Golden ablation run** — one small seeded ablation sweep is canonicalised
  (wall-clock fields dropped, floats rounded) and asserted byte-identical to
  ``tests/golden/ablation_small.json``.  Regenerate after an intentional
  behaviour change with::

      PYTHONPATH=src python tests/test_protocol_drivers.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples

from repro.analysis.scalability import (
    hcn_ring,
    hcn_tree,
    hcn_tree_without_representatives,
)
from repro.baselines.driver import (
    PROTOCOL_NAMES,
    build_protocol,
    ring_shape_for_proxies,
    tree_shape_for_leaves,
)
from repro.workloads.matrix import AblationSweep, MatrixCell, run_ablation_cell

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "ablation_small.json"

NUM_SITES = 9  # rgb: (3, 2) hierarchy; tree: branching 3, height 3; 9 proxies
MEMBERS = [f"m{i}" for i in range(6)]

# An op is (kind, member_index, site_index); invalid ops (duplicate joins,
# leaves of absent members, handoffs to the current site) are exercised on
# purpose — the shared gating must skip them identically in every protocol.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["join", "leave", "handoff"]),
        st.integers(min_value=0, max_value=len(MEMBERS) - 1),
        st.integers(min_value=0, max_value=NUM_SITES - 1),
    ),
    min_size=1,
    max_size=18,
)


def apply_ops(driver, ops: List[Tuple[str, int, int]]) -> None:
    sites = driver.sites
    for kind, member_idx, site_idx in ops:
        member = MEMBERS[member_idx]
        if kind == "join":
            driver.join(sites[site_idx], member)
        elif kind == "leave":
            driver.leave(member)
        else:
            driver.handoff(member, sites[site_idx])


def reference_membership(ops: List[Tuple[str, int, int]]) -> set:
    """The gating rules of BaseProtocolDriver, replayed on a plain dict."""
    attachment: Dict[str, int] = {}
    for kind, member_idx, site_idx in ops:
        member = MEMBERS[member_idx]
        if kind == "join":
            if member not in attachment:
                attachment[member] = site_idx
        elif kind == "leave":
            attachment.pop(member, None)
        else:
            if member in attachment and attachment[member] != site_idx:
                attachment[member] = site_idx
    return set(attachment)


class TestCrossProtocolConvergence:
    @settings(max_examples=examples(15), deadline=None)
    @given(ops=ops_strategy)
    def test_all_protocols_agree_on_lossless_scenarios(self, ops):
        expected = reference_membership(ops)
        for name in PROTOCOL_NAMES:
            driver = build_protocol(name, NUM_SITES, loss=0.0, seed=13)
            apply_ops(driver, ops)
            assert driver.global_agreement(), f"{name} did not reach agreement"
            assert driver.members() == expected, (
                f"{name} membership {sorted(driver.members())} != {sorted(expected)}"
            )

    @settings(max_examples=examples(8), deadline=None)
    @given(ops=ops_strategy, seed=st.integers(min_value=0, max_value=5))
    def test_lossy_runs_converge_to_the_lossless_view(self, ops, seed):
        expected = reference_membership(ops)
        for name in PROTOCOL_NAMES:
            driver = build_protocol(name, NUM_SITES, loss=0.05, seed=seed)
            apply_ops(driver, ops)
            assert driver.global_agreement(), f"{name} did not mask 5% loss"
            assert driver.members() == expected

    def test_site_crash_parity(self):
        """A crashed site's members are failure-propagated by every protocol.

        The crash target is a *pure leaf* in the tree's representative
        assignment (index 1), so no protocol loses more than the one site.
        """
        results = {}
        for name in PROTOCOL_NAMES:
            driver = build_protocol(name, NUM_SITES, loss=0.0, seed=21)
            sites = driver.sites
            for index, member in enumerate(MEMBERS):
                driver.join(sites[index % 4], member)
            crash_report = driver.fail_site(sites[1])
            assert crash_report.applied
            driver.join(sites[3], "late")
            driver.leave(MEMBERS[0])
            assert driver.global_agreement(), f"{name} disagrees after crash"
            assert sites[1] not in driver.operational_sites()
            results[name] = frozenset(driver.members())
        assert len(set(results.values())) == 1, f"membership diverged: {results}"
        survivors = next(iter(results.values()))
        # m1 and m5 were attached to the crashed site; m0 left voluntarily.
        assert survivors == {"m2", "m3", "m4", "late"}

    def test_crashing_the_last_site_is_refused(self):
        driver = build_protocol("flat_ring", 2)
        assert driver.fail_site(driver.sites[0]).applied
        assert not driver.fail_site(driver.sites[1]).applied


class TestCostReports:
    def test_single_change_hops_match_the_closed_forms(self):
        """Formulas (1)–(6) validation: one join on an idle population costs
        exactly the paper's normalised hop count."""
        n = 16
        ring_size, height = ring_shape_for_proxies(n)
        branching, tree_height = tree_shape_for_leaves(n)

        rgb = build_protocol("rgb", n)
        report = rgb.join(rgb.sites[0], "alice")
        assert report.hops == hcn_ring(height, ring_size)

        flat = build_protocol("flat_ring", n)
        assert flat.join(flat.sites[0], "alice").hops == n

        tree = build_protocol("tree", n)
        tree_report = tree.join(tree.sites[0], "alice")
        # Physical hops are bounded by formula (4); the logical edge count of
        # the propagation equals formula (1)'s normalised form.
        assert tree_report.hops <= hcn_tree(tree_height, branching)
        assert tree.protocol.reports[-1].logical_hops == hcn_tree_without_representatives(
            tree_height, branching
        )

    def test_skipped_events_are_counted_not_charged(self):
        driver = build_protocol("gossip", NUM_SITES, seed=2)
        driver.join(driver.sites[0], "alice")
        before = driver.totals.messages
        duplicate = driver.join(driver.sites[3], "alice")
        assert not duplicate.applied
        assert driver.totals.skipped == 1
        assert driver.totals.messages == before

    def test_totals_accumulate_reports(self):
        driver = build_protocol("flat_ring", 8, seed=1)
        driver.join(driver.sites[0], "a")
        driver.join(driver.sites[1], "b")
        driver.leave("a")
        totals = driver.totals
        assert totals.changes == 3
        assert totals.hops == 24  # three full revolutions of 8 proxies
        assert totals.per_change(totals.hops) == pytest.approx(8.0)
        values = totals.as_values()
        assert values["hops_per_change"] == pytest.approx(8.0)
        assert values["changes"] == 3.0

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            build_protocol("paxos", 9)


def canonical_ablation() -> str:
    """A small seeded ablation sweep, canonicalised for golden comparison."""
    sweep = AblationSweep(
        sizes=(16,),
        losses=(0.0, 0.01),
        scenarios=("churn", "partition_merge"),
        protocols=PROTOCOL_NAMES,
        seed=0,
        events_per_cell=10,
    )
    cells = []
    for result in sweep.run():
        record = result.record.to_json()
        values = {
            key: round(float(value), 6)
            for key, value in sorted(record["values"].items())
            if key not in ("wall_seconds", "build_seconds", "events_per_second")
        }
        cells.append({"name": record["name"], "params": record["params"], "values": values})
    return json.dumps(cells, indent=2, sort_keys=True) + "\n"


class TestGoldenAblation:
    def test_ablation_run_is_stable_across_runs(self):
        assert canonical_ablation() == canonical_ablation()

    def test_ablation_run_matches_golden_file(self):
        assert GOLDEN_PATH.exists(), (
            f"missing golden file {GOLDEN_PATH}; regenerate with "
            "`PYTHONPATH=src python tests/test_protocol_drivers.py --regen`"
        )
        assert canonical_ablation() == GOLDEN_PATH.read_text()


class TestAblationCell:
    @pytest.mark.parametrize("scenario", ["handoff_storm", "mobility_trace"])
    def test_other_scenarios_replay_through_every_protocol(self, scenario):
        for name in PROTOCOL_NAMES:
            cell = MatrixCell(scenario, 16, 0.0, seed=1, protocol=name)
            result = run_ablation_cell(cell, events=8)
            assert result.converged, f"{name}/{scenario} disagrees"
            assert result.record.params["protocol"] == name
            assert result.record.value("changes") > 0

    def test_matrix_cell_routes_baseline_protocols_to_the_replay(self):
        from repro.workloads.matrix import run_matrix_cell

        result = run_matrix_cell(MatrixCell("churn", 16, 0.0, protocol="gossip"), events=6)
        assert result.record.params["protocol"] == "gossip"
        assert result.converged

    def test_unknown_protocol_in_cell_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            MatrixCell("churn", 16, 0.0, protocol="paxos")


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(canonical_ablation())
    print(f"wrote {GOLDEN_PATH} ({GOLDEN_PATH.stat().st_size} bytes)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
