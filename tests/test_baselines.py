"""Tests for the baseline membership schemes (tree, flat ring, gossip)."""

from __future__ import annotations

import pytest

from repro.analysis.scalability import hcn_tree_without_representatives, tree_leaf_count
from repro.baselines.flat_ring import FlatRingMembership
from repro.baselines.gossip import GossipMembership
from repro.baselines.tree_hierarchy import TreeHierarchy
from repro.baselines.tree_membership import TreeMembershipProtocol
from repro.core.config import TOKEN_RETRY_LIMIT


class TestTreeHierarchy:
    def test_leaf_count_matches_formula(self):
        tree = TreeHierarchy.regular(height=3, branching=5)
        assert len(tree.leaves()) == tree_leaf_count(3, 5) == 25

    def test_with_representatives_uses_only_leaf_servers(self):
        tree = TreeHierarchy.regular(height=3, branching=3, with_representatives=True)
        assert len(tree.physical_servers()) == len(tree.leaves())
        # every interior node is played by one of its descendant leaves
        for node in (n for n in tree.nodes.values() if not n.is_leaf):
            descendants = {leaf.server for leaf in tree.leaves() if node.node_id in ([leaf.node_id] + tree.path_to_root(leaf.node_id))}
            assert node.server in descendants

    def test_without_representatives_has_distinct_servers(self):
        tree = TreeHierarchy.regular(height=3, branching=3, with_representatives=False)
        assert len(tree.physical_servers()) == len(tree.nodes)

    def test_edge_counts(self):
        tree = TreeHierarchy.regular(height=3, branching=3, with_representatives=True)
        edges = [(node, tree.nodes[c]) for node in tree.nodes.values() for c in node.children]
        assert len(edges) == 3 + 9
        # A representative plays its parent too: that edge crosses no wire.
        assert any(parent.server == child.server for parent, child in edges)

    def test_partition_count_no_faults(self):
        tree = TreeHierarchy.regular(height=3, branching=3)
        assert tree.partition_count([]) == 1

    def test_leaf_failure_keeps_tree_whole(self):
        tree = TreeHierarchy.regular(height=3, branching=3)
        pure_leaf = next(
            leaf.server
            for leaf in tree.leaves()
            if sum(n.server == leaf.server for n in tree.nodes.values()) == 1
        )
        assert tree.partition_count([pure_leaf]) == 1

    def test_representative_failure_partitions_tree(self):
        tree = TreeHierarchy.regular(height=3, branching=3, with_representatives=True)
        # a level-1 representative plays a leaf and an interior node
        rep = next(
            node.server for node in tree.nodes.values() if not node.is_leaf and not node.is_root
        )
        assert tree.partition_count([rep]) > 1

    def test_height_and_branching_validation(self):
        with pytest.raises(ValueError):
            TreeHierarchy.regular(height=2, branching=3)
        with pytest.raises(ValueError):
            TreeHierarchy.regular(height=3, branching=1)


class TestTreeMembershipProtocol:
    def test_one_change_crosses_every_logical_edge(self):
        tree = TreeHierarchy.regular(height=3, branching=5, with_representatives=True)
        protocol = TreeMembershipProtocol(tree)
        leaf = tree.leaves()[0].node_id
        report = protocol.join(leaf, "alice")
        assert report.logical_hops == hcn_tree_without_representatives(3, 5)
        assert report.physical_hops < report.logical_hops  # representative savings
        assert report.servers_reached == len(tree.physical_servers())

    def test_all_servers_agree_after_propagation(self):
        tree = TreeHierarchy.regular(height=3, branching=3)
        protocol = TreeMembershipProtocol(tree)
        leaves = tree.leaves()
        protocol.join(leaves[0].node_id, "alice")
        protocol.join(leaves[4].node_id, "bob")
        protocol.leave(leaves[0].node_id, "alice")
        assert protocol.global_agreement()
        assert protocol.membership_at(tree.root.server) == {"bob"}

    def test_failed_server_does_not_apply_changes(self):
        tree = TreeHierarchy.regular(height=3, branching=3)
        protocol = TreeMembershipProtocol(tree)
        victim = tree.leaves()[3].server
        protocol.fail_server(victim)
        protocol.join(tree.leaves()[0].node_id, "alice")
        assert protocol.membership_at(victim) == set()
        assert not protocol.global_agreement() or victim not in protocol.operational_servers()

    def test_average_hops(self):
        tree = TreeHierarchy.regular(height=3, branching=3)
        protocol = TreeMembershipProtocol(tree)
        for index, leaf in enumerate(tree.leaves()[:4]):
            protocol.join(leaf.node_id, f"m{index}")
        hops = [report.logical_hops for report in protocol.reports]
        assert sum(hops) / len(hops) == pytest.approx(hcn_tree_without_representatives(3, 3))

    def test_non_leaf_origin_rejected(self):
        tree = TreeHierarchy.regular(height=3, branching=3)
        protocol = TreeMembershipProtocol(tree)
        with pytest.raises(KeyError):
            protocol.join(tree.root.node_id, "alice")

    def test_crashed_representative_partitions_propagation(self):
        """A dead interior representative stalls propagation honestly: no
        phantom hops through dead servers, unreachable subtrees stay stale,
        and global agreement breaks (the paper's Section 5.2 tree weakness)."""
        tree = TreeHierarchy.regular(height=3, branching=3, with_representatives=True)
        protocol = TreeMembershipProtocol(tree)
        healthy = protocol.join(tree.leaves()[4].node_id, "warmup")
        # leaves()[0] plays the root and the leftmost interior spine.
        protocol.fail_server(tree.leaves()[0].server)
        report = protocol.join(tree.leaves()[4].node_id, "alice")
        assert report.physical_hops < healthy.physical_hops
        assert report.retransmissions >= 1  # the attempted send to the dead root
        assert report.servers_reached < healthy.servers_reached
        # Leaves behind the dead root never saw the change: stale views.
        assert not protocol.global_agreement()
        assert "alice" not in protocol.membership_at(tree.leaves()[8].server)

    def test_origin_on_failed_server_rejected(self):
        tree = TreeHierarchy.regular(height=3, branching=3)
        protocol = TreeMembershipProtocol(tree)
        victim = tree.leaves()[4]
        protocol.fail_server(victim.server)
        with pytest.raises(ValueError):
            protocol.join(victim.node_id, "alice")

    def test_lossy_links_add_retransmissions_not_hops(self):
        tree = TreeHierarchy.regular(height=3, branching=4)
        lossless = TreeMembershipProtocol(tree)
        lossy = TreeMembershipProtocol(TreeHierarchy.regular(height=3, branching=4), loss=0.4, seed=3)
        leaf = tree.leaves()[0].node_id
        clean = lossless.join(leaf, "m")
        noisy = lossy.join(leaf, "m")
        assert noisy.physical_hops == clean.physical_hops
        assert noisy.retransmissions > 0
        assert noisy.messages == noisy.physical_hops + noisy.retransmissions
        assert clean.retransmissions == 0


class TestFlatRing:
    def test_change_visits_every_proxy(self):
        ring = FlatRingMembership([f"ap-{i}" for i in range(10)])
        report = ring.join("ap-3", "alice")
        assert report.members_reached == 10
        assert report.hops == 10
        assert ring.global_agreement()

    def test_hops_scale_linearly_with_n(self):
        small = FlatRingMembership([f"ap-{i}" for i in range(10)]).join("ap-0", "m")
        large = FlatRingMembership([f"ap-{i}" for i in range(100)]).join("ap-0", "m")
        assert large.hops == 10 * small.hops

    def test_leave_removes_member(self):
        ring = FlatRingMembership(["a", "b", "c"])
        ring.join("a", "alice")
        ring.leave("b", "alice")
        assert all(ring.membership_at(p) == set() for p in ring.operational())

    def test_failed_proxy_excluded_during_revolution(self):
        ring = FlatRingMembership(["a", "b", "c", "d"])
        ring.fail_proxy("c")
        report = ring.join("a", "alice")
        assert "c" in report.repaired
        assert ring.ring_size() == 3
        # The send towards the dead proxy plus TOKEN_RETRY_LIMIT (2) retries
        # are all charged as retransmissions, kernel-style.
        assert report.retransmissions == TOKEN_RETRY_LIMIT + 1 == 3
        # Hops are *successful* transmissions only: a→b, the skip b→d and the
        # closing d→a.  The dead attempt at c is not a hop.
        assert report.hops == 3
        assert report.messages == 6

    def test_failed_proxy_costs_no_phantom_hop(self):
        """Regression: the seed charged a hop to the dead proxy itself."""
        healthy = FlatRingMembership(["a", "b", "c", "d"]).join("a", "m")
        lossy_ring = FlatRingMembership(["a", "b", "c", "d"])
        lossy_ring.fail_proxy("c")
        repaired = lossy_ring.join("a", "m")
        assert healthy.hops == 4
        assert repaired.hops == 3  # one fewer operational proxy to reach

    def test_closing_hop_charged_after_trailing_repair(self):
        """Regression: the closing hop was dropped whenever repairs left the
        revolution with `reached <= 1`-style accounting at the tail."""
        ring = FlatRingMembership(["a", "b", "c"])
        ring.fail_proxy("c")
        report = ring.join("a", "alice")
        # a→b (1 hop), b→c wasted (retransmissions), closing b→a (1 hop).
        assert report.hops == 2
        assert report.members_reached == 2
        assert report.retransmissions == 3

    def test_no_closing_hop_when_token_never_leaves_origin(self):
        ring = FlatRingMembership(["a", "b"])
        ring.fail_proxy("b")
        report = ring.join("a", "alice")
        assert report.hops == 0
        assert report.members_reached == 1
        assert report.retransmissions == 3

    def test_lossy_links_add_retransmissions_not_hops(self):
        ring = FlatRingMembership([f"ap-{i}" for i in range(12)], loss=0.4, seed=5)
        report = ring.join("ap-0", "alice")
        assert report.hops == 12  # delivered hops unchanged by loss masking
        assert report.retransmissions > 0
        assert report.messages == report.hops + report.retransmissions
        assert ring.global_agreement()

    def test_lossy_runs_deterministic_given_seed(self):
        runs = [
            FlatRingMembership([f"ap-{i}" for i in range(8)], loss=0.3, seed=9).join("ap-0", "m")
            for _ in range(2)
        ]
        assert runs[0].retransmissions == runs[1].retransmissions

    def test_invalid_loss_and_retry_limit(self):
        with pytest.raises(ValueError):
            FlatRingMembership(["a"], loss=1.0)
        with pytest.raises(ValueError):
            FlatRingMembership(["a"], loss=-0.1)

    def test_origin_must_be_operational(self):
        ring = FlatRingMembership(["a", "b"])
        ring.fail_proxy("a")
        with pytest.raises(ValueError):
            ring.join("a", "alice")

    def test_duplicate_proxies_rejected(self):
        with pytest.raises(ValueError):
            FlatRingMembership(["a", "a"])


class TestGossip:
    def test_change_converges_to_all_proxies(self):
        gossip = GossipMembership([f"ap-{i}" for i in range(20)], fanout=3, seed=1)
        report = gossip.join("ap-0", "alice")
        assert report.converged
        assert gossip.global_agreement()
        assert gossip.membership_at("ap-19") == {"alice"}

    def test_rounds_grow_roughly_logarithmically(self):
        small = GossipMembership([f"ap-{i}" for i in range(16)], fanout=2, seed=1).join("ap-0", "m")
        large = GossipMembership([f"ap-{i}" for i in range(256)], fanout=2, seed=1).join("ap-0", "m")
        assert large.rounds <= 4 * small.rounds  # far from linear growth

    def test_messages_counted(self):
        gossip = GossipMembership([f"ap-{i}" for i in range(10)], fanout=2, seed=2)
        report = gossip.join("ap-0", "alice")
        assert report.messages > 0
        assert [r.messages for r in gossip.reports] == [report.messages]

    def test_failed_proxy_not_counted_for_convergence(self):
        gossip = GossipMembership([f"ap-{i}" for i in range(10)], fanout=2, seed=3)
        gossip.fail_proxy("ap-5")
        report = gossip.join("ap-0", "alice")
        assert report.converged
        assert "ap-5" not in gossip.operational()

    def test_probes_to_dead_peers_are_counted_as_wasted_sends(self):
        """Regression: failed proxies were silently excluded from peer
        selection, so gossip's message cost under failures was understated."""
        gossip = GossipMembership([f"ap-{i}" for i in range(20)], fanout=3, seed=4)
        for i in range(5, 15):
            gossip.fail_proxy(f"ap-{i}")
        report = gossip.join("ap-0", "alice")
        assert report.converged
        assert report.wasted_messages > 0
        assert report.messages > report.wasted_messages
        # No failure oracle: with half the group dead, a meaningful share of
        # probes must have been wasted on dead peers.
        assert report.wasted_messages >= report.messages // 10

    def test_no_failures_no_loss_means_no_wasted_sends(self):
        gossip = GossipMembership([f"ap-{i}" for i in range(15)], fanout=2, seed=6)
        report = gossip.join("ap-0", "alice")
        assert report.wasted_messages == 0

    def test_lossy_gossip_still_converges_with_wasted_sends(self):
        gossip = GossipMembership([f"ap-{i}" for i in range(25)], fanout=3, seed=8, loss=0.3)
        report = gossip.join("ap-0", "alice")
        assert report.converged
        assert gossip.global_agreement()
        assert report.wasted_messages > 0

    def test_invalid_loss(self):
        with pytest.raises(ValueError):
            GossipMembership(["a", "b"], loss=-0.1)

    def test_fanout_peers_are_distinct_per_sender(self):
        """With fanout = n-1 a single lossless push round must reach every
        peer — only true when a sender's peers are sampled without
        replacement (duplicates would leave some peers unprobed)."""
        for seed in range(5):
            gossip = GossipMembership([f"ap-{i}" for i in range(6)], fanout=5, seed=seed)
            report = gossip.join("ap-0", "alice")
            assert report.rounds == 1
            assert report.converged
            assert report.messages == 5

    def test_deterministic_given_seed(self):
        r1 = GossipMembership([f"ap-{i}" for i in range(30)], fanout=2, seed=7).join("ap-0", "m")
        r2 = GossipMembership([f"ap-{i}" for i in range(30)], fanout=2, seed=7).join("ap-0", "m")
        assert (r1.rounds, r1.messages) == (r2.rounds, r2.messages)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GossipMembership([], fanout=2)
        with pytest.raises(ValueError):
            GossipMembership(["a"], fanout=0)
