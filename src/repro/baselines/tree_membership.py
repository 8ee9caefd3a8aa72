"""One-round membership propagation over the tree-based hierarchy.

This is the Moshe/Keidar-style baseline the paper's Section 5.1 measures: a
membership change captured at a leaf server (LMS) is sent up the tree to the
root and disseminated down to every server, so that after one round every
server agrees on the new membership.  The hop count of that dissemination —
one message per logical tree edge, minus the transfers that are free because
both endpoints are played by the same physical representative server — is the
quantity formulas (1)–(4) model.

The measured count with the left-most-descendant representative assignment is
slightly *smaller* than the paper's formula (4): the paper only credits the
representative chains rooted at each interior node once, whereas a real
deployment saves every same-server edge.  The benchmark reports both numbers;
the comparison shape (tree ≲ ring, within ~25%) is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.baselines.tree_hierarchy import TreeHierarchy
from repro.sim.rng import RandomStreams


@dataclass
class TreePropagationReport:
    """Hop accounting for one membership change propagated over the tree."""

    origin_leaf: str
    logical_hops: int
    physical_hops: int
    servers_reached: int
    retransmissions: int = 0

    @property
    def messages(self) -> int:
        """Total transmissions on the wire: delivered hops + lost sends."""
        return self.physical_hops + self.retransmissions


class TreeMembershipProtocol:
    """Membership maintenance over a :class:`TreeHierarchy`.

    Every physical server keeps a set of member identifiers; a change is
    propagated with the one-round scheme (up to the root, down to every leaf)
    and the per-change hop counts are recorded.

    With a nonzero per-link ``loss``, every physical hop is retried until it
    lands (the tree links are reliable-FIFO in the CONGRESS model); each lost
    transmission counts one retransmission, so the ablation benchmark compares
    honest on-the-wire message costs across protocols.
    """

    def __init__(self, tree: TreeHierarchy, loss: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        self.tree = tree
        self.loss = loss
        self._rng = RandomStreams(seed).stream("tree.loss")
        self.views: Dict[str, Set[str]] = {server: set() for server in tree.physical_servers()}
        self.reports: List[TreePropagationReport] = []
        self._failed_servers: Set[str] = set()

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------

    def fail_server(self, server: str) -> None:
        if server not in self.views:
            raise KeyError(f"unknown server {server!r}")
        self._failed_servers.add(server)

    def operational_servers(self) -> List[str]:
        return [s for s in self.views if s not in self._failed_servers]

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------

    def _apply(self, server: str, member: str, join: bool) -> None:
        if server in self._failed_servers:
            return
        if join:
            self.views[server].add(member)
        else:
            self.views[server].discard(member)

    def propagate_change(self, leaf_id: str, member: str, join: bool = True) -> TreePropagationReport:
        """Propagate one membership change from ``leaf_id`` to every server.

        The proposal travels up the tree towards the root and is then
        disseminated down every branch that did not already see it, so in the
        fault-free case each logical tree edge is crossed exactly once and
        the logical hop count per change equals the tree's edge count — the
        quantity formula (1) models.  Edges whose endpoints are played by the
        same physical server cost no physical hop, which is the
        representative effect of formulas (2)–(4).

        Propagation is connectivity-aware: a transmission towards a crashed
        server is attempted once (charged as a retransmission, never a hop)
        and the edge is *not* crossed — the upward walk stalls below the dead
        ancestor and dissemination proceeds from the highest ancestor
        actually reached, and subtrees behind a dead interior server stay
        unreached.  A crashed representative therefore partitions the
        service and breaks :meth:`global_agreement`, which is exactly the
        tree-hierarchy weakness the paper's Section 5.2 exploits.
        """
        node = self.tree.nodes.get(leaf_id)
        if node is None or not node.is_leaf:
            raise KeyError(f"{leaf_id!r} is not a leaf of the tree")
        if node.server in self._failed_servers:
            raise ValueError(f"origin leaf {leaf_id!r} runs on a failed server")
        failed = self._failed_servers
        logical_hops = 0
        physical_hops = 0
        retransmissions = 0
        reached: Set[str] = set()

        def physical_hop() -> int:
            """One delivered physical hop, plus any loss-driven resends."""
            retries = 0
            if self.loss > 0.0:
                while float(self._rng.random()) < self.loss:
                    retries += 1
            return retries

        self._apply(node.server, member, join)
        reached.add(node.server)

        # Up the tree: leaf -> ... -> root, stalling below a dead ancestor.
        # (A node we reached is alive, so a same-server parent is alive too.)
        upward_edges: Set[tuple] = set()
        current = node
        while current.parent is not None:
            parent = self.tree.nodes[current.parent]
            logical_hops += 1
            if parent.server != current.server:
                if parent.server in failed:
                    retransmissions += 1  # attempted, never delivered
                    break
                physical_hops += 1
                retransmissions += physical_hop()
            upward_edges.add((parent.node_id, current.node_id))
            self._apply(parent.server, member, join)
            reached.add(parent.server)
            current = parent

        # Down the tree from the highest reached ancestor, over every edge not
        # already walked upward; branches behind a dead server stay unreached.
        stack = [current]
        while stack:
            tree_node = stack.pop()
            for child_id in tree_node.children:
                child = self.tree.nodes[child_id]
                if (tree_node.node_id, child_id) in upward_edges:
                    stack.append(child)
                    continue
                logical_hops += 1
                if child.server != tree_node.server:
                    if child.server in failed:
                        retransmissions += 1  # attempted, never delivered
                        continue
                    physical_hops += 1
                    retransmissions += physical_hop()
                self._apply(child.server, member, join)
                reached.add(child.server)
                stack.append(child)

        report = TreePropagationReport(
            origin_leaf=leaf_id,
            logical_hops=logical_hops,
            physical_hops=physical_hops,
            servers_reached=len(reached),
            retransmissions=retransmissions,
        )
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def join(self, leaf_id: str, member: str) -> TreePropagationReport:
        return self.propagate_change(leaf_id, member, join=True)

    def leave(self, leaf_id: str, member: str) -> TreePropagationReport:
        return self.propagate_change(leaf_id, member, join=False)

    def membership_at(self, server: str) -> Set[str]:
        return set(self.views[server])

    def global_agreement(self) -> bool:
        """All operational servers hold identical views."""
        views = [frozenset(self.views[s]) for s in self.operational_servers()]
        return len(set(views)) <= 1
