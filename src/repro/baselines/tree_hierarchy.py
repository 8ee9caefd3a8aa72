"""The tree-based hierarchy of membership servers (CONGRESS-style baseline).

The paper's Section 5 compares the RGB ring-based hierarchy against the
CONGRESS hierarchy [Anker et al. 1998]: local membership servers (LMSs) at the
leaves and global membership servers (GMSs) arranged in a tree above them,
where *representatives* means the higher-level logical GMSs are physically the
same machines as lowest-level servers.

The baseline here supports both variants:

* ``with_representatives=True`` — the physical population is just the ``n``
  leaf servers; every interior position is played by one of them (the
  left-most descendant leaf, matching the usual construction).  One physical
  fault therefore removes a leaf *and* every interior position it plays.
* ``with_representatives=False`` — the "transformation hierarchy" of
  Section 5.2: interior nodes are physically distinct machines.

Reliability is evaluated by :meth:`TreeHierarchy.partition_count` (connected
components of the surviving logical tree) and scalability by
:mod:`repro.baselines.tree_membership`, which runs a one-round proposal over
the tree and counts hops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple


@dataclass
class TreeNode:
    """One logical node of the tree hierarchy."""

    node_id: str
    level: int  # 0 = root, height-1 = leaves
    server: str  # the physical server playing this logical node
    parent: Optional[str] = None
    children: List[str] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None


class TreeHierarchy:
    """A complete ``branching``-ary tree of membership servers."""

    def __init__(self, nodes: Dict[str, TreeNode], height: int, branching: int, with_representatives: bool) -> None:
        self.nodes = nodes
        self.height = height
        self.branching = branching
        self.with_representatives = with_representatives
        self._root_id = next(nid for nid, node in nodes.items() if node.is_root)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def regular(cls, height: int, branching: int, with_representatives: bool = True) -> "TreeHierarchy":
        """Build the complete tree: ``height`` levels, ``branching`` children per interior node.

        Leaves sit at level ``height - 1``; there are ``branching**(height-1)``
        of them, matching the paper's ``n = r**(h-1)``.
        """
        if height < 3:
            raise ValueError(f"tree-based hierarchy requires height >= 3, got {height}")
        if branching < 2:
            raise ValueError(f"branching must be >= 2, got {branching}")
        nodes: Dict[str, TreeNode] = {}

        def build(level: int, path: Tuple[int, ...], parent: Optional[str]) -> str:
            node_id = "t-" + "-".join(f"{p}" for p in path) if path else "t-root"
            node = TreeNode(node_id=node_id, level=level, server="", parent=parent)
            nodes[node_id] = node
            if level < height - 1:
                for child_index in range(branching):
                    child_id = build(level + 1, path + (child_index,), node_id)
                    node.children.append(child_id)
            return node_id

        build(0, (), None)

        # Assign physical servers.  Leaves are servers themselves; interior
        # nodes are either distinct machines or the left-most descendant leaf.
        for node in nodes.values():
            if node.is_leaf:
                node.server = f"srv-{node.node_id}"
        for node in nodes.values():
            if node.is_leaf:
                continue
            if with_representatives:
                leftmost = node
                while not leftmost.is_leaf:
                    leftmost = nodes[leftmost.children[0]]
                node.server = leftmost.server
            else:
                node.server = f"srv-{node.node_id}"
        return cls(nodes, height, branching, with_representatives)

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------

    @property
    def root(self) -> TreeNode:
        return self.nodes[self._root_id]

    def leaves(self) -> List[TreeNode]:
        return sorted((n for n in self.nodes.values() if n.is_leaf), key=lambda n: n.node_id)

    def physical_servers(self) -> List[str]:
        """Distinct physical machines in the hierarchy."""
        return sorted({node.server for node in self.nodes.values()})

    def representatives(self) -> List[str]:
        """Physical servers that play at least one interior position."""
        return sorted({n.server for n in self.nodes.values() if not n.is_leaf})

    def path_to_root(self, node_id: str) -> List[str]:
        """Node ids from ``node_id`` (exclusive) up to the root (inclusive)."""
        chain: List[str] = []
        current = self.nodes[node_id]
        while current.parent is not None:
            chain.append(current.parent)
            current = self.nodes[current.parent]
        return chain

    # ------------------------------------------------------------------
    # reliability
    # ------------------------------------------------------------------

    def surviving_nodes(self, failed_servers: Iterable[str]) -> Set[str]:
        """Logical nodes whose physical server is still operational."""
        failed = set(failed_servers)
        return {nid for nid, node in self.nodes.items() if node.server not in failed}

    def partition_count(self, failed_servers: Iterable[str]) -> int:
        """Connected components of the surviving logical tree.

        A failed interior server severs its subtree from the rest; the
        components of the forest that remains are the partitions of the
        membership service.  Components are counted over surviving nodes only.
        """
        alive = self.surviving_nodes(failed_servers)
        if not alive:
            return 0
        seen: Set[str] = set()
        components = 0
        for node_id in alive:
            if node_id in seen:
                continue
            components += 1
            stack = [node_id]
            seen.add(node_id)
            while stack:
                current = self.nodes[stack.pop()]
                neighbours = list(current.children)
                if current.parent is not None:
                    neighbours.append(current.parent)
                for neighbour in neighbours:
                    if neighbour in alive and neighbour not in seen:
                        seen.add(neighbour)
                        stack.append(neighbour)
        return components
