"""Membership Partition / Merge (the paper's stated future work).

Section 6 of the paper lists "Membership-Partition/Merge algorithms to provide
partitionable and self-organizable group membership services" as future work.
This module implements that extension on top of the ring-based hierarchy:

* :func:`detect_partitions` — given the set of currently operational entities,
  compute the partitions of the hierarchy: maximal sets of rings that can
  still exchange membership information.  A ring with two or more faulty
  members is itself split (paper Section 5.2), and a child ring whose parent
  node is faulty is cut off from the tiers above it.
* :meth:`PartitionReport.function_well` — the Function-Well predicate (at
  most ``k`` partitions) used by the reliability analysis.

*Merge* is the kernel's repair path: a ring repaired around a crashed entity
re-attaches its orphaned child rings to the surviving leader
(:meth:`repro.core.kernel.TokenRoundKernel.exclude_entity`), and the detached
sub-hierarchy's members reach the rest of the hierarchy through ordinary
notifications — the paper's remark that partitioned rings "will merge with
other partitions later".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.hierarchy import RingHierarchy
from repro.core.identifiers import NodeId, coerce_node
from repro.core.ring import LogicalRing


@dataclass(frozen=True)
class Partition:
    """One partition of the hierarchy: the rings and entities it contains."""

    partition_id: int
    ring_ids: Tuple[str, ...]
    entities: Tuple[str, ...]
    contains_top: bool

    def __len__(self) -> int:
        return len(self.entities)


@dataclass
class PartitionReport:
    """Result of one partition detection pass."""

    partitions: List[Partition] = field(default_factory=list)
    faulty_entities: List[str] = field(default_factory=list)
    split_rings: List[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.partitions)

    def function_well(self, max_partitions: int = 1) -> bool:
        """The paper's Function-Well predicate: at most ``k`` partitions."""
        return self.count <= max_partitions

    def primary(self) -> Optional[Partition]:
        """The partition containing the topmost ring, if any."""
        for partition in self.partitions:
            if partition.contains_top:
                return partition
        return None


def _ring_segments(ring: LogicalRing, operational: Set[NodeId]) -> List[List[NodeId]]:
    """Contiguous alive arcs of a ring under the given operational set."""
    members = ring.members
    flags = [m in operational for m in members]
    if not members or not any(flags):
        return []
    faulty = sum(1 for f in flags if not f)
    if faulty <= 1:
        # Zero or one fault: detected and locally repaired, ring stays whole.
        return [[m for m, ok in zip(members, flags) if ok]]
    n = len(members)
    segments: List[List[NodeId]] = []
    # Walk the circle, starting right after a faulty slot so arcs are contiguous.
    start = next(i for i, ok in enumerate(flags) if not ok)
    current: List[NodeId] = []
    for offset in range(1, n + 1):
        i = (start + offset) % n
        if flags[i]:
            current.append(members[i])
        elif current:
            segments.append(current)
            current = []
    if current:
        segments.append(current)
    return segments


def detect_partitions(
    hierarchy: RingHierarchy, operational: Iterable["NodeId | str"]
) -> PartitionReport:
    """Compute the partitions of the hierarchy under a set of operational entities.

    Two ring segments belong to the same partition when they are connected by
    a usable leader→parent link: the child segment contains the child ring's
    (surviving) leader-side connection point and the parent node is alive.  In
    line with the paper's analysis, a segment of a ring with at most one fault
    keeps its connectivity both within the ring and to its parent/children; a
    ring with two or more faults contributes one component per surviving arc.
    """
    live: Set[NodeId] = {coerce_node(n) for n in operational}
    report = PartitionReport()
    report.faulty_entities = sorted(
        str(n) for n in hierarchy.ring_of_node if n not in live
    )

    # Build segments and a union-find over them.
    segment_of_node: Dict[NodeId, int] = {}
    segments: List[Tuple[str, List[NodeId]]] = []
    for ring_id, ring in hierarchy.rings.items():
        arcs = _ring_segments(ring, live)
        if len(arcs) > 1:
            report.split_rings.append(ring_id)
        for arc in arcs:
            index = len(segments)
            segments.append((ring_id, arc))
            for node in arc:
                segment_of_node[node] = index

    parent = list(range(len(segments)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    # Connect ring segments upward.  Only a ring's *primary* arc — the one
    # containing its surviving leader (the original leader if alive, otherwise
    # the smallest alive id, i.e. the deterministic re-election winner) — can
    # talk to the tier above; other arcs are cut off until a later merge.  The
    # primary arc attaches to the segment containing its parent node, or, when
    # the parent node itself is faulty, to the parent ring's surviving leader
    # (the protocol's repair re-attaches orphaned child rings there).
    def _primary_arc_index(ring_id: str) -> Optional[int]:
        ring = hierarchy.rings[ring_id]
        leader = ring.leader if ring.leader in live else None
        if leader is None:
            survivors = [m for m in ring.members if m in live]
            if not survivors:
                return None
            leader = min(survivors, key=lambda n: n.value)
        return segment_of_node.get(leader)

    for index, (ring_id, arc) in enumerate(segments):
        if index != _primary_arc_index(ring_id):
            continue
        parent_node = hierarchy.parent_node.get(ring_id)
        if parent_node is None:
            continue
        attach_to = None
        if parent_node in live:
            attach_to = segment_of_node.get(parent_node)
        else:
            parent_ring_id = hierarchy.ring_of_node.get(parent_node)
            if parent_ring_id is not None:
                attach_to = _primary_arc_index(parent_ring_id)
        if attach_to is None:
            continue
        union(index, attach_to)

    groups: Dict[int, List[int]] = {}
    for index in range(len(segments)):
        groups.setdefault(find(index), []).append(index)

    top_ring_id = hierarchy.topmost_ring().ring_id
    for pid, (root, segment_indices) in enumerate(sorted(groups.items())):
        ring_ids = sorted({segments[i][0] for i in segment_indices})
        entities = sorted({str(n) for i in segment_indices for n in segments[i][1]})
        report.partitions.append(
            Partition(
                partition_id=pid,
                ring_ids=tuple(ring_ids),
                entities=tuple(entities),
                contains_top=top_ring_id in ring_ids,
            )
        )
    return report
