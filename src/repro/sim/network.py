"""Simulated network: nodes, links and latency models.

The network is a graph of :class:`NetworkNode` objects joined by
:class:`Link` objects.  The RGB hierarchy and its baselines sit *above* this
layer, and the paper's analysis counts one "hop" per logical edge, so
nothing routes over it: the harness's transport carries a notification
between two live entities in one draw of a :class:`LatencyModel`, and reads
their liveness from the fault injector, not from a network.  Nodes and links
describe the physical topology (:mod:`repro.topology.generator`) and its
connectivity.

Latency model
-------------
A :class:`LatencyModel` describes the delay distribution and loss of one
traversal.  Three models match the three network tiers of the paper's
architecture:

* wireless edge (MH ⇄ AP): higher mean, higher variance, non-zero loss;
* intra-AS (AP ⇄ AG, AG ⇄ AG): moderate latency, small loss;
* inter-AS (AG ⇄ BR, BR ⇄ BR): wide-area latency, small loss.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


class NodeState(enum.Enum):
    """Operational state of a simulated node.

    The paper distinguishes temporary, voluntary and faulty disconnection of
    mobile hosts and crash faults of network entities; the simulator folds
    these into three node states plus per-event fault metadata.
    """

    UP = "up"
    DISCONNECTED = "disconnected"
    FAILED = "failed"


@dataclass(slots=True)
class LatencyModel:
    """Delay distribution and loss probability of one traversal.

    Delay is sampled as ``max(min_delay, normal(mean, std))``.  ``loss``
    is the independent probability that a single transmission is dropped.
    """

    mean: float
    std: float = 0.0
    min_delay: float = 0.01
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ValueError(f"mean delay must be positive, got {self.mean}")
        if self.std < 0:
            raise ValueError(f"delay std must be non-negative, got {self.std}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {self.loss}")
        if self.min_delay <= 0:
            raise ValueError(f"min_delay must be positive, got {self.min_delay}")

    def sample_delay(self, rng: np.random.Generator) -> float:
        """Draw one traversal delay."""
        if self.std == 0.0:
            return max(self.min_delay, self.mean)
        return float(max(self.min_delay, rng.normal(self.mean, self.std)))

    def sample_loss(self, rng: np.random.Generator) -> bool:
        """Return True if this transmission should be dropped."""
        if self.loss == 0.0:
            return False
        return bool(rng.random() < self.loss)


#: Default latency models per tier, in abstract milliseconds.
INTRA_AS = LatencyModel(mean=2.0, std=0.5, loss=0.0)
INTER_AS = LatencyModel(mean=20.0, std=5.0, loss=0.0)


@dataclass(slots=True)
class NetworkNode:
    """A simulated host: a mobile host, AP, AG or BR.

    ``kind`` is a free-form string (``"MH"``, ``"AP"``, ``"AG"``, ``"BR"``)
    used by the topology layer and renderers; the network itself treats all
    nodes uniformly.  Slotted: a 100k-proxy cell instantiates one of these
    per entity.
    """

    node_id: str
    kind: str
    state: NodeState = NodeState.UP
    tier: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def is_operational(self) -> bool:
        return self.state is NodeState.UP

    def __hash__(self) -> int:
        return hash(self.node_id)


@dataclass(slots=True)
class Link:
    """A bidirectional physical link between two nodes."""

    a: str
    b: str
    latency: LatencyModel

    def other(self, node_id: str) -> str:
        if node_id == self.a:
            return self.b
        if node_id == self.b:
            return self.a
        raise KeyError(f"node {node_id!r} is not an endpoint of link {self.a!r}—{self.b!r}")


class Network:
    """The node/link graph.

    The transport asks it one question: "is this node able to
    communicate?".  Links describe the physical topology; nothing routes
    over them.
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, NetworkNode] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {}

    # -- construction ------------------------------------------------------

    def add_nodes(self, nodes: Iterable[NetworkNode]) -> List[NetworkNode]:
        """Add ``nodes``; a mid-batch error keeps the earlier inserts."""
        added: List[NetworkNode] = []
        registry = self._nodes
        adjacency = self._adjacency
        for node in nodes:
            if node.node_id in registry:
                raise ValueError(f"duplicate node id {node.node_id!r}")
            registry[node.node_id] = node
            adjacency[node.node_id] = []
            added.append(node)
        return added

    def add_links(self, links: Iterable[Tuple[str, str, LatencyModel]]) -> List[Link]:
        """Add ``(a, b, latency)`` links; a mid-batch error keeps the earlier
        inserts."""
        added: List[Link] = []
        registry = self._nodes
        link_map = self._links
        adjacency = self._adjacency
        link_key = self._link_key
        for a, b, latency in links:
            if a not in registry or b not in registry:
                missing = a if a not in registry else b
                raise KeyError(f"cannot link unknown node {missing!r}")
            if a == b:
                raise ValueError(f"self-links are not allowed ({a!r})")
            key = link_key(a, b)
            if key in link_map:
                raise ValueError(f"duplicate link between {a!r} and {b!r}")
            link = Link(a=a, b=b, latency=latency)
            link_map[key] = link
            adjacency[a].append(b)
            adjacency[b].append(a)
            added.append(link)
        return added

    @staticmethod
    def _link_key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    # -- lookup -------------------------------------------------------------

    def node(self, node_id: str) -> NetworkNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[self._link_key(a, b)]
        except KeyError:
            raise KeyError(f"no link between {a!r} and {b!r}") from None

    def nodes(self, kind: Optional[str] = None) -> List[NetworkNode]:
        if kind is None:
            return list(self._nodes.values())
        return [n for n in self._nodes.values() if n.kind == kind]

    def node_ids(self, kind: Optional[str] = None) -> List[str]:
        return [n.node_id for n in self.nodes(kind)]

    def links(self) -> List[Link]:
        return list(self._links.values())

    def neighbors(self, node_id: str) -> List[str]:
        return list(self._adjacency.get(node_id, []))

    def __len__(self) -> int:
        return len(self._nodes)

    # -- state changes ------------------------------------------------------

    # -- connectivity --------------------------------------------------------

    def connected_components(self, kinds: Optional[Iterable[str]] = None) -> List[List[str]]:
        """Connected components over operational nodes.

        ``kinds`` restricts the reported membership of each component (for
        example ``{"AP"}`` to count partitions of the access-proxy tier), but
        connectivity is always computed over the full operational graph.
        """
        kind_filter = set(kinds) if kinds is not None else None
        seen: set[str] = set()
        components: List[List[str]] = []
        for node in self._nodes.values():
            if node.node_id in seen or not node.is_operational:
                continue
            stack = [node.node_id]
            seen.add(node.node_id)
            component: List[str] = []
            while stack:
                current = stack.pop()
                current_node = self._nodes[current]
                if kind_filter is None or current_node.kind in kind_filter:
                    component.append(current)
                for neighbor in self._adjacency[current]:
                    if neighbor in seen:
                        continue
                    if not self._nodes[neighbor].is_operational:
                        continue
                    seen.add(neighbor)
                    stack.append(neighbor)
            if component:
                components.append(sorted(component))
        return components
