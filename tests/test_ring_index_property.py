"""Equivalence of the array-backed ring index with the naive list semantics.

PR 4 replaced :class:`repro.core.ring.LogicalRing`'s per-call ``list.index``
scans with a maintained position index (plus a mutation ``version`` the
kernel's caches key on).  These property tests drive the optimised ring and a
deliberately naive reference model through identical random mutation
sequences and require every observable — order, successor/predecessor,
``members_from``, containment, leader — to match exactly.  The golden-trace
suite (``tests/test_golden_traces.py``) separately pins that full harness
runs over the optimised path stay byte-identical to the pre-optimisation
dumps committed under ``tests/golden/``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis_profiles import examples

from repro.core.identifiers import NodeId
from repro.core.ring import LogicalRing, RingError


class NaiveRing:
    """Reference implementation: the seed's plain-list semantics."""

    def __init__(self, members):
        self.members = list(members)
        self.leader = self.members[0] if self.members else None

    def _index_of(self, node):
        return self.members.index(node)

    def successor(self, node):
        idx = self._index_of(node)
        return self.members[(idx + 1) % len(self.members)]

    def predecessor(self, node):
        idx = self._index_of(node)
        return self.members[(idx - 1) % len(self.members)]

    def members_from(self, start):
        idx = self._index_of(start)
        return self.members[idx:] + self.members[:idx]

    def insert_member(self, node, after=None):
        if after is None:
            self.members.append(node)
        else:
            self.members.insert(self._index_of(after) + 1, node)
        if self.leader is None:
            self.leader = node

    def remove_member(self, node):
        was_leader = self.leader == node
        del self.members[self._index_of(node)]
        if was_leader:
            self.leader = None
        return was_leader

    def elect_leader(self):
        self.leader = min(self.members, key=lambda n: n.value) if self.members else None
        return self.leader


def _node(i: int) -> NodeId:
    return NodeId(f"n-{i:04d}")


@st.composite
def mutation_scripts(draw):
    """An initial ring plus a sequence of insert/remove/elect mutations."""
    initial = draw(st.integers(min_value=2, max_value=8))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("insert_end", "insert_after", "remove", "elect")),
                st.integers(min_value=0, max_value=10_000),
            ),
            min_size=0,
            max_size=24,
        )
    )
    return initial, ops


@settings(max_examples=examples(200), deadline=None)
@given(script=mutation_scripts())
def test_indexed_ring_matches_naive_semantics(script):
    initial, ops = script
    members = [_node(i) for i in range(initial)]
    ring = LogicalRing(ring_id="prop", tier=1, members=list(members))
    naive = NaiveRing(members)
    next_id = initial

    for action, pick in ops:
        if action == "insert_end":
            node = _node(next_id)
            next_id += 1
            ring.insert_member(node)
            naive.insert_member(node)
        elif action == "insert_after":
            if not ring.members:
                continue
            anchor = ring.members[pick % len(ring.members)]
            node = _node(next_id)
            next_id += 1
            ring.insert_member(node, after=anchor)
            naive.insert_member(node, after=anchor)
        elif action == "remove":
            if len(ring.members) <= 1:
                continue
            victim = ring.members[pick % len(ring.members)]
            assert ring.remove_member(victim) == naive.remove_member(victim)
        else:  # elect
            if not ring.members:
                continue
            assert ring.elect_leader() == naive.elect_leader()

        # Full observable equivalence after every mutation.
        assert ring.members == naive.members
        ring.validate()  # includes the index-sync invariant
        for node in ring.members:
            assert ring.successor(node) == naive.successor(node)
            assert ring.predecessor(node) == naive.predecessor(node)
            assert node in ring
        if ring.members:
            start = ring.members[pick % len(ring.members)]
            assert ring.members_from(start) == naive.members_from(start)
        assert _node(99_999) not in ring


def test_unknown_member_still_raises_ring_error():
    ring = LogicalRing(ring_id="r", tier=1, members=[_node(0), _node(1)])
    with pytest.raises(RingError):
        ring.successor(_node(7))
    with pytest.raises(RingError):
        ring.members_from(_node(7))
    with pytest.raises(RingError):
        ring.remove_member(_node(7))


def test_duplicate_members_rejected_at_construction():
    with pytest.raises(RingError):
        LogicalRing(ring_id="r", tier=1, members=[_node(0), _node(0)])


def test_version_bumps_on_every_shape_change():
    ring = LogicalRing(ring_id="r", tier=1, members=[_node(0), _node(1), _node(2)])
    v0 = ring.version
    ring.insert_member(_node(3))
    v1 = ring.version
    assert v1 > v0
    ring.insert_member(_node(4), after=_node(0))
    v2 = ring.version
    assert v2 > v1
    ring.remove_member(_node(0))
    assert ring.version > v2


def test_contains_accepts_foreign_probe_types():
    ring = LogicalRing(ring_id="r", tier=1, members=[_node(0)])
    assert "n-0000" not in ring  # plain string is not a NodeId
    assert ["unhashable"] not in ring  # falls back to list semantics
