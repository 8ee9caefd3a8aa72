"""Epoch-consistent read snapshots of membership state.

A query batch must read one coherent membership frame: the one-round
algorithm commits view changes ring by ring, so two queries answered a round
apart — or one BMS fan-out merging leader views captured on both sides of a
commit — would observe a membership that never existed (a torn read).

A :class:`MembershipFrame` is a copy-on-write capture of the merged leader
views for one fan-out set, keyed on everything that can change the answer:

* the kernel's **coverage epoch** — bumped by every hierarchy surgery or
  repair, so leader re-elections and ring excisions invalidate the frame
  (and the routing that produced it);
* the **ring versions** of the fan-out rings — belt-and-braces for
  structural change at ring granularity;
* the **view versions** of the leader membership views — the precise
  applied-operation high-water mark: any committed round that changed a
  leader's view bumps its version counter.

Frames are immutable after capture: the record map is copied out of the
leader views (records themselves are immutable), so later rounds mutate the
live views without disturbing results already served from the frame.

:class:`SnapshotCache` reuses frames across batches by one rule, on every
driver.  The membership **generation**
(:data:`repro.core.membership.GENERATION`) moves whenever any view or ring
version moves, at the mutation site; a frame whose generation *and* coverage
epoch are unchanged is reused on two integer compares.  Otherwise the full
version key is recomputed — a write that provably did not touch this
fan-out's views revalidates the frame instead of recapturing it.  Hit,
revalidation, invalidation, and capture counters are exposed for the serving
stats.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.identifiers import NodeId
from repro.core.member import MemberInfo
from repro.core.membership import _EMPTY_STORE, GENERATION, MembershipView

__all__ = ["MembershipFrame", "SnapshotCache"]

#: A fan-out resolution: (leader nodes, their rings, their membership views),
#: index-aligned, in the object query path's fan-out order.
Fanout = Tuple[List[NodeId], List[object], List[MembershipView]]


class MembershipFrame:
    """One coherent, immutable capture of a fan-out's merged membership."""

    __slots__ = (
        "tier",
        "leaders",
        "rings",
        "views",
        "epoch",
        "ring_versions",
        "view_versions",
        "generation",
        "records",
        "_members_sorted",
    )

    def __init__(self, tier: int, fanout: Fanout, epoch: int, generation: int) -> None:
        leaders, rings, views = fanout
        self.tier = tier
        self.leaders = leaders
        self.rings = rings
        self.views = views
        self.epoch = epoch
        self.ring_versions = tuple(ring.version for ring in rings)
        self.view_versions = tuple(view.version for view in views)
        self.generation = generation
        # The copy-on-write capture: one C-level dict.update per leader view,
        # in fan-out order — identical last-writer-wins semantics to the
        # object path's per-leader ``merge_from`` chain.  Values are
        # immutable records, so the shallow copy is a full isolation
        # boundary against later rounds.  Most leader views of a large
        # hierarchy never held a member and still sit on the shared empty
        # store: skip them.
        records: Dict[str, MemberInfo] = {}
        for view in views:
            store = view.raw_records()
            if store is not _EMPTY_STORE:
                records.update(store)
        self.records = records
        self._members_sorted: Optional[List[MemberInfo]] = None

    def members(self) -> List[MemberInfo]:
        """Members sorted by GUID — the object path's answer order.

        Sorted once per frame and shared by every query answered from it;
        the per-query cost of a snapshot read is O(1) past the first.
        """
        if self._members_sorted is None:
            records = self.records
            self._members_sorted = [records[k] for k in sorted(records)]
        return self._members_sorted

    def __len__(self) -> int:
        return len(self.records)

    def is_current(self, epoch: int) -> bool:
        """Full key revalidation against the live rings and views."""
        if epoch != self.epoch:
            return False
        if self.ring_versions != tuple(ring.version for ring in self.rings):
            return False
        return self.view_versions == tuple(view.version for view in self.views)


class SnapshotCache:
    """Frame store with generation-gated revalidation and serving counters."""

    __slots__ = ("_frames", "captures", "hits", "revalidations", "invalidations")

    def __init__(self) -> None:
        self._frames: Dict[object, MembershipFrame] = {}
        self.captures = 0
        self.hits = 0
        self.revalidations = 0
        self.invalidations = 0

    def acquire(
        self,
        slot: object,
        tier: int,
        epoch: int,
        resolve: Callable[[], Fanout],
    ) -> MembershipFrame:
        """The frame for ``slot``, reused / revalidated / recaptured.

        A frame validated at the current membership generation and captured
        at ``epoch`` is reused with no version reads at all.  Otherwise the
        full version key is recomputed; a match revalidates the frame, a
        mismatch counts an invalidation and recaptures from a fresh fan-out
        resolution.
        """
        generation = GENERATION.value
        frame = self._frames.get(slot)
        if frame is not None:
            if frame.generation == generation and frame.epoch == epoch:
                self.hits += 1
                return frame
            if frame.is_current(epoch):
                frame.generation = generation
                self.revalidations += 1
                return frame
            self.invalidations += 1
        frame = MembershipFrame(tier, resolve(), epoch, generation)
        self.captures += 1
        self._frames[slot] = frame
        return frame

    def clear(self) -> None:
        self._frames.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "captures": self.captures,
            "hits": self.hits,
            "revalidations": self.revalidations,
            "invalidations": self.invalidations,
        }
