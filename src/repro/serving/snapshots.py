"""Epoch-consistent read snapshots of membership state.

A query batch must read one coherent membership frame: the one-round
algorithm commits view changes ring by ring, so two queries answered a round
apart — or one BMS fan-out merging leader views captured on both sides of a
commit — would observe a membership that never existed (a torn read).

A :class:`MembershipFrame` is a copy-on-write capture of the merged leader
views for one fan-out set, taken at one membership **generation** and one
kernel **coverage epoch** (bumped by every hierarchy surgery or repair, so
leader re-elections and ring excisions invalidate the frame and the routing
that produced it).  Frames are immutable after capture: the record map is
copied out of the leader views (records themselves are immutable), so later
rounds mutate the live views without disturbing results already served from
the frame.

:class:`SnapshotCache` reuses frames across batches by one rule, on every
driver.  A frame whose generation *and* epoch are unchanged is reused on two
integer compares, reading nothing else.  Otherwise the change log on the
generation (:data:`repro.core.membership.GENERATION`) names every view and
ring that moved since the frame's generation, and that slice is intersected
with the fan-out's identity index (:func:`fanout_index`):

* nothing of the fan-out moved — the frame is revalidated;
* only leader views moved — a new frame re-merges, in fan-out order, the
  views that held records plus the moved ones (counted as one invalidation
  and one capture);
* a fan-out ring moved, the epoch moved, or the frame's generation has
  fallen off the log — the fan-out is resolved again and captured in full.

Hit, revalidation, invalidation, and capture counters are exposed for the
serving stats.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.identifiers import NodeId
from repro.core.member import MemberInfo
from repro.core.membership import GENERATION, MembershipView

__all__ = ["MembershipFrame", "SnapshotCache", "fanout_index"]

#: A fan-out resolution: (leader nodes, their rings, their membership views),
#: index-aligned, in the object query path's fan-out order.
Fanout = Tuple[List[NodeId], List[object], List[MembershipView]]

#: ``id(view) -> fan-out position`` and ``id(ring) -> -1`` for one fan-out.
FanoutIndex = Dict[int, int]


def fanout_index(fanout: Fanout) -> FanoutIndex:
    """The identity index a frame intersects the change log with.

    Valid while the fan-out is: every object it names is held by the
    fan-out, so no other object can share its ``id``.
    """
    _leaders, rings, views = fanout
    index = dict.fromkeys(map(id, rings), -1)
    index.update(zip(map(id, views), range(len(views))))
    return index


class MembershipFrame:
    """One coherent, immutable capture of a fan-out's merged membership.

    ``positions`` limits the merge to those fan-out positions (a patch: the
    caller guarantees every other view is empty); ``filled`` records which
    positions held records, so the next patch knows what to re-merge.
    """

    __slots__ = (
        "tier",
        "leaders",
        "rings",
        "views",
        "epoch",
        "generation",
        "index",
        "filled",
        "records",
        "_members_sorted",
    )

    def __init__(
        self,
        tier: int,
        fanout: Fanout,
        epoch: int,
        generation: int,
        index: Optional[FanoutIndex] = None,
        positions: Optional[Iterable[int]] = None,
    ) -> None:
        leaders, rings, views = fanout
        self.tier = tier
        self.leaders = leaders
        self.rings = rings
        self.views = views
        self.epoch = epoch
        self.generation = generation
        self.index = index
        # The copy-on-write capture: one C-level dict.update per leader view,
        # in fan-out order — identical last-writer-wins semantics to the
        # object path's per-leader ``merge_from`` chain.  Values are
        # immutable records, so the shallow copy is a full isolation
        # boundary against later rounds.  Most leader views of a large
        # hierarchy never held a member: skip them.
        records: Dict[str, MemberInfo] = {}
        filled: List[int] = []
        pairs = enumerate(views) if positions is None else ((p, views[p]) for p in positions)
        for position, view in pairs:
            store = view.raw_records()
            if store:
                records.update(store)
                filled.append(position)
        self.records = records
        self.filled = filled
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

    def moved(self, epoch: int) -> Optional[Set[int]]:
        """Fan-out positions whose view moved since this frame's generation.

        None when the frame must be captured in full: the epoch moved, a
        fan-out ring moved, or the generation has fallen off the log.
        """
        if epoch != self.epoch:
            return None
        since = GENERATION.since(self.generation)
        if since is None:
            return None
        index = self.index
        if index is None:
            index = self.index = fanout_index((self.leaders, self.rings, self.views))
        positions = {index[key] for key in index.keys() & map(id, since)}
        if -1 in positions:
            return None
        return positions

    def is_current(self, epoch: int) -> bool:
        """True when nothing this frame merged has moved since its capture."""
        return self.moved(epoch) == set()

    def patched(self, moved: Set[int], generation: int) -> "MembershipFrame":
        """A new frame at ``generation`` after only the ``moved`` views changed."""
        return MembershipFrame(
            self.tier,
            (self.leaders, self.rings, self.views),
            self.epoch,
            generation,
            self.index,
            sorted(moved.union(self.filled)),
        )


class SnapshotCache:
    """Frame store with change-log revalidation and serving counters."""

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
        resolve: Callable[[], Tuple[Fanout, FanoutIndex]],
    ) -> MembershipFrame:
        """The frame for ``slot``, reused / revalidated / patched / recaptured.

        A frame validated at the current membership generation and captured
        at ``epoch`` is reused with no other reads at all.  Otherwise the
        change log since the frame's generation, intersected with the
        fan-out, decides (see the module docstring); ``resolve`` returns the
        fan-out and its :func:`fanout_index` for a full capture.
        """
        generation = GENERATION.value
        frame = self._frames.get(slot)
        if frame is not None:
            if frame.generation == generation and frame.epoch == epoch:
                self.hits += 1
                return frame
            moved = frame.moved(epoch)
            if moved is not None and not moved:
                frame.generation = generation
                self.revalidations += 1
                return frame
            self.invalidations += 1
            if moved is not None:
                frame = frame.patched(moved, generation)
                self.captures += 1
                self._frames[slot] = frame
                return frame
        fanout, index = resolve()
        frame = MembershipFrame(tier, fanout, epoch, generation, index)
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
