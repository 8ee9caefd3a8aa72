"""Columnar struct-of-arrays kernel backend.

The object kernel (:mod:`repro.core.kernel`) keeps per-proxy hot state on
:class:`repro.core.entity.NetworkEntityState` instances and pays CPython
object overhead per visit even when a round provably changes nothing — at a
million proxies the propagation of a small join burst spends ~95% of its
time discovering, one identifier-keyed dict probe at a time, that there is
nothing to do.  This module assigns every proxy a **dense integer index**
(rings in hierarchy iteration order, members ring-contiguous within each
ring) and keeps the hot per-proxy/per-ring state in plain int/bool lists
owned by :class:`ColumnarStore`:

``ring_start``
    CSR offsets: ring ``r`` owns dense node indices
    ``ring_start[r]:ring_start[r+1]`` (ring-contiguous layout, so a ring's
    circulation order is one contiguous index range).
``alive`` / ``ring_dead``
    Per-node liveness flags and the per-ring dead-member counts they roll
    up to.
``ring_tier`` / ``ring_parent_ring`` / ``ring_parent_pos`` /
``ring_leader_pos`` / ``ring_child_total`` / ``ring_version0``
    Structural columns: tier, parent-ring index (-1 at the top) and the
    parent's position in it, leader position in circulation order, number
    of child rings bridged by the ring's members, and each ring's mutation
    counter at the last (re)build.
``ring_has_state``
    Per-ring flag: True when some member holds a non-empty view (or the
    ring cannot use the fast forward plans; see :class:`ColumnarKernel`).
``ring_holder_pos``
    Runtime column: the next holder's circulation position, kept in sync
    with the kernel's ``_ring_holder`` pointer by the fast round (and
    re-derived whenever an object-path round moved the pointer behind the
    column's back).
``ring_work_hint`` / ``ring_hint_wired``
    Per-ring queued-work hint and whether the ring's dirty marker feeds it.

A batch's covered-ring set is computed once per distinct batch (and
memoised) by climbing ``ring_parent_ring`` from each operation's access-proxy
ring, stopping at the first ring already covered, instead of climbing dict
chains per entry per visit.

:class:`ColumnarKernel` subclasses :class:`TokenRoundKernel` and keeps
**all** protocol state (queues, seen-sets, applied maps, counters, holder
pointers, metrics) bit-identical to the object kernel.  Its ``run_round``
takes a fast path only when the columnar state proves the round cannot
change any membership view:

* tracing is off (``trace``) and the store is clean (``dirty``: only
  possible under tracing, see below);
* the ring has an entity row (``no_row``), matches the store (``version``,
  ``leader``) and has no failed member (``dead``);
* no member holds view state (``state``: ``ring_has_state``), and no
  drained member operation has the ring in its coverage chain
  (``covered``).  Entity operations (a repair's ``NE_FAILURE``) never
  decline: the delta applies member entries only.

Under those conditions the object kernel's per-visit delta application is a
proven no-op at every member, so the fast path performs the identical
bookkeeping (drain, seen/applied marks, token/notify/ack hops, counters,
holder rotation, notifications in the same order) without touching the
entity objects — member entities are reached positionally through dense
per-ring rows, never through identifier-keyed dict probes.  Any round that
fails a gate falls back to ``super().run_round``, is counted in
``ColumnarKernel.declines`` under that gate, and re-derives the ring's
``ring_has_state`` exactly afterwards.  ``pending_rings`` and ``propagate``
get the same treatment: identical candidate verification and scheduling,
with the queued-work scans running over the dense rows.

Repair surgery sets ``structure_dirty`` ("re-sync pending"): the next
``run_round``, ``pending_rings`` or ``propagate`` sweep rebuilds the *same*
store object and everything derived from it (skipped while tracing).  A
re-sync never runs mid-round, and never on the read path.

Known limitation: view state the kernel did not apply itself — entities
handed to the constructor with views, or ``register_local_member`` calls
behind its back — is invisible to ``ring_has_state`` until the ring's next
object round or re-sync.  No in-repo caller does this (the only
kernel-side direct mutation is the handoff unregister at the old proxy,
which only empties views); external code driving entities directly should
use the object backend.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.entity import NetworkEntityState
from repro.core.hierarchy import RingHierarchy, paused_gc
from repro.core.identifiers import NodeId, coerce_node
from repro.core.kernel import (
    DirectDispatch,
    PropagationReport,
    ProtocolError,
    RoundResult,
    TokenRoundKernel,
    _RingDirtyMarker,
)

__all__ = ["ColumnarStore", "ColumnarKernel"]

#: The fast-path gates, in the order a round meets them (keys of
#: ``ColumnarKernel.declines``).
DECLINE_GATES = ("dirty", "trace", "no_row", "version", "dead", "leader", "state", "covered")


class ColumnarStore:
    """Dense-index struct-of-arrays view of a :class:`RingHierarchy`.

    The structural columns describe the hierarchy as of the last (re)build.
    Surgery sets ``structure_dirty`` ("re-sync pending"); the kernel then
    refills the same store object before it next trusts the columns.
    """

    __slots__ = (
        "ring_ids",
        "ring_index",
        "ring_start",
        "ring_tier",
        "ring_parent_ring",
        "ring_parent_pos",
        "ring_leader_pos",
        "ring_version0",
        "ring_child_total",
        "ring_dead",
        "ring_has_state",
        "ring_holder_pos",
        "ring_work_hint",
        "ring_hint_wired",
        "alive",
        "bottom_tier",
        "structure_dirty",
    )

    def __init__(
        self,
        ring_ids: List[str],
        ring_start: List[int],
        ring_tier: List[int],
        ring_parent_ring: List[int],
        ring_parent_pos: List[int],
        ring_leader_pos: List[int],
        ring_version0: List[int],
        ring_child_total: List[int],
        bottom_tier: int,
    ) -> None:
        ring_count = len(ring_ids)
        self.ring_ids = ring_ids
        # dict(zip(...)) runs the insert loop in C (same trick as the ring's
        # position index).
        self.ring_index: Dict[str, int] = dict(zip(ring_ids, range(ring_count)))
        self.ring_start = ring_start
        self.ring_tier = ring_tier
        self.ring_parent_ring = ring_parent_ring
        self.ring_parent_pos = ring_parent_pos
        self.ring_leader_pos = ring_leader_pos
        self.ring_version0 = ring_version0
        self.ring_child_total = ring_child_total
        self.bottom_tier = bottom_tier
        self.ring_dead = [0] * ring_count
        self.ring_has_state = [False] * ring_count
        self.ring_holder_pos = [-1] * ring_count
        # Per-ring queued-work hint: -2 = unknown (scan the row), -1 = no
        # member holds queued work, p >= 0 = *only* position p may hold
        # queued work (verified on every use).  Only rings whose dirty
        # marker the kernel wired (``ring_hint_wired``) ever leave -2 —
        # every insert funnels through the marker, which degrades the hint
        # to -2, so a "no work" claim can never go stale-low.
        self.ring_work_hint = [-2] * ring_count
        self.ring_hint_wired = [False] * ring_count
        self.alive = [True] * ring_start[-1]
        self.structure_dirty = False

    @classmethod
    def from_hierarchy(cls, hierarchy: RingHierarchy) -> "ColumnarStore":
        """Build the columns by one pass over the hierarchy's ring table."""
        rings = hierarchy.rings
        ring_ids = list(rings.keys())
        ring_count = len(ring_ids)
        ring_values = list(rings.values())
        ring_index = dict(zip(ring_ids, range(ring_count)))
        parent_node = hierarchy.parent_node
        ring_of_node = hierarchy.ring_of_node
        ring_parent_ring = [-1] * ring_count
        ring_parent_pos = [-1] * ring_count
        for r, ring_id in enumerate(ring_ids):
            parent = parent_node.get(ring_id)
            if parent is None:
                continue
            parent_ring_id = ring_of_node.get(parent)
            if parent_ring_id is None:
                continue
            parent_ring_idx = ring_index.get(parent_ring_id, -1)
            ring_parent_ring[r] = parent_ring_idx
            if parent_ring_idx >= 0:
                try:
                    ring_parent_pos[r] = ring_values[parent_ring_idx].members.index(
                        parent
                    )
                except ValueError:
                    pass
        ring_child_total = [0] * ring_count
        for node, child_ring_ids in hierarchy.child_rings.items():
            owner_ring_id = ring_of_node.get(node)
            if owner_ring_id is None:
                continue
            ring_child_total[ring_index[owner_ring_id]] += len(child_ring_ids)
        return cls(
            ring_ids,
            list(accumulate((len(r.members) for r in ring_values), initial=0)),
            [r.tier for r in ring_values],
            ring_parent_ring,
            ring_parent_pos,
            [_leader_position(r) for r in ring_values],
            [r.version for r in ring_values],
            ring_child_total,
            hierarchy.bottom_tier() if ring_count else 0,
        )

    def covered_ring_indices(self, ap_ring_indices: Iterable[int]) -> FrozenSet[int]:
        """Ring indices covering any of the given (bottom-tier) AP rings.

        Matches ``TokenRoundKernel.ring_covers`` on an unmodified hierarchy:
        a non-bottom start ring covers nothing, chains include the start
        ring itself and stop at the root.  Each climb stops at the first
        ring an earlier chain already covered (its ancestors are in too).
        """
        covered = set()
        parent = self.ring_parent_ring
        tier = self.ring_tier
        bottom = self.bottom_tier
        for r in ap_ring_indices:
            if tier[r] != bottom:
                continue
            while r >= 0 and r not in covered:
                covered.add(r)
                r = parent[r]
        return frozenset(covered)


def _leader_position(ring) -> int:
    """The leader's index in circulation order (-1 for no leader)."""
    leader = ring.leader
    if leader is None:
        return -1
    members = ring.members
    if members and members[0] is leader:
        return 0
    try:
        return members.index(leader)
    except ValueError:
        return -1


class ColumnarKernel(TokenRoundKernel):
    """The object kernel with a columnar no-op-round fast path.

    Drop-in subclass: construction, capture, repair, application and every
    piece of protocol state are inherited unchanged, so any round that is
    not *provably* a no-op behaves bit-identically by construction.  See
    the module docstring for the fast-path gates.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Object-path rounds counted by the first fast-path gate they failed
        #: (see the module docstring).  A plain dict, deliberately kept off
        #: the metric registry: registry counters feed ``RunRecord``, whose
        #: fingerprint must not depend on the backend.
        self.declines: Dict[str, int] = dict.fromkeys(DECLINE_GATES, 0)
        with paused_gc():
            self._store = ColumnarStore.from_hierarchy(self.hierarchy)
            # Refilled in place: ``propagate`` aliases them across a re-sync.
            self._ring_rows: List[Optional[List[NetworkEntityState]]] = []
            self._ring_objs: List = []
            self._sync()
        # ProtocolConfig is frozen; hoist the per-round flag reads.
        self._disseminate_downward = self.config.disseminate_downward
        self._holder_ack_enabled = self.config.holder_ack_enabled
        # Direct (synchronous) dispatch lets the fast path inline
        # notification delivery.
        self._direct_dispatch = type(self.dispatch) is DirectDispatch

    @property
    def store(self) -> ColumnarStore:
        """The columnar struct-of-arrays store (read-only structural view).

        The snapshot export hook for the serving layer: consumers must gate
        on ``store.structure_dirty`` before trusting the structural columns.
        """
        return self._store

    def tier_leader_views(self, tier: int):
        """Per-ring ``(ring, leader entity)`` pairs for ``tier``, ring-id order.

        The serving layer's leader-row gather: ring selection and leader
        positions come from the structural columns and each leader entity is
        reached positionally through the dense per-ring rows — no rings-dict
        scan, no identifier-keyed entity probes.  Returns ``None`` while a
        re-sync is pending (a read must not pay the O(N) rebuild; the next
        round runs it) or when a ring has no entity row; callers must then
        derive the fan-out from the hierarchy itself.
        """
        store = self._store
        if store.structure_dirty:
            return None
        ring_objs = self._ring_objs
        entity_rows = self._ring_rows
        ring_ids = store.ring_ids
        led = [
            (r, pos)
            for r, (ring_tier, pos) in enumerate(
                zip(store.ring_tier, store.ring_leader_pos)
            )
            if ring_tier == tier and pos >= 0
        ]
        out = []
        for r, pos in led:
            entities = entity_rows[r]
            if entities is None:
                return None
            out.append((ring_ids[r], ring_objs[r], entities[pos]))
        out.sort(key=lambda item: item[0])
        return [(ring, entity) for _, ring, entity in out]

    # -- (re)building the derived state --------------------------------------

    def _resync(self) -> None:
        """Rebuild a dirty store from the live hierarchy, between rounds.

        The columns are copied into the *same* store object, lists by slice
        assignment, so the aliases a running sweep and the work-hint markers
        hold stay valid.
        """
        store = self._store
        with paused_gc():
            fresh = ColumnarStore.from_hierarchy(self.hierarchy)
            for name in ColumnarStore.__slots__:
                value = getattr(fresh, name)
                if type(value) is list:
                    getattr(store, name)[:] = value
                else:
                    setattr(store, name, value)
            self._sync()
            for node in self.failed:
                self._mark_dead(node)
            has_state = store.ring_has_state
            for ring_idx in range(len(has_state)):
                has_state[ring_idx] = self._holds_state(ring_idx)

    def _sync(self) -> None:
        """Derive rows, plans, hint wiring and fresh caches from the columns.

        Enough at construction, where nothing has failed and entities hold
        no view state yet; ``_resync`` adds liveness and the exact
        ``ring_has_state`` scan.
        """
        store = self._store
        ring_count = len(store.ring_ids)
        self._ring_rows[:] = self._build_entity_rows()
        # Ring objects in store order, so the fast paths reach
        # ``version``/``members`` by dense index instead of probing the
        # million-entry rings dict per round.
        self._ring_objs[:] = self.hierarchy.rings.values()
        self._parent_plan, self._child_plan, self._unplanned = (
            self._build_forward_plans()
        )
        self._wire_work_hints()
        for ring_idx in self._unplanned:
            store.ring_has_state[ring_idx] = True
        #: Covered-ring sets per drained batch, keyed by the operations'
        #: sequence tuple (sequences are unique per capture and aggregation
        #: preserves a collapsed operation's member AP, so the key is
        #: content-stable).
        self._batch_cover: Dict[Tuple[int, ...], FrozenSet[int]] = {}
        #: (target ring, sequence tuple) pairs whose forward filtered to
        #: empty.  Seen-sets and applied high-waters only grow, so an
        #: empty-fresh verdict is permanent and the repeat forward (every
        #: child of an upper ring reports the same batch back up to the
        #: same parent) collapses to one set probe.
        self._fully_seen: set = set()
        # Per-ring aliases of the seen-set / applied-map entries, filled on
        # first use: the sets/dicts are only ever mutated in place, so the
        # dense row and the kernel's string-keyed mapping stay one object.
        self._seen_rows: List[Optional[set]] = [None] * ring_count
        self._applied_rows: List[Optional[Dict[str, int]]] = [None] * ring_count

    def _holds_state(self, ring_idx: int) -> bool:
        """The exact ``ring_has_state`` verdict for one ring.

        True when some member holds a non-empty local, neighbour or ring
        view (a member operation outside the ring's coverage can then still
        change a view), when the ring's forward plan failed validation, or
        when it has no entity row.
        """
        row = self._ring_rows[ring_idx]
        if row is None or ring_idx in self._unplanned:
            return True
        for entity in row:
            if (
                (entity.local_live and entity.local_members._members)
                or (entity.neighbor_live and entity.neighbor_members._members)
                or (entity.ring_live and entity.ring_members._members)
            ):
                return True
        return False

    def _mark_dead(self, node: NodeId) -> None:
        """Count a failed ring member in ``ring_dead`` / ``alive``."""
        store = self._store
        ring_idx = store.ring_index.get(self.hierarchy.ring_of_node.get(node))
        if ring_idx is None:
            return  # excluded from its ring already
        store.ring_dead[ring_idx] += 1
        ring = self._ring_objs[ring_idx]
        pos = ring._index.get(node)
        if pos is not None and ring.version == store.ring_version0[ring_idx]:
            store.alive[store.ring_start[ring_idx] + pos] = False

    def _build_entity_rows(self) -> List[Optional[List[NetworkEntityState]]]:
        """Dense per-ring entity rows aligned with circulation order.

        Entities built in-house (or passed pristine) iterate in exact
        (ring, member) order, so the rows come from one lockstep pass with
        identity checks only; otherwise fall back to per-node lookups.  A
        ring with members missing from the entity map gets ``None`` (its
        rounds stay on the object path, which raises the proper errors).
        """
        rings = self.hierarchy.rings.values()
        entities = self.entities
        rows: List[Optional[List[NetworkEntityState]]] = []
        entity_iter = iter(entities.values())
        aligned = True
        for ring in rings:
            row: List[NetworkEntityState] = []
            for node in ring.members:
                entity = next(entity_iter, None)
                if entity is None or (
                    entity.current is not node and entity.current != node
                ):
                    aligned = False
                    break
                row.append(entity)
            if not aligned:
                break
            rows.append(row)
        if aligned:
            return rows
        rows = []
        for ring in rings:
            row = []
            for node in ring.members:
                entity = entities.get(node)
                if entity is None:
                    row = None
                    break
                row.append(entity)
            rows.append(row)
        return rows

    def _wire_work_hints(self) -> None:
        """Hook the per-ring dirty markers into ``ring_work_hint``.

        The kernel assigns one :class:`_RingDirtyMarker` per ring to every
        member's queue wiring, so a ring's marker is reachable through any
        member (``row[0]``).  A marker is wired only when it really is that
        ring's own marker (its ``_ring_id`` resolves back to the same dense
        index); anything else leaves the ring permanently at hint -2, which
        only costs scans, never correctness.  Initial state: a ring outside
        the dirty set provably holds no queued work (the same every-insert
        hook guarantee the dirty set itself relies on), so wired rings
        start at -1 and dirty rings at -2.
        """
        store = self._store
        hints = store.ring_work_hint
        wired = store.ring_hint_wired
        ring_index = store.ring_index
        for idx, row in enumerate(self._ring_rows):
            if not row:
                continue
            marker = row[0].mq_hook
            if type(marker) is not _RingDirtyMarker:
                continue
            if ring_index.get(marker._ring_id) != idx:
                continue
            marker._hints = hints
            marker._hint_idx = idx
            wired[idx] = True
            hints[idx] = -1
        for ring_id in self._dirty_rings:
            idx = ring_index.get(ring_id)
            if idx is not None:
                hints[idx] = -2

    def _build_forward_plans(self):
        """Precomputed dense forward targets for the proven-no-op round.

        Parent/child pointers only change through ``exclude_entity``, which
        sets ``structure_dirty`` before any rewire, so under a clean
        structure the build-time wiring is authoritative and the fast round
        can forward by (ring index, position) without identifier-keyed dict
        probes.  Each plan entry is validated against the live entity
        pointers at build time.  A ring whose leader has a parent but no
        valid parent plan, or whose members bridge child rings without a
        valid child plan, is *unplanned*: ``_holds_state`` reports it, so
        every operation-carrying round there takes the object path and the
        fast round only ever forwards through a plan.

        Returns ``(parent_plan, child_plan, unplanned)``:

        ``parent_plan[r]``
            ``(parent_ring_idx, parent_pos, parent_dense_idx)`` for the
            leader's Notification-to-Parent target, or ``None``.
        ``child_plan[r]``
            Per-position tuples of ``(child_ring_idx, child_pos,
            child_dense_idx)`` triples mirroring each member's ``children``
            list (only for rings that bridge child rings), or ``None``.
        ``unplanned``
            The set of ring indices whose plan failed validation.
        """
        store = self._store
        rows = self._ring_rows
        rings = self.hierarchy.rings
        ring_of_node = self.hierarchy.ring_of_node
        ring_index = store.ring_index
        ring_start = store.ring_start
        ring_count = len(store.ring_ids)
        parent_plan: List[Optional[Tuple[int, int, int]]] = [None] * ring_count
        child_plan: List[Optional[List[Tuple]]] = [None] * ring_count
        unplanned = set()
        for r in range(ring_count):
            row = rows[r]
            if row is None:
                continue
            lp = store.ring_leader_pos[r]
            pidx = store.ring_parent_ring[r]
            ppos = store.ring_parent_pos[r]
            parent = row[lp].parent if lp >= 0 else None
            if parent is not None:
                prow = rows[pidx] if pidx >= 0 and ppos >= 0 else None
                if prow is not None and ppos < len(prow):
                    target = prow[ppos].current
                    if parent is target or parent == target:
                        parent_plan[r] = (pidx, ppos, ring_start[pidx] + ppos)
                if parent_plan[r] is None:
                    unplanned.add(r)
            if not store.ring_child_total[r]:
                continue
            plan: List[Tuple] = []
            ok = True
            for entity in row:
                triples = []
                for child in entity.children:
                    child_ring_id = ring_of_node.get(child)
                    cidx = (
                        ring_index.get(child_ring_id)
                        if child_ring_id is not None
                        else None
                    )
                    crow = rows[cidx] if cidx is not None else None
                    if crow is None:
                        ok = False
                        break
                    try:
                        cpos = rings[child_ring_id].members.index(child)
                    except ValueError:
                        ok = False
                        break
                    dense_target = crow[cpos].current
                    if dense_target is not child and dense_target != child:
                        ok = False
                        break
                    triples.append((cidx, cpos, ring_start[cidx] + cpos))
                if not ok:
                    break
                plan.append(tuple(triples))
            if ok:
                child_plan[r] = plan
            else:
                unplanned.add(r)
        return parent_plan, child_plan, unplanned

    # -- state tracking overrides ------------------------------------------

    def fail_entity(self, node: "NodeId | str", now: float = 0.0) -> None:
        key = coerce_node(node)
        first_failure = key not in self.failed
        super().fail_entity(key, now)
        if first_failure:
            self._mark_dead(key)

    def invalidate_coverage(self) -> None:
        # Hierarchy surgery: the structural columns no longer describe the
        # live hierarchy.  The fast path stays off until the next re-sync,
        # which also drops the per-batch caches.
        self._store.structure_dirty = True
        super().invalidate_coverage()

    # -- fast-path helpers --------------------------------------------------

    def _object_round(
        self, ring_idx: Optional[int], ring_id: str, holder, now: float, gate: str
    ) -> RoundResult:
        """Fall back to the object kernel, counting the declining ``gate``."""
        self.declines[gate] += 1
        store = self._store
        if ring_idx is not None:
            # The object path drains queues behind the work hint's back, so
            # the hint degrades to "unknown" — a positive hint must always
            # imply queued work.
            store.ring_work_hint[ring_idx] = -2
        result = super().run_round(ring_id, holder=holder, now=now)
        if ring_idx is not None and not store.structure_dirty:
            # The round may have applied operations here.  (After a repair
            # the pending re-sync recomputes every ring instead.)
            store.ring_has_state[ring_idx] = self._holds_state(ring_idx)
        return result

    def _batch_covered(self, key: Tuple[int, ...], entries) -> FrozenSet[int]:
        cached = self._batch_cover.get(key)
        if cached is not None:
            return cached
        store = self._store
        ring_of_node = self.hierarchy.ring_of_node
        ring_index = store.ring_index
        ap_rings: List[int] = []
        for entry in entries:
            member = entry.operation.member
            if member is None:
                continue  # an entity operation changes no view
            ap_ring_id = ring_of_node.get(member.ap)
            if ap_ring_id is None:
                continue
            ap_ring_idx = ring_index.get(ap_ring_id)
            if ap_ring_idx is not None:
                ap_rings.append(ap_ring_idx)
        covered = store.covered_ring_indices(ap_rings)
        self._batch_cover[key] = covered
        return covered

    def _dense_forward(
        self, sender: NodeId, target_idx: int, target_pos: int, operations, now, seq_key
    ) -> int:
        """``forward_notification`` addressed by (ring index, position).

        Callers resolve the target through a build-time forward plan and
        check liveness through ``alive`` first, so the per-forward work
        collapses to the seen/applied filter and the queue insert — no
        entity, ring or seen-set lookups through identifier-keyed maps.
        Only valid under a clean structure (plan wiring == live wiring).
        """
        if (target_idx, seq_key) in self._fully_seen:
            return 0
        seen = self._seen_rows[target_idx]
        if seen is None:
            seen = self.ring_seen[self._store.ring_ids[target_idx]]
            self._seen_rows[target_idx] = seen
        applied = self._applied_rows[target_idx]
        if applied is None:
            # ``.get`` (not setdefault): the object path does not create an
            # applied map on forward, so neither may we; the alias row fills
            # once the target ring runs its own round.
            applied = self.ring_applied_seq.get(self._store.ring_ids[target_idx])
            if applied is not None:
                self._applied_rows[target_idx] = applied
        if applied:
            # Inlined stale_for (one Python call per op adds up at scale).
            applied_get = applied.get
            fresh = []
            for op in operations:
                sequence = op.sequence
                if sequence in seen:
                    continue
                member = op.member
                if member is not None and sequence <= applied_get(member.guid.value, 0):
                    continue
                fresh.append(op)
        else:
            fresh = [op for op in operations if op.sequence not in seen]
        if not fresh:
            self._fully_seen.add((target_idx, seq_key))
            return 0
        for op in fresh:
            seen.add(op.sequence)
        target_entity = self._ring_rows[target_idx][target_pos]
        if self._direct_dispatch:
            # Inlined DirectDispatch.deliver_notification plus a work-hint
            # refinement: every insert's hook degrades the target ring's
            # hint to -2 ("unknown"); when the pre-insert hint proved no
            # *other* position held work (-1, or already this position) the
            # post-insert state is known precisely, so the target ring's
            # next round can skip its holder scan entirely.
            target_mq = target_entity.mq
            hook = target_mq.on_enqueue
            hints = (
                hook._hints
                if type(hook) is _RingDirtyMarker and hook._hint_idx == target_idx
                else None
            )
            old_hint = hints[target_idx] if hints is not None else -2
            for op in fresh:
                target_mq.insert(op, sender=sender, now=now)
            if old_hint == -1 or old_hint == target_pos:
                hints[target_idx] = target_pos if target_mq._entries else -1
        else:
            self.dispatch.deliver_notification(
                self, sender, target_entity.current, fresh, now
            )
        self._c_notifications._value += 1
        return 1

    # -- columnar round scheduling -----------------------------------------

    def _settle(self) -> bool:
        """Run a pending re-sync unless tracing keeps every round on the
        object path anyway; True when the store is clean."""
        store = self._store
        if store.structure_dirty and not self.trace.enabled:
            self._resync()
        return not store.structure_dirty

    def pending_rings(self) -> List[str]:
        if not self._settle():
            return super().pending_rings()
        return [ring_id for _, ring_id, _ in self._pending_pairs()]

    def _pending_pairs(self) -> List[Tuple[int, str, Optional[int]]]:
        """Verified pending candidates as ``(tier, ring_id, ring_idx)``.

        Same dirty-set verification and cleanup as the object kernel's
        ``pending_rings``, but the queued-work check consults the per-ring
        work hint first: -1 retires the candidate with zero probes, a
        position hint is trusted outright (a positive hint always implies
        queued work: it is only ever written next to a non-empty insert,
        and every drain path either resets it or degrades it to -2), and
        only -2 falls back to the dense row scan.  Ring versions are not
        re-checked here: they only move through ``exclude_entity``, which
        sets ``structure_dirty`` before returning, and both callers settle
        the store first — ``propagate`` still re-validates the
        version per round as the defensive layer.  Sorted bottom-up then
        lexicographic — the object kernel's deterministic order — with
        tiers read from the store column instead of a rings-dict probe per
        candidate.
        """
        store = self._store
        dirty = self._dirty_rings
        if not dirty:
            return []
        pending: List[Tuple[int, str, Optional[int]]] = []
        clean: List[str] = []
        rings = self.hierarchy.rings
        ring_index = store.ring_index
        ring_dead = store.ring_dead
        ring_tier = store.ring_tier
        hints = store.ring_work_hint
        wired = store.ring_hint_wired
        rows = self._ring_rows
        for ring_id in dirty:
            ring_idx = ring_index.get(ring_id)
            row = rows[ring_idx] if ring_idx is not None else None
            if row is not None and not ring_dead[ring_idx]:
                tier = ring_tier[ring_idx]
                hint = hints[ring_idx]
                # hint == -1: provably no queued work, zero probes.
                has_work = hint >= 0
                if hint == -2:
                    # No failed member: scan the dense row positionally.
                    for entity in row:
                        if entity.mq_live and entity.mq._entries:
                            has_work = True
                            break
                    else:
                        if wired[ring_idx]:
                            hints[ring_idx] = -1
            else:
                # No usable row (missing entities or a failed member).
                ring = rings.get(ring_id)
                has_work = ring is not None and self._ring_has_work(ring)
                tier = ring.tier if has_work else 0
            if has_work:
                pending.append((tier, ring_id, ring_idx))
            else:
                clean.append(ring_id)
        for ring_id in clean:
            dirty.discard(ring_id)
        pending.sort()
        return pending

    def propagate(
        self, now: float = 0.0, max_iterations: int = 10_000
    ) -> PropagationReport:
        store = self._store
        report = PropagationReport()
        rounds_append = report.rounds.append
        run_round = self.run_round
        ring_dead = store.ring_dead
        ring_version0 = store.ring_version0
        rows = self._ring_rows
        ring_objs = self._ring_objs
        hierarchy_ring = self.hierarchy.ring
        fused = self._fused_round
        # Propagation allocates short-lived, cycle-free objects (messages,
        # round results, operation tuples) by the hundred-thousand; without
        # the pause the generational collector re-walks the multi-million
        # object hierarchy heap every few thousand allocations and roughly
        # doubles large-scale propagate time.
        with paused_gc():
            for _ in range(max_iterations):
                if not self.trace.enabled and self._settle():
                    pairs = self._pending_pairs()
                else:
                    # The object kernel's sweep: no store index, so every
                    # candidate takes the generic arm below.
                    pairs = [(0, ring_id, None) for ring_id in super().pending_rings()]
                if not pairs:
                    return report
                for _tier, ring_id, ring_idx in pairs:
                    # Identical sweep semantics to the object kernel, which
                    # re-checks each pending ring for queued work before its
                    # round.  That re-check can fail even under a clean
                    # structure: the sweep verified work at its start, but a
                    # round in another ring may since have forwarded a leave
                    # that MQ aggregation cancelled against the queued join.
                    # ``_fused_round`` folds the re-check into its holder pick
                    # and returns None for an idle ring.  Any repair path
                    # that could rewire state sets ``structure_dirty``, which
                    # is re-read here per ring; the generic arm's
                    # ``run_round`` then re-syncs before its own gates.
                    row = rows[ring_idx] if ring_idx is not None else None
                    if (
                        row is not None
                        and not store.structure_dirty
                        and not ring_dead[ring_idx]
                    ):
                        ring = ring_objs[ring_idx]
                        if ring.version == ring_version0[ring_idx]:
                            result = fused(
                                ring_idx, ring_id, ring.members, row, now, skip_idle=True
                            )
                            if result is not None:
                                rounds_append(result)
                            continue
                    if self._ring_has_work(hierarchy_ring(ring_id)):
                        rounds_append(run_round(ring_id, now=now))
        raise ProtocolError(
            f"propagation did not converge within {max_iterations} iterations"
        )

    # -- the fast round -----------------------------------------------------

    def run_round(
        self,
        ring_id: str,
        holder: Optional["NodeId | str"] = None,
        now: float = 0.0,
    ) -> RoundResult:
        store = self._store
        ring_idx = store.ring_index.get(ring_id)
        if not self._settle() or self.trace.enabled:
            # Traced rounds drain queues through the object path while the
            # hint machinery stays live; ``_object_round`` degrades the hint.
            gate = "dirty" if store.structure_dirty else "trace"
            return self._object_round(ring_idx, ring_id, holder, now, gate)
        if ring_idx is None:
            return self._object_round(None, ring_id, holder, now, "no_row")
        ring = self._ring_objs[ring_idx]
        members = ring.members
        row = self._ring_rows[ring_idx]
        if not members or row is None:
            return self._object_round(ring_idx, ring_id, holder, now, "no_row")
        if ring.version != store.ring_version0[ring_idx]:
            return self._object_round(ring_idx, ring_id, holder, now, "version")
        if store.ring_dead[ring_idx]:
            return self._object_round(ring_idx, ring_id, holder, now, "dead")
        leader_pos = store.ring_leader_pos[ring_idx]
        leader = members[leader_pos] if leader_pos >= 0 else None
        if leader is not ring.leader and leader != ring.leader:
            return self._object_round(ring_idx, ring_id, holder, now, "leader")

        # Holder resolution (no member has failed, so the object kernel's
        # failed-holder error cannot apply here).
        if holder is not None:
            holder_id = coerce_node(holder)
            try:
                holder_pos = members.index(holder_id)
            except ValueError:
                # Not a member: the object path raises the proper error.
                return super().run_round(ring_id, holder=holder, now=now)
            return self._fused_round(
                ring_idx, ring_id, members, row, now, holder_pos, holder_id
            )
        return self._fused_round(ring_idx, ring_id, members, row, now)

    def _fused_round(
        self,
        ring_idx: int,
        ring_id: str,
        members: Sequence[NodeId],
        row: Sequence[NetworkEntityState],
        now: float,
        holder_pos: int = -1,
        holder_id: Optional[NodeId] = None,
        skip_idle: bool = False,
    ) -> Optional[RoundResult]:
        """The proven-no-op round body, minus re-validation.

        ``propagate`` calls this directly for every sweep candidate that
        passed the cheap dense gates (row present, structure clean, no dead
        member, version unchanged); the structural facts ``run_round``
        re-validates per call — leader identity, holder membership — are
        invariant under a clean structure (they only change through
        ``exclude_entity``, which sets ``structure_dirty`` first), so the
        fused path trusts the build-time columns outright.  The public
        ``run_round`` keeps the full validation and delegates here.

        ``holder_pos < 0`` means "pick the holder": the work hint resolves
        it in O(1) when it names the single position holding queued work
        (first-with-work from the pointer degenerates to exactly that
        position), falling back to the pointer scan otherwise.

        ``skip_idle`` is the sweep's "does this ring still have queued
        work?" re-check: a picked holder with an empty queue means no member
        has work, so the round is not run, the candidate is retired and
        None is returned.
        """
        store = self._store
        hints = store.ring_work_hint
        if holder_pos < 0:
            hint = hints[ring_idx]
            if hint >= 0:
                entity = row[hint]
                if entity.mq_live and entity.mq._entries:
                    holder_pos = hint
                else:
                    holder_pos = self._fast_pick_holder(
                        ring_idx, ring_id, members, row
                    )
            else:
                holder_pos = self._fast_pick_holder(ring_idx, ring_id, members, row)
            holder_id = members[holder_pos]

        holder_entity = row[holder_pos]
        holder_mq = holder_entity.mq if holder_entity.mq_live else None
        entry_map = holder_mq._entries if holder_mq is not None else None
        entries = tuple(entry_map.values()) if entry_map else ()
        if skip_idle and not entries:
            if store.ring_hint_wired[ring_idx]:
                hints[ring_idx] = -1
            self._dirty_rings.discard(ring_id)
            return None

        seq_key: Optional[Tuple[int, ...]] = None
        if entries:
            if store.ring_has_state[ring_idx]:
                return self._object_round(ring_idx, ring_id, holder_id, now, "state")
            seq_key = tuple([entry.operation.sequence for entry in entries])
            if ring_idx in self._batch_covered(seq_key, entries):
                # This ring is in an operation's coverage chain: the apply
                # is not a no-op here.
                return self._object_round(ring_idx, ring_id, holder_id, now, "covered")

        # ---- proven no-op round: identical bookkeeping, no entity churn ----
        operations = tuple([entry.operation for entry in entries])
        if entry_map:
            entry_map.clear()  # drain_entries semantics
        # ``is not`` suffices for the holder test: identifiers are interned,
        # and an equal-but-distinct sender would be a member of this ring and
        # is dropped by the ring test either way.
        ring_of_node = self.hierarchy.ring_of_node
        child_senders = [
            entry.sender
            for entry in entries
            if entry.sender is not holder_id
            and ring_of_node.get(entry.sender) != ring_id
        ]

        seen = self._seen_rows[ring_idx]
        if seen is None:
            seen = self.ring_seen[ring_id]
            self._seen_rows[ring_idx] = seen
        applied = self._applied_rows[ring_idx]
        if applied is None:
            applied = self.ring_applied_seq.setdefault(ring_id, {})
            self._applied_rows[ring_idx] = applied
        applied_get = applied.get
        for operation in operations:
            sequence = operation.sequence
            seen.add(sequence)
            member = operation.member
            if member is not None:
                guid = member.guid.value
                if sequence > applied_get(guid, 0):
                    applied[guid] = sequence

        next(self._token_ids)  # same token-id stream as the object path
        order = members[holder_pos:] + members[:holder_pos]
        # RoundResult is a plain (non-slots) dataclass; building the field
        # dict directly skips the generated __init__ and the default
        # factories on the per-round hot path.
        result = RoundResult.__new__(RoundResult)
        result.__dict__ = {
            "ring_id": ring_id,
            "holder": holder_id,
            "operations": operations,
            "token_hops": 0,
            "notify_hops": 0,
            "ack_hops": 0,
            "retransmissions": 0,
            "visited": order,
            "repaired": [],
            "events": [],
        }
        self._c_rounds_started._value += 1

        failed = self.failed
        has_children = (
            self._disseminate_downward and store.ring_child_total[ring_idx]
        )
        size = len(members)
        token_hops = size if size >= 2 else 0
        notify_hops = 0
        forwarded_up = False
        lp = store.ring_leader_pos[ring_idx]

        # Every forward below goes through a build-time plan: a ring whose
        # plan failed validation is marked ``ring_has_state``, so its
        # operation-carrying rounds never reach this point.
        if operations and not has_children:
            # Childless ring: the only observable effect of the whole
            # circulation is the leader's upward forward, so the visit loop
            # collapses to that one call.
            # A validated parent plan subsumes the ``parent_ok``/``parent``
            # probes: those flags only change through ``exclude_entity``
            # (structure goes dirty first), so under a clean structure the
            # build-time plan is the live wiring.
            pp = self._parent_plan[ring_idx]
            if pp is not None:
                if store.alive[pp[2]]:
                    # Inlined ``_dense_forward`` early-out: when the parent
                    # ring already saw this whole batch the forward filters
                    # to nothing, so skip the call.  This is every bottom
                    # ring's round after the first sibling reported the
                    # batch back up.
                    if (pp[0], seq_key) not in self._fully_seen:
                        notify_hops += self._dense_forward(
                            members[lp], pp[0], pp[1], operations, now, seq_key
                        )
                else:
                    # Crashed parent: the inherited repair hook.
                    notify_hops += self.forward_notification(
                        members[lp], row[lp].parent, operations, now
                    )
                forwarded_up = True
        elif operations:
            pp = self._parent_plan[ring_idx]
            cplan = self._child_plan[ring_idx]
            alive = store.alive
            dense = self._dense_forward
            pos = holder_pos
            for node in order:
                # Figure 3 lines 10-13: leader forwards to its parent.  (See
                # the collapse branch for why a built plan subsumes the
                # ``parent_ok`` probes.)
                if pos == lp and pp is not None:
                    if alive[pp[2]]:
                        notify_hops += dense(
                            node, pp[0], pp[1], operations, now, seq_key
                        )
                    else:
                        notify_hops += self.forward_notification(
                            node, row[pos].parent, operations, now
                        )
                    forwarded_up = True
                # Figure 3 lines 14-16: notify child rings.  The child-total
                # column keeps bottom rings (the vast majority) from ever
                # probing the lazy children lists; the plan mirrors each
                # member's children list (the object path skips crashed
                # children without a forward).
                if has_children:
                    for cidx, cpos, cdense in cplan[pos]:
                        if alive[cdense]:
                            notify_hops += dense(
                                node, cidx, cpos, operations, now, seq_key
                            )
                pos += 1
                if pos >= size:
                    pos = 0

        result.token_hops = token_hops
        result.notify_hops = notify_hops

        # Leader failed-before-its-turn fallback (cannot trigger with
        # ring_dead == 0 unless a mid-round repair elsewhere rewired the
        # leader's parent link; mirror the object path regardless).  Under
        # a clean structure the leader column is the live leader, so
        # ``members[lp]``/``row[lp]`` stand in for the ring-object probes.
        if operations and not forwarded_up and lp >= 0:
            leader_id = members[lp]
            leader_entity = row[lp]
            if leader_id not in failed:
                parent_target = self.upward_target(leader_entity, leader_id)
                if parent_target is not None:
                    result.notify_hops += self.forward_notification(
                        leader_id, parent_target, operations, now
                    )

        # Figure 3 lines 17-20: Holder-Acknowledgement to originating children.
        # (The single-sender case — virtually every dissemination round —
        # skips the dedup dict; ``increment`` is inlined like the other
        # counter bumps below.)
        if child_senders and operations and self._holder_ack_enabled:
            senders = (
                child_senders
                if len(child_senders) == 1
                else dict.fromkeys(child_senders)
            )
            for sender in senders:
                if sender in failed:
                    continue
                result.ack_hops += 1
                self._c_holder_ack._value += 1

        # Figure 3 lines 21-23: the holder pointer moves to the next member.
        next_pos = holder_pos + 1
        if next_pos >= size:
            next_pos = 0
        self._ring_holder[ring_id] = members[next_pos]
        store.ring_holder_pos[ring_idx] = next_pos

        # The dirty set only over-approximates rings with queued work; this
        # round's targets all live in other rings, so if no member holds
        # work now the candidate can be retired without waiting for the next
        # sweep's (cold-cache) verification scan to discard it.  The work
        # hint usually settles this without the row scan: the round drained
        # the holder's queue, so a hint still naming the holder (or -1)
        # proves the ring clean.  (-1/positive states only exist on wired
        # rings, so writing -1 back in those branches is always legal.)
        end_hint = hints[ring_idx]
        if end_hint == -1 or end_hint == holder_pos:
            hints[ring_idx] = -1
            self._dirty_rings.discard(ring_id)
        elif end_hint >= 0:
            entity = row[end_hint]
            if not (entity.mq_live and entity.mq._entries):
                hints[ring_idx] = -1
                self._dirty_rings.discard(ring_id)
        else:
            for entity in row:
                if entity.mq_live and entity.mq._entries:
                    break
            else:
                if store.ring_hint_wired[ring_idx]:
                    hints[ring_idx] = -1
                self._dirty_rings.discard(ring_id)

        self._c_rounds_completed._value += 1
        self._c_hops_token._value += token_hops
        self._c_hops_notify._value += result.notify_hops
        self._c_hops_ack._value += result.ack_hops
        return result

    def _fast_pick_holder(
        self,
        ring_idx: int,
        ring_id: str,
        members: Sequence[NodeId],
        row: Sequence[NetworkEntityState],
    ) -> int:
        """``pick_holder`` for a ring with no failed members: start at the
        holder pointer, first member with queued work, else the start."""
        size = len(members)
        start = self._ring_holder.get(ring_id)
        if start is None:
            start_pos = 0
        else:
            cached_pos = self._store.ring_holder_pos[ring_idx]
            if 0 <= cached_pos < size and members[cached_pos] is start:
                start_pos = cached_pos
            else:
                # An object-path round moved the pointer; re-derive.
                try:
                    start_pos = members.index(start)
                except ValueError:
                    start_pos = 0
        pos = start_pos
        for _ in range(size):
            entity = row[pos]
            if entity.mq_live and entity.mq._entries:
                return pos
            pos += 1
            if pos >= size:
                pos = 0
        return start_pos
