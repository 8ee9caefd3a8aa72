"""SWIM-style gossip membership (modern comparator, used in ablations).

RGB predates the gossip/SWIM family that later displaced ring- and tree-based
membership services.  To put the reproduction's numbers in context, this
baseline implements a round-based anti-entropy gossip protocol over the same
access-proxy population:

* every round, each infected operational proxy picks ``fanout`` random peers
  **from the whole population** and sends them its membership digest (a push
  round).  Gossip has no global failure oracle: a sender cannot know a peer
  is dead before probing it, so sends towards failed proxies happen, cost a
  message, and are wasted — the seed implementation silently excluded failed
  proxies from peer selection, which under-counted gossip's message cost
  under failures (``GossipReport.wasted_messages`` makes that cost explicit);
* with per-message ``loss``, a push towards a live peer may be dropped (also
  counted as a wasted message); gossip needs no retransmission because later
  rounds re-push naturally — loss stretches convergence instead;
* a membership change therefore reaches the whole group in roughly
  ``log_fanout(n)`` rounds with up to ``infected * fanout`` messages per
  round.

Peer selection is vectorised per round (one draw for every infected sender at
once) so ablation cells at 10k+ proxies stay fast; per-seed determinism is
preserved through the ``"gossip"`` random stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

import numpy as np

from repro.sim.rng import RandomStreams


@dataclass
class GossipReport:
    """Outcome of propagating one change until the group converges."""

    member: str
    rounds: int
    messages: int
    converged: bool
    wasted_messages: int = 0
    infected_per_round: List[int] = field(default_factory=list)


class GossipMembership:
    """Push-gossip membership over a set of access proxies."""

    def __init__(
        self,
        proxies: Sequence[str],
        fanout: int = 2,
        seed: int = 0,
        max_rounds: int = 200,
        loss: float = 0.0,
    ) -> None:
        if not proxies:
            raise ValueError("gossip needs at least one access proxy")
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        self.proxies = list(proxies)
        self.fanout = fanout
        self.max_rounds = max_rounds
        self.loss = loss
        self.views: Dict[str, Set[str]] = {p: set() for p in self.proxies}
        self._index: Dict[str, int] = {p: i for i, p in enumerate(self.proxies)}
        self._failed: Set[str] = set()
        self._rng = RandomStreams(seed).stream("gossip")
        self.reports: List[GossipReport] = []

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------

    def fail_proxy(self, proxy: str) -> None:
        if proxy not in self.views:
            raise KeyError(f"unknown access proxy {proxy!r}")
        self._failed.add(proxy)

    def operational(self) -> List[str]:
        return [p for p in self.proxies if p not in self._failed]

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------

    def propagate_change(self, origin: str, member: str, join: bool = True) -> GossipReport:
        """Gossip one change from ``origin`` until every operational proxy has it."""
        if origin not in self.views:
            raise KeyError(f"unknown access proxy {origin!r}")
        if origin in self._failed:
            raise ValueError(f"origin {origin!r} has failed")
        n = len(self.proxies)
        operational_count = len(self.operational())
        failed_idx = np.fromiter(
            (self._index[p] for p in self._failed), dtype=np.int64, count=len(self._failed)
        )
        infected: Set[int] = {self._index[origin]}
        self._apply(origin, member, join)
        messages = 0
        wasted = 0
        rounds = 0
        infected_per_round: List[int] = [1]

        while rounds < self.max_rounds and len(infected) < operational_count:
            rounds += 1
            senders = np.fromiter(sorted(infected), dtype=np.int64, count=len(infected))
            k = min(self.fanout, n - 1)
            if k < 1:
                break
            # One vectorised draw for every sender: k *distinct* peers uniform
            # over the whole population minus the sender itself (failed peers
            # are legitimate — and wasted — targets; nobody holds a failure
            # oracle).  Rows with duplicate targets are redrawn whole, which
            # is rejection sampling of a distinct k-tuple: uniform, and cheap
            # because the collision probability is ~k²/2n.
            targets = self._rng.integers(0, n - 1, size=(senders.size, k))
            if k > 1:
                while True:
                    ordered = np.sort(targets, axis=1)
                    dup_rows = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
                    if not dup_rows.any():
                        break
                    targets[dup_rows] = self._rng.integers(
                        0, n - 1, size=(int(dup_rows.sum()), k)
                    )
            targets = targets + (targets >= senders[:, None])
            messages += int(targets.size)
            delivered = targets.ravel()
            if self.loss > 0.0:
                kept = self._rng.random(delivered.size) >= self.loss
                wasted += int(delivered.size - int(kept.sum()))
                delivered = delivered[kept]
            if failed_idx.size:
                at_failed = np.isin(delivered, failed_idx)
                wasted += int(at_failed.sum())
                delivered = delivered[~at_failed]
            newly_infected: Set[int] = set()
            for idx in np.unique(delivered):
                idx = int(idx)
                if idx not in infected:
                    newly_infected.add(idx)
                    self._apply(self.proxies[idx], member, join)
            infected |= newly_infected
            infected_per_round.append(len(infected))

        report = GossipReport(
            member=member,
            rounds=rounds,
            messages=messages,
            converged=len(infected) >= operational_count,
            wasted_messages=wasted,
            infected_per_round=infected_per_round,
        )
        self.reports.append(report)
        return report

    def _apply(self, proxy: str, member: str, join: bool) -> None:
        if join:
            self.views[proxy].add(member)
        else:
            self.views[proxy].discard(member)

    def join(self, origin: str, member: str) -> GossipReport:
        return self.propagate_change(origin, member, join=True)

    def leave(self, origin: str, member: str) -> GossipReport:
        return self.propagate_change(origin, member, join=False)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def membership_at(self, proxy: str) -> Set[str]:
        return set(self.views[proxy])

    def global_agreement(self) -> bool:
        views = [frozenset(self.views[p]) for p in self.operational()]
        return len(set(views)) <= 1
