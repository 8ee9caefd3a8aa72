"""Flat single-ring token membership (Totem / Cristian-Schmuck style baseline).

Section 2 of the paper reviews one-round algorithms where "all the group
members form one logical ring and a token is used to reach agreement", and
notes they are "inefficient in case of large group" — which is the motivation
for the hierarchy.  This baseline implements exactly that flat scheme over the
access proxies so the ablation benchmark can show the crossover: for small
``n`` a flat ring is cheaper (no inter-ring notifications), but its per-change
hop count grows linearly with ``n`` while RGB's grows with the much smaller
``(r+1)·tn − 1``.

Cost model (aligned with the kernel's token-retransmission accounting,
paper §5.2):

* a **hop** is one successful token transmission from the current holder to
  the next operational proxy — including the closing transmission that
  returns the token to the origin once it has left it;
* a transmission towards a **failed** proxy is never delivered: the holder
  retries :data:`repro.core.config.TOKEN_RETRY_LIMIT` times, as the kernel
  does, declares the proxy faulty and excludes it.  Those wasted attempts
  (the initial send plus every retry, ``TOKEN_RETRY_LIMIT + 1`` in total) are charged to ``retransmissions``, not
  to the hop count, and the skip transmission to the successor *is* a hop —
  the seed implementation charged a phantom hop to the dead proxy instead and
  never charged the skip, and it dropped the closing hop whenever repairs
  left ``reached <= 1``;
* with per-link ``loss``, a lost token transmission to a live proxy is
  re-sent until it lands; every lost attempt counts one retransmission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from repro.core.config import TOKEN_RETRY_LIMIT
from repro.sim.rng import RandomStreams


@dataclass
class FlatRingReport:
    """Hop accounting for one membership change on the flat ring."""

    origin: str
    hops: int
    members_reached: int
    retransmissions: int = 0
    repaired: List[str] = field(default_factory=list)

    @property
    def messages(self) -> int:
        """Total transmissions on the wire: delivered hops + wasted sends."""
        return self.hops + self.retransmissions


class FlatRingMembership:
    """All access proxies in one token ring; one full revolution per change.

    Parameters
    ----------
    proxies:
        The access proxies, in ring order.
    loss:
        Per-transmission loss probability towards *live* proxies; lost
        transmissions are retried (and counted as retransmissions) until they
        land, masking the loss exactly like the kernel's reliable dispatch.
    seed:
        Seed for the ``"flat-ring.loss"`` random stream.
    """

    def __init__(
        self,
        proxies: Sequence[str],
        loss: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not proxies:
            raise ValueError("flat ring needs at least one access proxy")
        if len(set(proxies)) != len(proxies):
            raise ValueError("duplicate access proxies in flat ring")
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        self.ring: List[str] = list(proxies)
        self.views: Dict[str, Set[str]] = {p: set() for p in proxies}
        self.loss = loss
        self._rng = RandomStreams(seed).stream("flat-ring.loss")
        self._failed: Set[str] = set()
        self.reports: List[FlatRingReport] = []

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------

    def fail_proxy(self, proxy: str) -> None:
        if proxy not in self.views:
            raise KeyError(f"unknown access proxy {proxy!r}")
        self._failed.add(proxy)

    def operational(self) -> List[str]:
        return [p for p in self.ring if p not in self._failed]

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------

    def _lossy_delivery_retries(self) -> int:
        """Extra attempts a transmission to a live proxy needed before landing."""
        if self.loss <= 0.0:
            return 0
        retries = 0
        while float(self._rng.random()) < self.loss:
            retries += 1
        return retries

    def propagate_change(self, origin: str, member: str, join: bool = True) -> FlatRingReport:
        """Circulate the change once around the ring starting at ``origin``."""
        if origin not in self.views:
            raise KeyError(f"unknown access proxy {origin!r}")
        if origin in self._failed:
            raise ValueError(f"origin {origin!r} has failed")
        start = self.ring.index(origin)
        order = self.ring[start:] + self.ring[:start]
        hops = 0
        retransmissions = 0
        reached = 0
        repaired: List[str] = []
        # Explicit token walk: ``holder`` is wherever the token currently sits;
        # it transmits to each subsequent ring position in order, skipping
        # (and excluding) proxies that never acknowledge.
        holder = origin
        for proxy in order:
            if proxy == origin:
                if join:
                    self.views[proxy].add(member)
                else:
                    self.views[proxy].discard(member)
                reached += 1
                continue
            if proxy in self._failed:
                # The holder's send and its TOKEN_RETRY_LIMIT retries are all
                # wasted transmissions; the token stays with the holder, which
                # then skips to the successor (charged as that hop).
                retransmissions += TOKEN_RETRY_LIMIT + 1
                repaired.append(proxy)
                continue
            retransmissions += self._lossy_delivery_retries()
            hops += 1
            if join:
                self.views[proxy].add(member)
            else:
                self.views[proxy].discard(member)
            reached += 1
            holder = proxy
        # Closing hop: once the token has left the origin it must be handed
        # back to complete the revolution, regardless of how many proxies were
        # repaired away along the arc.
        if holder != origin:
            retransmissions += self._lossy_delivery_retries()
            hops += 1
        for proxy in repaired:
            self.ring.remove(proxy)
            del self.views[proxy]
            self._failed.discard(proxy)
        report = FlatRingReport(
            origin=origin,
            hops=hops,
            members_reached=reached,
            retransmissions=retransmissions,
            repaired=repaired,
        )
        self.reports.append(report)
        return report

    def join(self, origin: str, member: str) -> FlatRingReport:
        return self.propagate_change(origin, member, join=True)

    def leave(self, origin: str, member: str) -> FlatRingReport:
        return self.propagate_change(origin, member, join=False)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def membership_at(self, proxy: str) -> Set[str]:
        return set(self.views[proxy])

    def global_agreement(self) -> bool:
        views = [frozenset(self.views[p]) for p in self.operational()]
        return len(set(views)) <= 1

    def ring_size(self) -> int:
        return len(self.ring)
