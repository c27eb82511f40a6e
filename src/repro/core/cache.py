"""The DSR path cache.

A *path cache* stores complete source routes, each starting at the caching
node — the cache organisation used by the CMU ns-2 DSR model and by the
paper (contrast with the link cache of Hu & Johnson, implemented as an
ablation in :mod:`repro.core.link_cache`).

Cache-correctness support, per the paper's section 3:

* every path remembers when it was **entered** (``added``) — the adaptive
  timeout needs the lifetime of a route when it breaks;
* the cache tracks, per link, when it was **last seen in a unicast packet
  forwarded by this node** — the timer-based expiry prunes the portion of
  any cached route unused for longer than the timeout;
* it also remembers which links this node actually forwarded over, the
  gating condition for rebroadcasting wider error notifications.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.routes import contains_link, is_valid_route, route_links

Link = Tuple[int, int]


@dataclass
class CachedPath:
    """One stored source route and its bookkeeping."""

    route: Tuple[int, ...]
    added: float  # when this path (or its untruncated ancestor) was cached


class PathCache:
    """A capacity-bounded cache of source routes for one node."""

    def __init__(self, owner: int, capacity: int = 64):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.owner = owner
        self.capacity = capacity
        self._paths: "OrderedDict[Tuple[int, ...], CachedPath]" = OrderedDict()
        self._link_last_seen: Dict[Link, float] = {}
        self._links_forwarded: Set[Link] = set()

    # ------------------------------------------------------------------
    # Insertion / lookup
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._paths)

    def paths(self) -> List[CachedPath]:
        return list(self._paths.values())

    def add(self, route: Sequence[int], now: float) -> bool:
        """Cache ``route`` (must start at the owner).  Returns True if a new
        path was stored.

        Invalid routes (loops, too short, wrong start) are rejected rather
        than raising: snooped packets routinely yield degenerate routes and
        the protocol simply ignores them.
        """
        key = tuple(route)
        if key in self._paths:
            # Stored keys are valid routes from the owner, so a re-add needs
            # no validation.  Keep the original entry time: "lifetime" in the
            # adaptive timeout is time since the route *entered* the cache,
            # and refreshing it on every forwarded packet would collapse
            # lifetimes to inter-packet gaps.  (Usage recency is tracked
            # separately via note_links_used.)
            self._paths.move_to_end(key)
            return False
        if not is_valid_route(key) or key[0] != self.owner:
            return False
        if len(self._paths) >= self.capacity:
            self._paths.popitem(last=False)  # evict oldest-inserted
        self._paths[key] = CachedPath(route=key, added=now)
        return True

    def find(self, dst: int) -> Optional[List[int]]:
        """Shortest cached route from the owner to ``dst``.

        A path *containing* ``dst`` counts (truncated at ``dst``) — a route
        through a node is also a route to it.
        """
        found = self.find_with_age(dst)
        return None if found is None else found[0]

    def find_with_age(self, dst: int) -> Optional[Tuple[List[int], float]]:
        """Like :meth:`find` but also returns when the winning path entered
        the cache — the "generation time" freshness tags propagate."""
        best: Optional[Tuple[int, float, Tuple[int, ...]]] = None
        for cached in self._paths.values():
            try:
                index = cached.route.index(dst)
            except ValueError:
                continue
            if index == 0:
                continue
            candidate = cached.route[: index + 1]
            rank = (len(candidate), -cached.added)
            if best is None or rank < (best[0], best[1]):
                best = (len(candidate), -cached.added, candidate)
        if best is None:
            return None
        return list(best[2]), -best[1]

    def has_route_to(self, dst: int) -> bool:
        return self.find(dst) is not None

    # ------------------------------------------------------------------
    # Link bookkeeping (expiry + wider-error gating)
    # ------------------------------------------------------------------

    def note_links_used(
        self, route: Sequence[int], now: float, forwarded: bool
    ) -> None:
        """Record that this node saw ``route`` in a unicast packet.

        ``forwarded`` is True when the node itself transmitted the packet —
        only then do the links count for wider-error rebroadcast gating.
        """
        for link in route_links(route):
            self._link_last_seen[link] = now
            if forwarded:
                self._links_forwarded.add(link)

    def link_forwarded(self, link: Link) -> bool:
        """Did this node ever forward a packet over ``link``?"""
        return link in self._links_forwarded

    def contains_link(self, link: Link) -> bool:
        return any(contains_link(path.route, link) for path in self._paths.values())

    # ------------------------------------------------------------------
    # Invalidations
    # ------------------------------------------------------------------

    def remove_link(self, link: Link, now: float) -> List[float]:
        """Truncate every cached path at ``link``.

        Returns the lifetimes (``now - added``) of the affected paths — the
        input the adaptive timeout heuristic needs.
        """
        lifetimes: List[float] = []
        replacements: List[CachedPath] = []
        doomed: List[Tuple[int, ...]] = []
        a, b = link
        for key, cached in self._paths.items():
            # Stored routes are loop-free: ``a`` occurs at most once, so the
            # link is there iff ``b`` follows that one occurrence.
            if a not in key:
                continue
            index = key.index(a)
            if index + 1 == len(key) or key[index + 1] != b:
                continue
            lifetimes.append(max(0.0, now - cached.added))
            doomed.append(key)
            if index >= 1:  # the prefix up to ``a`` is still a route
                replacements.append(CachedPath(key[: index + 1], cached.added))
        for key in doomed:
            del self._paths[key]
        for replacement in replacements:
            if replacement.route not in self._paths:
                self._paths[replacement.route] = replacement
        return lifetimes

    def remove_routes_to(self, dst: int) -> int:
        """Drop every cached path that ends at ``dst`` (used by tests)."""
        doomed = [key for key in self._paths if key[-1] == dst]
        for key in doomed:
            del self._paths[key]
        return len(doomed)

    def prune_stale(self, now: float, timeout: float) -> int:
        """Apply timer-based expiry: truncate each path at its first link
        not seen within ``timeout`` seconds (entry time counts as a
        sighting).  Returns the number of paths shortened or dropped."""
        changed = 0
        new_paths: "OrderedDict[Tuple[int, ...], CachedPath]" = OrderedDict()
        for key, cached in self._paths.items():
            cut = len(cached.route)
            for i, link in enumerate(route_links(cached.route)):
                last = max(self._link_last_seen.get(link, cached.added), cached.added)
                if now - last > timeout:
                    cut = i + 1
                    break
            if cut == len(cached.route):
                new_paths[key] = cached
                continue
            changed += 1
            if cut >= 2:
                prefix = cached.route[:cut]
                if prefix not in new_paths:
                    new_paths[prefix] = CachedPath(prefix, cached.added)
        self._paths = new_paths
        return changed

    def clear(self) -> None:
        self._paths.clear()
