"""Unit tests for the DSR path cache."""

from repro.core.cache import PathCache


def test_add_and_find_exact_destination():
    cache = PathCache(owner=0)
    assert cache.add([0, 1, 2], now=0.0)
    assert cache.find(2) == [0, 1, 2]


def test_find_truncates_route_through_destination():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2, 3], now=0.0)
    assert cache.find(2) == [0, 1, 2]


def test_find_prefers_shortest():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2, 3, 4], now=0.0)
    cache.add([0, 5, 4], now=0.0)
    assert cache.find(4) == [0, 5, 4]


def test_rejects_routes_not_starting_at_owner():
    cache = PathCache(owner=0)
    assert not cache.add([1, 2, 3], now=0.0)
    assert len(cache) == 0


def test_rejects_loops_and_degenerates():
    cache = PathCache(owner=0)
    assert not cache.add([0, 1, 0], now=0.0)
    assert not cache.add([0], now=0.0)
    assert len(cache) == 0


def test_duplicate_add_keeps_entry_time():
    """Re-learning a cached route must not reset its entry time — the
    adaptive timeout measures lifetime from cache *entry* (paper sec. 3)."""
    cache = PathCache(owner=0)
    cache.add([0, 1, 2], now=0.0)
    assert not cache.add([0, 1, 2], now=5.0)
    assert cache.paths()[0].added == 0.0


def test_capacity_eviction():
    cache = PathCache(owner=0, capacity=2)
    cache.add([0, 1], now=0.0)
    cache.add([0, 2], now=1.0)
    cache.add([0, 3], now=2.0)
    assert len(cache) == 2
    assert cache.find(1) is None  # oldest evicted
    assert cache.find(3) is not None


def test_remove_link_truncates_and_reports_lifetimes():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2, 3], now=10.0)
    cache.add([0, 4, 5], now=12.0)
    lifetimes = cache.remove_link((2, 3), now=20.0)
    assert lifetimes == [10.0]
    assert cache.find(3) is None
    assert cache.find(2) == [0, 1, 2]  # surviving prefix retained
    assert cache.find(5) == [0, 4, 5]  # untouched


def test_remove_first_hop_link_drops_path():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2], now=0.0)
    cache.remove_link((0, 1), now=1.0)
    assert cache.find(2) is None
    assert cache.find(1) is None


def test_contains_link():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2], now=0.0)
    assert cache.contains_link((1, 2))
    assert not cache.contains_link((2, 1))


def test_link_forwarded_tracking():
    cache = PathCache(owner=0)
    cache.note_links_used([5, 0, 1, 2], now=1.0, forwarded=True)
    assert cache.link_forwarded((1, 2))
    cache.note_links_used([5, 3, 4], now=1.0, forwarded=False)
    assert not cache.link_forwarded((3, 4))


def test_prune_stale_truncates_unused_portion():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2, 3], now=0.0)
    # Link (0,1) and (1,2) used recently; (2,3) never used since entry.
    cache.note_links_used([0, 1, 2], now=9.0, forwarded=True)
    changed = cache.prune_stale(now=10.0, timeout=5.0)
    assert changed == 1
    assert cache.find(3) is None
    assert cache.find(2) == [0, 1, 2]


def test_prune_fresh_routes_survive():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2], now=8.0)  # entry time counts as a sighting
    assert cache.prune_stale(now=10.0, timeout=5.0) == 0
    assert cache.find(2) == [0, 1, 2]


def test_prune_drops_whole_path_when_first_link_stale():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2], now=0.0)
    assert cache.prune_stale(now=100.0, timeout=5.0) == 1
    assert len(cache) == 0


def test_remove_routes_to():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2], now=0.0)
    cache.add([0, 3], now=0.0)
    assert cache.remove_routes_to(2) == 1
    assert cache.find(2) is None
    assert cache.find(3) == [0, 3]


def test_clear():
    cache = PathCache(owner=0)
    cache.add([0, 1], now=0.0)
    cache.clear()
    assert len(cache) == 0


def test_readd_keeps_entry_time_and_moves_path_to_lru_end():
    """A re-add of a stored path takes the fast path: no new entry, the
    original entry time, and the path becomes the newest for eviction."""
    cache = PathCache(owner=0, capacity=2)
    cache.add((0, 1, 2), now=1.0)
    cache.add([0, 3], now=2.0)
    assert not cache.add([0, 1, 2], now=9.0)  # a list re-adds the tuple key
    assert [(p.route, p.added) for p in cache.paths()] == [((0, 3), 2.0), ((0, 1, 2), 1.0)]
    cache.add([0, 4], now=10.0)  # evicts the least recently added: (0, 3)
    assert [p.route for p in cache.paths()] == [(0, 1, 2), (0, 4)]


def test_remove_link_cuts_only_paths_with_the_directed_link():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2, 3], now=1.0)  # holds 1->2: truncated to (0, 1)
    cache.add([0, 5, 2, 1], now=2.0)  # holds 2->1 only: untouched
    cache.add([0, 1], now=3.0)  # ends at 1: untouched
    cache.add([0, 6, 1, 2], now=4.0)  # holds 1->2 at the end: cut to (0, 6, 1)
    lifetimes = cache.remove_link((1, 2), now=10.0)
    assert lifetimes == [9.0, 6.0]
    assert {p.route: p.added for p in cache.paths()} == {
        (0, 5, 2, 1): 2.0,
        (0, 1): 3.0,  # the truncated (0, 1) prefix is already stored
        (0, 6, 1): 4.0,
    }
