"""Proxy cache (PROXIED) models.

0.47 % of the paper's requests are PROXIED — served from or decided by
the proxy cache.  The paper notes an inconsistency: some PROXIED
requests to consistently-censored URLs carry *no* exception id even
though equivalent requests are denied (Section 3.3).

Two models are provided:

* :class:`CacheModel` — probabilistic, calibrated directly to the
  paper's PROXIED rate; the default, because it reproduces the logs'
  statistics without assuming anything about the appliances' cache
  configuration;
* :class:`LruProxyCache` — a behavioural LRU over actual request URLs
  ("bandwidth gain profile" style): PROXIED rows arise from genuine
  repetition, and the missing-exception inconsistency arises from
  stale cached decisions.  Used by the cache ablation bench.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping, Sequence

import numpy as np

from repro.metrics import current_registry

DEFAULT_CACHE_RATE = 0.0047
DEFAULT_CLEAR_SHARE = 0.55


class CacheModel:
    """Samples whether a request is PROXIED and whether its exception
    survives caching."""

    def __init__(
        self,
        cache_rate: float = DEFAULT_CACHE_RATE,
        clear_exception_share: float = DEFAULT_CLEAR_SHARE,
    ):
        if not 0.0 <= cache_rate <= 1.0:
            raise ValueError(f"bad cache rate: {cache_rate}")
        if not 0.0 <= clear_exception_share <= 1.0:
            raise ValueError(f"bad clear share: {clear_exception_share}")
        self.cache_rate = cache_rate
        self.clear_exception_share = clear_exception_share

    def is_cached(self, rng: np.random.Generator) -> bool:
        """One PROXIED draw at the calibrated rate."""
        return rng.random() < self.cache_rate

    def exception_cleared(self, rng: np.random.Generator) -> bool:
        """For a cached censored request: does the log lose the
        exception id (the paper's PROXIED inconsistency)?"""
        return rng.random() < self.clear_exception_share

    @staticmethod
    def cacheable(method: str, content_type: str) -> bool:
        """The probabilistic model applies to all traffic."""
        return True

    def lookup(self, key: str, rng: np.random.Generator) -> bool:
        """Uniform-probability hit; the key is ignored (see
        :class:`LruProxyCache` for the behavioural variant)."""
        cached = self.is_cached(rng)
        registry = current_registry()
        if registry is not None:
            registry.inc("cache.hits" if cached else "cache.misses")
        return cached

    def lookup_many(
        self, columns: Mapping[str, Sequence], uniforms: np.ndarray
    ) -> np.ndarray:
        """Hit mask for a chunk of requests: request *i* hits when
        ``uniforms[i]`` falls below the calibrated rate."""
        hits = uniforms < self.cache_rate
        _count_lookups(int(hits.sum()), len(hits))
        return hits


#: Content types the "bandwidth gain profile" caches.
_CACHEABLE_TYPES = (
    "image/", "application/javascript", "text/css",
    "application/octet-stream", "application/zip", "video/",
)


class LruProxyCache:
    """A behavioural cache: exact-URL LRU with bounded capacity.

    ``lookup`` both queries and updates the cache, mirroring a real
    appliance: a miss inserts the entry (when the request looks
    cacheable), a hit refreshes recency and yields a PROXIED log row.
    The stale-decision share models SGOS serving a cached object
    without re-running policy — the paper's missing-exception rows.
    """

    def __init__(
        self,
        capacity: int = 50_000,
        stale_decision_share: float = DEFAULT_CLEAR_SHARE,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if not 0.0 <= stale_decision_share <= 1.0:
            raise ValueError(f"bad stale share: {stale_decision_share}")
        self.capacity = capacity
        self.clear_exception_share = stale_decision_share
        self._entries: OrderedDict[str, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def cacheable(method: str, content_type: str) -> bool:
        if method != "GET":
            return False
        return any(content_type.startswith(t) for t in _CACHEABLE_TYPES) or (
            content_type == "text/html"
        )

    def lookup(self, key: str, rng: np.random.Generator) -> bool:
        """Query-and-update; returns True on a cache hit."""
        evictions = self.evictions
        hit = self._touch(key)
        _count_lookups(int(hit), 1, self.evictions - evictions)
        return hit

    def lookup_many(
        self, columns: Mapping[str, Sequence], uniforms: np.ndarray
    ) -> np.ndarray:
        """Hit mask for a chunk of requests, looked up one cacheable
        request at a time in stream order (the LRU state depends on
        it); the uniforms are not used."""
        cached = np.zeros(len(uniforms), dtype=bool)
        hits, misses, evictions = self.hits, self.misses, self.evictions
        rows = zip(
            columns["method"], columns["content_type"],
            columns["host"], columns["path"], columns["query"],
        )
        for row, (method, content_type, host, path, query) in enumerate(rows):
            if self.cacheable(method, content_type):
                cached[row] = self._touch(f"{host}{path}?{query}")
        _count_lookups(
            self.hits - hits,
            self.hits - hits + self.misses - misses,
            self.evictions - evictions,
        )
        return cached

    def _touch(self, key: str) -> bool:
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._entries[key] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return False

    @property
    def hit_rate(self) -> float:
        """Hits over lookups so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _count_lookups(hits: int, lookups: int, evictions: int = 0) -> None:
    """Report a run of cache lookups to the active metrics registry
    (a counter appears only once it is non-zero, as with per-lookup
    increments)."""
    registry = current_registry()
    if registry is None:
        return
    for name, amount in (
        ("cache.hits", hits),
        ("cache.misses", lookups - hits),
        ("cache.evictions", evictions),
    ):
        if amount:
            registry.inc(name, amount)
