"""Tests for the behavioural LRU proxy cache."""

import numpy as np
import pytest

from repro.policy import HostBlacklistRule, PolicyEngine
from repro.policy.cache import CacheModel, LruProxyCache
from repro.policy.errors import ErrorModel
from repro.proxy import SG9000
from repro.timeline import day_epoch
from repro.traffic import Request
from tests.helpers import rng, tunnel_request


def request(path="/a.jpg", content_type="image/jpeg", **kw) -> Request:
    defaults = dict(
        epoch=day_epoch("2011-08-03"),
        c_ip="31.9.1.2",
        user_agent="UA",
        host="www.example.com",
        path=path,
        content_type=content_type,
    )
    defaults.update(kw)
    return Request(**defaults)


class TestLruProxyCache:
    def test_hit_on_repeat(self):
        cache = LruProxyCache(capacity=10)
        generator = rng(0)
        assert not cache.lookup("k1", generator)  # miss, inserted
        assert cache.lookup("k1", generator)  # hit
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_eviction_order(self):
        cache = LruProxyCache(capacity=2)
        generator = rng(0)
        cache.lookup("a", generator)
        cache.lookup("b", generator)
        cache.lookup("a", generator)  # refresh a
        cache.lookup("c", generator)  # evicts b (LRU)
        assert cache.lookup("a", generator)  # still cached
        assert not cache.lookup("b", generator)  # evicted

    def test_cacheable_filter(self):
        assert LruProxyCache.cacheable("GET", "image/jpeg")
        assert LruProxyCache.cacheable("GET", "text/html")
        assert not LruProxyCache.cacheable("POST", "image/jpeg")
        assert not LruProxyCache.cacheable("CONNECT", "-")

    def test_validation(self):
        with pytest.raises(ValueError):
            LruProxyCache(capacity=0)
        with pytest.raises(ValueError):
            LruProxyCache(stale_decision_share=2.0)


class TestSG9000WithLru:
    def make_proxy(self, cache):
        return SG9000(
            "SG-42",
            PolicyEngine([HostBlacklistRule(["blocked.example.com"])]),
            cache=cache,
            error_model=ErrorModel({}),
        )

    def test_repeat_request_is_proxied(self):
        proxy = self.make_proxy(LruProxyCache(capacity=100))
        generator = rng(1)
        first = proxy.process(request(), generator)
        second = proxy.process(request(), generator)
        assert first.sc_filter_result == "OBSERVED"
        assert second.sc_filter_result == "PROXIED"
        assert second.s_action == "TCP_HIT"

    def test_distinct_urls_miss(self):
        proxy = self.make_proxy(LruProxyCache(capacity=100))
        generator = rng(1)
        proxy.process(request(path="/a.jpg"), generator)
        other = proxy.process(request(path="/b.jpg"), generator)
        assert other.sc_filter_result == "OBSERVED"

    def test_cached_censored_request_can_lose_exception(self):
        proxy = self.make_proxy(
            LruProxyCache(capacity=100, stale_decision_share=1.0)
        )
        generator = rng(1)
        first = proxy.process(
            request(host="blocked.example.com"), generator
        )
        second = proxy.process(
            request(host="blocked.example.com"), generator
        )
        assert first.x_exception_id == "policy_denied"
        assert second.sc_filter_result == "PROXIED"
        assert second.x_exception_id == "-"  # the paper's inconsistency

    def test_connect_never_cached(self):
        proxy = self.make_proxy(LruProxyCache(capacity=100))
        generator = rng(1)
        tunnel = tunnel_request()
        proxy.process(tunnel, generator)
        again = proxy.process(tunnel, generator)
        assert again.sc_filter_result == "OBSERVED"


class TestCompatibility:
    def test_probabilistic_model_still_default(self):
        """The probabilistic model answers the same protocol."""
        model = CacheModel(cache_rate=1.0)
        assert model.cacheable("CONNECT", "-")
        assert model.lookup("anything", rng(0))
