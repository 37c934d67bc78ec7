"""Tests for the SG-9000 appliance and the fleet."""

import numpy as np
import pytest

from repro.catalog.domains import build_domain_universe
from repro.policy import HostBlacklistRule, KeywordRule, PolicyEngine, RedirectHostRule
from repro.policy.cache import CacheModel
from repro.policy.errors import ErrorModel
from repro.policy.syria import build_syrian_policy
from repro.proxy import CategoryNaming, ProxyFleet, RoutingPolicy, SG9000
from repro.timeline import day_epoch
from repro.traffic import Request
from tests.helpers import rng, tunnel_request


def request(**kw) -> Request:
    defaults = dict(
        epoch=day_epoch("2011-08-03") + 3600,
        c_ip="31.9.1.2",
        user_agent="UA",
        host="www.example.com",
    )
    defaults.update(kw)
    return Request(**defaults)


def make_proxy(rules=(), **kw) -> SG9000:
    return SG9000(
        "SG-42",
        PolicyEngine(list(rules)),
        cache=CacheModel(cache_rate=0.0),
        error_model=ErrorModel({}),
        **kw,
    )


class TestSG9000:
    def test_allowed_request_record(self):
        record = make_proxy().process(request(), rng())
        assert record.sc_filter_result == "OBSERVED"
        assert record.x_exception_id == "-"
        assert record.s_ip == "82.137.200.42"
        assert record.cs_host == "www.example.com"
        assert record.s_action == "TCP_NC_MISS"
        assert record.s_supplier_name == "www.example.com"

    def test_censored_request_record(self):
        proxy = make_proxy([HostBlacklistRule(["www.example.com"])])
        record = proxy.process(request(), rng())
        assert record.sc_filter_result == "DENIED"
        assert record.x_exception_id == "policy_denied"
        assert record.sc_status == 403
        assert record.s_action == "TCP_DENIED"
        assert record.s_supplier_name == "-"

    def test_redirected_request_record(self):
        proxy = make_proxy([RedirectHostRule(["www.example.com"])])
        record = proxy.process(request(), rng())
        assert record.x_exception_id == "policy_redirect"
        assert record.sc_status == 302
        assert record.s_action == "TCP_POLICY_REDIRECT"

    def test_error_injection(self):
        proxy = SG9000(
            "SG-42",
            PolicyEngine([]),
            cache=CacheModel(cache_rate=0.0),
            error_model=ErrorModel({"tcp_error": 1.0 - 1e-9}),
        )
        record = proxy.process(request(), rng())
        assert record.x_exception_id == "tcp_error"
        assert record.sc_filter_result == "DENIED"
        assert record.s_action == "TCP_ERR_MISS"

    def test_errors_do_not_override_policy(self):
        proxy = SG9000(
            "SG-42",
            PolicyEngine([HostBlacklistRule(["www.example.com"])]),
            cache=CacheModel(cache_rate=0.0),
            error_model=ErrorModel({"tcp_error": 1.0 - 1e-9}),
        )
        record = proxy.process(request(), rng())
        assert record.x_exception_id == "policy_denied"

    def test_cached_request_is_proxied(self):
        proxy = SG9000(
            "SG-42",
            PolicyEngine([]),
            cache=CacheModel(cache_rate=1.0),
            error_model=ErrorModel({}),
        )
        record = proxy.process(request(), rng())
        assert record.sc_filter_result == "PROXIED"
        assert record.s_action == "TCP_HIT"

    def test_cached_censored_request_may_lose_exception(self):
        proxy = SG9000(
            "SG-42",
            PolicyEngine([HostBlacklistRule(["www.example.com"])]),
            cache=CacheModel(cache_rate=1.0, clear_exception_share=1.0),
            error_model=ErrorModel({}),
        )
        record = proxy.process(request(), rng())
        assert record.sc_filter_result == "PROXIED"
        assert record.x_exception_id == "-"  # the paper's inconsistency

    def test_connect_request_logging(self):
        record = make_proxy().process(tunnel_request(), rng())
        assert record.cs_method == "CONNECT"
        assert record.cs_uri_path == "-"
        assert record.cs_uri_query == "-"
        assert record.cs_uri_port == 443
        assert record.s_action == "TCP_TUNNELED"

    def test_custom_category_label(self):
        naming = CategoryNaming("unavailable", "Blocked sites; unavailable")
        assert naming.label(None) == "unavailable"
        assert naming.label("Blocked sites") == "Blocked sites; unavailable"

    def test_rejects_bad_name(self):
        with pytest.raises(ValueError):
            SG9000("proxy-1", PolicyEngine([]))


class TestRoutingPolicy:
    def test_single_active_proxy_wins(self):
        routing = RoutingPolicy()
        assert routing.route(request(), ("SG-42",), rng()) == "SG-42"

    def test_override_routes_metacafe_to_sg48(self):
        routing = RoutingPolicy()
        counts = {}
        generator = rng(0)
        active = tuple(f"SG-{n}" for n in range(42, 49))
        for _ in range(400):
            name = routing.route(
                request(host="www.metacafe.com"), active, generator
            )
            counts[name] = counts.get(name, 0) + 1
        assert counts["SG-48"] > 320

    def test_uniform_for_unlisted_domain(self):
        routing = RoutingPolicy()
        counts = {}
        generator = rng(0)
        active = tuple(f"SG-{n}" for n in range(42, 49))
        for _ in range(700):
            name = routing.route(request(host="plain.example.com"), active, generator)
            counts[name] = counts.get(name, 0) + 1
        assert len(counts) == 7
        assert max(counts.values()) < 200

    def test_rejects_overweight_overrides(self):
        with pytest.raises(ValueError):
            RoutingPolicy({"x.com": (("SG-42", 0.7), ("SG-43", 0.6))})


class TestProxyFleet:
    @pytest.fixture(scope="class")
    def fleet(self):
        sites = build_domain_universe(tail_count=10)
        policy = build_syrian_policy(sites)
        return ProxyFleet(policy)

    def test_july_days_use_sg42_only(self, fleet):
        assert fleet.active_proxies(day_epoch("2011-07-22") + 100) == ("SG-42",)
        assert fleet.active_proxies(day_epoch("2011-07-31") + 100) == ("SG-42",)

    def test_august_days_use_all_proxies(self, fleet):
        assert len(fleet.active_proxies(day_epoch("2011-08-03") + 100)) == 7

    def test_category_naming_split(self, fleet):
        assert fleet.proxies["SG-43"].naming.default_label == "none"
        assert fleet.proxies["SG-48"].naming.default_label == "none"
        assert fleet.proxies["SG-42"].naming.default_label == "unavailable"
        assert (
            fleet.proxies["SG-44"].naming.custom_label
            == "Blocked sites; unavailable"
        )

    def test_process_assigns_active_proxy(self, fleet):
        record = fleet.process(
            request(epoch=day_epoch("2011-07-22") + 50), rng()
        )
        assert record.s_ip.endswith(".42")

    def test_process_all(self, fleet):
        records = fleet.process_all([request(), request()], rng())
        assert len(records) == 2
