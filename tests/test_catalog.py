"""Tests for the catalog package: the domain universe, Facebook page
inventory, anonymizer population, and template expansion."""

import numpy as np
import pytest

from repro.catalog import facebook as fb
from repro.catalog.anonymizers import (
    CLEAN_COUNT,
    MIXED_COUNT,
    PROXY_NAMED_COUNT,
    anonymizer_sites,
)
from repro.catalog.categories import Category as C
from repro.catalog.domains import (
    FACEBOOK_PLUGIN_TEMPLATES,
    SiteSpec,
    UrlPattern,
    build_domain_universe,
    synthetic_suspected_sites,
    synthetic_tail_sites,
)
from repro.net.url import registered_domain
from tests.helpers import rng


@pytest.fixture(scope="module")
def universe():
    return build_domain_universe(tail_count=100)


class TestUniverse:
    def test_no_duplicate_hosts(self, universe):
        hosts = [site.host for site in universe]
        assert len(hosts) == len(set(hosts))

    def test_all_weights_positive(self, universe):
        assert all(site.weight > 0 for site in universe)

    def test_paper_domains_present(self, universe):
        domains = {registered_domain(site.host) for site in universe}
        for domain in ("google.com", "facebook.com", "metacafe.com",
                       "skype.com", "wikimedia.org", "amazon.com",
                       "aawsat.com", "badoo.com", "netlog.com",
                       "trafficholder.com", "panet.co.il"):
            assert domain in domains, domain

    def test_suspected_tags_match_paper_list(self, universe):
        suspected = {
            registered_domain(site.host)
            for site in universe
            if site.tagged("suspected")
        }
        for domain in ("metacafe.com", "skype.com", "wikimedia.org",
                       "amazon.com", "jumblo.com", "jeddahbikers.com",
                       "badoo.com", "islamway.com", "netlog.com"):
            assert domain in suspected, domain
        assert "facebook.com" not in suspected  # only pages are targeted
        assert "twitter.com" not in suspected

    def test_template_weights_normalizable(self, universe):
        for site in universe:
            total = sum(t.weight for t in site.templates)
            assert total > 0, site.host

    def test_google_toolbar_template_present(self, universe):
        google = next(s for s in universe if s.host == "www.google.com")
        paths = [t.path for t in google.templates]
        assert "/tbproxy/af/query" in paths

    def test_facebook_plugin_templates_marked_risky(self, universe):
        facebook = next(s for s in universe if s.host == "www.facebook.com")
        for template in facebook.templates:
            if template.path.startswith(("/plugins/", "/extern/")):
                assert template.risky, template.path

    def test_plugin_templates_carry_proxy_string(self):
        for template in FACEBOOK_PLUGIN_TEMPLATES:
            text = f"{template.path}?{template.query}".lower()
            assert "proxy" in text, template.path


class TestSyntheticPopulations:
    def test_suspected_count(self):
        sites = synthetic_suspected_sites(84)
        assert len(sites) == 84
        assert all(site.tagged("suspected") for site in sites)

    def test_suspected_deterministic(self):
        a = synthetic_suspected_sites(20)
        b = synthetic_suspected_sites(20)
        assert [(s.host, s.category) for s in a] == [
            (s.host, s.category) for s in b
        ]

    def test_tail_total_weight(self):
        sites = synthetic_tail_sites(200, total_weight=48.0)
        assert sum(site.weight for site in sites) == pytest.approx(48.0)

    def test_tail_heaviest_below_named_top(self):
        sites = synthetic_tail_sites(200, total_weight=48.0)
        assert max(site.weight for site in sites) < 3.0  # below gstatic

    def test_anonymizer_tiers(self):
        sites = anonymizer_sites()
        assert len(sites) == PROXY_NAMED_COUNT + MIXED_COUNT + CLEAN_COUNT
        proxy_named = [s for s in sites if "proxy-named" in s.tags]
        assert len(proxy_named) == PROXY_NAMED_COUNT
        for site in proxy_named:
            assert "proxy" in site.host

    def test_anonymizer_clean_tier_has_no_keyword(self):
        sites = anonymizer_sites()
        for site in sites:
            if "clean" in site.tags:
                assert "proxy" not in site.host
                for template in site.templates:
                    assert "proxy" not in f"{template.path}{template.query}"


class TestTemplateExpansion:
    def test_placeholders_replaced(self):
        pattern = UrlPattern("/watch/{id}/{word}", "q={hex}&r={id}")
        paths, queries = pattern.fill(rng(0).random((5, 4)))
        for path, query in zip(paths, queries):
            assert "{" not in path and "{" not in query
            assert path.startswith("/watch/")
            assert len(query.split("&")[0]) == len("q=") + 8
        assert pattern.kinds == ("id", "word", "hex", "id")

    def test_expansion_varies(self):
        paths, _ = UrlPattern("/{id}", "").fill(rng(1).random((10, 1)))
        assert len(set(paths)) > 5
        assert all(10**4 <= int(path[1:]) < 10**9 for path in paths)

    def test_plain_template_unchanged(self):
        pattern = UrlPattern("/index.html", "a=1")
        assert pattern.fill(rng(0).random((3, 0))) == ("/index.html", "a=1")


class TestFacebookInventory:
    def test_blocked_pages_match_table14(self):
        names = {page.name for page in fb.BLOCKED_PAGES}
        for name in ("Syrian.Revolution", "syria.news.F.N.N", "ShaamNews",
                     "fffm14", "DaysOfRage", "Syrian.revolution"):
            assert name in names

    def test_blocked_shares_within_bounds(self):
        for page in fb.BLOCKED_PAGES:
            assert 0.0 < page.blocked_share <= 1.0

    def test_shaamnews_mostly_allowed(self):
        shaam = next(p for p in fb.BLOCKED_PAGES if p.name == "ShaamNews")
        assert shaam.blocked_share < 0.1

    def test_allowed_pages_never_blocked(self):
        for page in fb.ALLOWED_PAGES:
            assert page.blocked_share == 0.0
            assert page.name not in fb.CUSTOM_CATEGORY_PAGES

    def test_escaping_query_form_escapes(self):
        assert fb.ESCAPING_QUERY_FORM not in fb.BLOCKED_QUERY_FORMS
