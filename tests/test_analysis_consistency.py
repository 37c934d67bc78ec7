"""Tests for the PROXIED-inconsistency analysis (Section 3.3)."""

import pytest

from repro.analysis.consistency import (
    proxied_consistency,
    proxied_consistency_by_domain,
)
from tests.helpers import allowed_row, censored_row, make_frame, proxied_row


class TestUrlLevel:
    def test_contradictory_cached_row(self):
        """A clean PROXIED row whose URL is otherwise always censored —
        the stale-decision case the paper flags."""
        frame = make_frame([
            censored_row(cs_host="www.metacafe.com", cs_uri_path="/"),
            censored_row(cs_host="www.metacafe.com", cs_uri_path="/"),
            proxied_row(cs_host="www.metacafe.com", cs_uri_path="/"),
        ])
        result = proxied_consistency(frame)
        assert result.clean_proxied_rows == 1
        assert result.contradictory == 1
        assert result.inconsistency_found

    def test_consistent_cached_row(self):
        frame = make_frame([
            allowed_row(cs_host="www.google.com", cs_uri_path="/"),
            proxied_row(cs_host="www.google.com", cs_uri_path="/"),
        ])
        result = proxied_consistency(frame)
        assert result.consistent == 1
        assert not result.inconsistency_found

    def test_undetermined_without_siblings(self):
        frame = make_frame([
            proxied_row(cs_host="www.only-cached.com", cs_uri_path="/x"),
            allowed_row(cs_host="www.other.com"),
        ])
        result = proxied_consistency(frame)
        assert result.undetermined == 1

    def test_proxied_with_exception_not_counted_clean(self):
        frame = make_frame([
            proxied_row(cs_host="a.com", x_exception_id="policy_denied"),
        ])
        result = proxied_consistency(frame)
        assert result.proxied_rows == 1
        assert result.clean_proxied_rows == 0

    def test_no_proxied_rows(self):
        result = proxied_consistency(make_frame([allowed_row()]))
        assert result.proxied_rows == 0
        assert result.contradictory_pct == 0.0


class TestDomainLevel:
    def test_blocked_domain_cached_rows_contradict(self):
        frame = make_frame(
            [censored_row(cs_host="www.metacafe.com",
                          cs_uri_path=f"/watch/{i}/") for i in range(4)]
            + [proxied_row(cs_host="www.metacafe.com",
                           cs_uri_path="/watch/99/")]
        )
        result = proxied_consistency_by_domain(frame)
        assert result.contradictory == 1

    def test_scenario_reproduces_the_papers_observation(self, scenario):
        """The simulated logs contain the same quirk the paper reports:
        clean PROXIED rows on domains that are otherwise consistently
        denied (metacafe et al.).

        At the calibrated cache rate a 50 K-request scenario expects
        only about one such row, so whether the shared scenario shows
        one is luck of the seed.  The quirk itself is checked on the
        same traffic and policy with a tenfold cache rate, where it is
        expected several times over.
        """
        import numpy as np

        from repro.engine import child_seed, plan_shards
        from repro.pipeline import (
            AnonymizeStage,
            DayTrafficSource,
            FleetStage,
            FrameSink,
            Pipeline,
        )
        from repro.policy.cache import DEFAULT_CACHE_RATE, CacheModel
        from repro.proxy import ProxyFleet
        from repro.timeline import USER_SLICE_DAYS, day_span

        result = proxied_consistency_by_domain(scenario.full)
        assert result.clean_proxied_rows > 0
        # and a majority of cached rows are ordinary allowed traffic
        assert result.consistent > result.contradictory

        fleet = ProxyFleet(
            scenario.policy, cache=CacheModel(10 * DEFAULT_CACHE_RATE)
        )
        anonymize = AnonymizeStage([day_span(d) for d in USER_SLICE_DAYS])
        sink = FrameSink()
        for shard in plan_shards(scenario.config).shards:
            Pipeline(
                DayTrafficSource(
                    scenario.generator, shard.day,
                    np.random.default_rng(child_seed(shard.seed, 0)),
                ),
                (
                    FleetStage(
                        fleet, np.random.default_rng(child_seed(shard.seed, 1))
                    ),
                    anonymize,
                ),
            ).run(sink)
        frame = sink.frame()
        boosted = proxied_consistency_by_domain(frame)
        assert boosted.inconsistency_found
        assert boosted.consistent > boosted.contradictory
