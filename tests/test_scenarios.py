"""Tests for the what-if scenario machinery (repro.scenarios)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.common import censored_mask, domain_column
from repro.analysis.overview import traffic_breakdown
from repro.analysis.toranalysis import identify_tor_traffic, tor_overview
from repro.datasets import build_scenario
from repro.workload.config import small_config


@pytest.fixture(scope="module")
def config():
    return small_config(20_000, seed=21)


@pytest.fixture(scope="module")
def baseline(config):
    return build_scenario(config)


class TestCustomScenario:
    def test_identity_transform_matches_builder(self, config, baseline):
        canonical = build_scenario(replace(config, policy_transform=None))
        assert baseline.summary() == canonical.summary()

    def test_datasets_consistent(self, baseline):
        assert (baseline.denied.col("x_exception_id") != "-").all()
        assert len(baseline.sample) == round(len(baseline.full) * 0.04)

    def test_named_transform_identical_across_worker_counts(self):
        """The name travels in the config, so a pooled worker rebuilds
        the same what-if policy the parent would."""
        config = replace(
            small_config(6_000, seed=5), policy_transform="tor-blackout"
        )
        serial = build_scenario(config, workers=1)
        parallel = build_scenario(config, workers=2)
        assert serial.records_by_day == parallel.records_by_day
        for name in ("full", "sample"):
            ours, theirs = getattr(serial, name), getattr(parallel, name)
            assert ours.column_names == theirs.column_names
            for column in ours.column_names:
                assert np.array_equal(
                    ours.col(column), theirs.col(column)
                ), (name, column)

    def test_unknown_transform_lists_the_registered_names(self):
        from repro.scenarios import (
            POLICY_TRANSFORMS,
            UnknownPolicyTransformError,
        )

        config = replace(
            small_config(2_000, seed=5), policy_transform="tor-brownout"
        )
        with pytest.raises(UnknownPolicyTransformError) as excinfo:
            build_scenario(config)
        message = str(excinfo.value)
        assert "'tor-brownout'" in message
        for name in POLICY_TRANSFORMS:
            assert name in message


class TestTorBlackout:
    @pytest.fixture(scope="class")
    def blackout(self, config):
        return build_scenario(replace(config, policy_transform="tor-blackout"))

    def test_all_onion_traffic_censored(self, blackout):
        tor = identify_tor_traffic(
            blackout.full, blackout.generator.tor_directory
        )
        overview = tor_overview(tor)
        onion_total = int(tor.onion_mask.sum())
        assert onion_total > 0
        # every OR connection denied (modulo the PROXIED cache quirk)
        assert overview.onion_censored > onion_total * 0.9

    def test_directory_traffic_still_allowed(self, blackout):
        tor = identify_tor_traffic(
            blackout.full, blackout.generator.tor_directory
        )
        assert tor_overview(tor).http_censored == 0

    def test_every_proxy_censors(self, blackout):
        tor = identify_tor_traffic(
            blackout.full, blackout.generator.tor_directory
        )
        overview = tor_overview(tor)
        assert len(overview.censored_by_proxy) >= 5  # not just SG-44

    def test_censorship_rises_vs_baseline(self, baseline, blackout):
        base = traffic_breakdown(baseline.full).censored_pct
        new = traffic_breakdown(blackout.full).censored_pct
        assert new > base


class TestStreamingCurfew:
    @pytest.fixture(scope="class")
    def curfew(self, config):
        return build_scenario(
            replace(config, policy_transform="streaming-curfew")
        )

    def test_youtube_censored_in_window_only(self, curfew):
        frame = curfew.full
        censored = censored_mask(frame)
        hours = (frame.col("epoch") % 86400) // 3600
        # www.youtube.com only: upload.youtube.com is redirect-listed
        # in the baseline policy regardless of the curfew
        of_youtube = frame.col("cs_host") == "www.youtube.com"
        inside = of_youtube & (hours >= 18) & (hours < 23)
        outside = of_youtube & ~((hours >= 18) & (hours < 23))
        assert int((inside & censored).sum()) > 0
        # outside the curfew youtube stays almost entirely open
        outside_total = int(outside.sum())
        outside_censored = int((outside & censored).sum())
        assert outside_censored < outside_total * 0.05

    def test_always_blocked_sites_unaffected(self, curfew, baseline):
        """metacafe is blocked by domain rule either way."""
        for datasets in (curfew, baseline):
            frame = datasets.full
            domains = domain_column(frame)
            censored = censored_mask(frame)
            of_metacafe = domains == "metacafe.com"
            allowed = of_metacafe & ~censored & (
                frame.col("sc_filter_result") == "OBSERVED"
            ) & (frame.col("x_exception_id") == "-")
            assert int(allowed.sum()) == 0


class TestNoKeywordFiltering:
    @pytest.fixture(scope="class")
    def stripped(self, config):
        return build_scenario(
            replace(config, policy_transform="no-keyword-filtering")
        )

    def test_censored_volume_collapses(self, baseline, stripped):
        """The paper: 'proxy' alone is >50 % of censored traffic;
        dropping the keyword engine should roughly halve censorship."""
        base = traffic_breakdown(baseline.full).censored_pct
        new = traffic_breakdown(stripped.full).censored_pct
        assert new < base * 0.65

    def test_facebook_plugins_now_allowed(self, stripped):
        frame = stripped.full
        plugins = np.char.startswith(
            frame.col("cs_uri_path").astype(str), "/plugins/"
        )
        censored = censored_mask(frame)
        assert int((plugins & censored).sum()) == 0

    def test_domain_blocking_survives(self, stripped):
        frame = stripped.full
        domains = domain_column(frame)
        censored = censored_mask(frame)
        of_metacafe = domains == "metacafe.com"
        assert int((of_metacafe & censored).sum()) > 0
