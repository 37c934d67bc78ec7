"""Tests for dataset construction and the sampling math."""

import numpy as np
import pytest

from repro.datasets import proportion_confidence_interval
from repro.datasets.sampling import half_width
from repro.logmodel.anonymize import ZEROED_CLIENT_IP
from repro.timeline import USER_SLICE_DAYS, day_span


class TestScenarioDatasets:
    def test_sizes(self, scenario):
        summary = scenario.summary()
        assert summary["full"] > 0
        assert summary["denied"] < summary["full"]
        assert summary["user"] < summary["full"]
        # D_sample is a 4 % sample of D_full
        assert abs(summary["sample"] - summary["full"] * 0.04) < 3

    def test_denied_has_only_exceptions(self, scenario):
        assert (scenario.denied.col("x_exception_id") != "-").all()

    def test_user_slice_covers_july_22_23(self, scenario):
        epochs = scenario.user.col("epoch")
        spans = [day_span(day) for day in USER_SLICE_DAYS]
        for epoch in np.unique(epochs // 86400 * 86400):
            assert any(start <= epoch < end for start, end in spans)

    def test_user_slice_has_hashed_clients(self, scenario):
        clients = np.unique(scenario.user.col("c_ip"))
        assert ZEROED_CLIENT_IP not in clients
        assert all("." not in c for c in clients)  # pseudonyms, not IPs
        assert len(clients) > 1

    def test_other_days_have_zeroed_clients(self, scenario):
        full = scenario.full
        epochs = full.col("epoch")
        start, end = day_span("2011-08-03")
        in_aug = (epochs >= start) & (epochs < end)
        clients = np.unique(full.col("c_ip")[in_aug])
        assert list(clients) == [ZEROED_CLIENT_IP]

    def test_user_slice_uses_sg42_only(self, scenario):
        assert np.unique(scenario.user.col("s_ip")).tolist() == ["82.137.200.42"]

    def test_sample_rows_come_from_full(self, scenario):
        full_hosts = set(scenario.full.col("cs_host").tolist())
        sample_hosts = set(scenario.sample.col("cs_host").tolist())
        assert sample_hosts <= full_hosts

    def test_records_by_day_accounts_for_everything(self, scenario):
        assert sum(scenario.records_by_day.values()) == len(scenario.full)

    def test_build_is_deterministic(self, scenario):
        from repro.datasets import build_scenario

        rebuilt = build_scenario(scenario.config)
        assert rebuilt.summary() == scenario.summary()
        assert (
            rebuilt.full.col("cs_host")[:100].tolist()
            == scenario.full.col("cs_host")[:100].tolist()
        )


class TestSamplingTheory:
    def test_paper_bound(self):
        """The paper: n = 32 M gives ±0.0001 at 95 % confidence."""
        assert half_width(0.01, 32_000_000) < 0.0001

    def test_interval_contains_proportion(self):
        low, high = proportion_confidence_interval(0.3, 1000)
        assert low < 0.3 < high

    def test_narrower_with_more_samples(self):
        assert half_width(0.3, 10_000) < half_width(0.3, 100)

    def test_clipping(self):
        low, high = proportion_confidence_interval(0.0001, 100)
        assert low == 0.0
        low, high = proportion_confidence_interval(0.9999, 100)
        assert high == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            proportion_confidence_interval(1.5, 100)
        with pytest.raises(ValueError):
            proportion_confidence_interval(0.5, 0)
        with pytest.raises(ValueError):
            proportion_confidence_interval(0.5, 100, confidence=0.42)

    def test_confidence_levels_ordered(self):
        assert half_width(0.5, 100, 0.90) < half_width(0.5, 100, 0.99)


class TestBuildMemory:
    def test_build_peaks_near_its_live_data(self):
        """The scenario build keeps a shard's Python cells only while
        the shard runs and merges arrays without copying them, so its
        traced peak stays near what the datasets keep (a build that
        kept every shard's cell lists and copied them into the frame
        peaked at about 1.5x)."""
        import gc
        import tracemalloc

        from repro.engine import build_scenario
        from repro.workload.config import small_config

        # Imports and first-use caches stay outside the trace; another
        # config makes the traced build rebuild its scenario context.
        build_scenario(small_config(2000, seed=1))
        gc.collect()
        tracemalloc.start()
        try:
            datasets = build_scenario(small_config(20000, seed=4))
            gc.collect()
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(datasets.full) > 0
        assert peak <= 1.2 * live, (peak, live)
