"""Workload stream v2: the column-native traffic generator.

Every traffic component draws a fixed number of uniforms per request
and emits request columns, so:

* generating a component in blocks of any size gives the same columns
  as one block, and each request consumes exactly the component's
  documented draws;
* ``generate_day`` returns one time-ordered :class:`RequestBatch` whose
  length is the day's request count (what the perf harness counts as
  ``workload.requests``);
* no :class:`Request` object is built on the Syrian ``simulate`` or
  ``report`` path.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import build_scenario, simulate_to_logs
from repro.engine.simulate import scenario_context
from repro.metrics import MetricsRegistry, use_registry
from repro.timeline import PROTEST_DAY, day_span
from repro.traffic import REQUEST_COLUMNS, Request, RequestBatch
from repro.workload import bittraffic, browsing, fbpages, gcache, iphosts
from repro.workload import stream, tortraffic
from repro.workload.config import small_config

#: Same tiny scenario as test_batch_equivalence/test_engine, so the
#: cached per-process scenario context is shared across modules.
TINY = small_config(6_000, seed=5)

#: ``(generator attribute, module)`` of each component, in generation
#: order; each module documents its draws as ``DRAW_COLUMNS``.
COMPONENTS = (
    ("_browsing", browsing),
    ("_iphosts", iphosts),
    ("_tor", tortraffic),
    ("_bittorrent", bittraffic),
    ("_redirects", fbpages),
    ("_gcache", gcache),
)


def _component(name: str):
    return getattr(scenario_context(TINY).generator, name)


def _assert_same_columns(left: RequestBatch, right: RequestBatch) -> None:
    assert len(left) == len(right)
    for name in REQUEST_COLUMNS:
        assert left.col(name).tolist() == right.col(name).tolist(), name


class TestComponentStreams:
    @pytest.mark.parametrize(
        "name, module", COMPONENTS, ids=[name for name, _ in COMPONENTS]
    )
    @settings(max_examples=8, deadline=None)
    @given(block_rows=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_any_block_size_gives_the_same_columns(
        self, name, module, block_rows, seed
    ):
        component = _component(name)
        whole = component.generate(
            PROTEST_DAY, 300, np.random.default_rng(seed)
        )
        with patch.object(stream, "BLOCK_ROWS", block_rows):
            blocked = component.generate(
                PROTEST_DAY, 300, np.random.default_rng(seed)
            )
        _assert_same_columns(whole, blocked)

    @pytest.mark.parametrize(
        "name, module", COMPONENTS, ids=[name for name, _ in COMPONENTS]
    )
    def test_each_request_consumes_its_documented_draws(self, name, module):
        assert module.DRAWS == len(module.DRAW_COLUMNS)
        rng = np.random.default_rng(11)
        requests = _component(name).generate(PROTEST_DAY, 250, rng)
        assert len(requests) > 0
        reference = np.random.default_rng(11)
        reference.random(len(requests) * module.DRAWS)
        assert rng.random() == reference.random()

    def test_blocks_are_bounded(self):
        shapes = []

        def block(u):
            shapes.append(u.shape)
            return RequestBatch.from_requests([]).columns

        with patch.object(stream, "BLOCK_ROWS", 3):
            stream.generate_blocks(7, 5, np.random.default_rng(0), block)
        assert shapes == [(3, 5), (3, 5), (1, 5)]

    def test_browsing_draw_layout(self):
        assert browsing.DRAWS == 13
        assert browsing.PLACEHOLDER_SLOTS == 3

    def test_page_views_cluster_across_blocks(self):
        with patch.object(stream, "BLOCK_ROWS", 7):
            requests = _component("_browsing").generate(
                "2011-08-02", 2_000, np.random.default_rng(4)
            )
        assert len(set(requests.col("c_ip").tolist())) < len(requests)
        start, end = day_span("2011-08-02")
        epochs = requests.col("epoch")
        assert start <= epochs.min() and epochs.max() < end + 5


class TestGenerateDay:
    def test_length_is_the_request_count(self):
        context = scenario_context(TINY)
        generator, config = context.generator, context.generator.config
        weight = config.day_weights()[PROTEST_DAY]
        browsing_count = config.browsing_requests(weight)
        surges = sum(
            count for _, count in
            generator.calendar.surge_requests(PROTEST_DAY, browsing_count)
        )
        tor = int(round(
            config.component_requests("tor", weight)
            * tortraffic.TOR_DAY_MULTIPLIERS[PROTEST_DAY]
        ))
        others = sum(
            config.component_requests(name, weight)
            for name in (
                "iphosts", "bittorrent", "redirect-targets", "google-cache"
            )
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            day = generator.generate_day(
                PROTEST_DAY, np.random.default_rng(2)
            )
        assert len(day) == browsing_count + surges + tor + others
        assert len(day) == len(list(day)) == len(day.col("epoch"))
        assert registry.timers["workload.seconds"].count == 1

    def test_day_is_stably_time_ordered(self):
        generator = scenario_context(TINY).generator
        day = generator.generate_day(PROTEST_DAY, np.random.default_rng(3))
        epochs = day.col("epoch")
        assert (np.diff(epochs) >= 0).all()
        assert day.col("epoch").dtype == np.int64
        assert day.col("port").dtype == np.int64

    def test_slices_are_views_and_rows_round_trip(self):
        generator = scenario_context(TINY).generator
        day = generator.generate_day("2011-08-01", np.random.default_rng(4))
        chunk = day[10:20]
        assert np.shares_memory(chunk.col("epoch"), day.col("epoch"))
        rows = list(chunk)
        assert rows[0].epoch == day.col("epoch")[10]
        assert type(rows[0].epoch) is int
        _assert_same_columns(RequestBatch.from_requests(rows), chunk)


class TestNoRequestObjects:
    @pytest.fixture
    def forbid_requests(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a Request object was built")

        monkeypatch.setattr(Request, "__init__", refuse)
        with pytest.raises(AssertionError, match="Request object"):
            list(scenario_context(TINY).generator.generate_day(
                "2011-07-31", np.random.default_rng(0)
            ))

    def test_simulate_builds_no_request(self, tmp_path, forbid_requests):
        simulate_to_logs(small_config(3_000, seed=9), tmp_path, workers=1)
        assert (tmp_path / "proxies.log").stat().st_size > 0

    def test_report_path_builds_no_request(self, forbid_requests):
        datasets = build_scenario(small_config(3_000, seed=9))
        assert len(datasets.full) > 0


class TestLayerTimers:
    def test_timers_reach_the_report_and_change_no_bytes(self, tmp_path):
        import json

        from repro.cli import main
        from repro.metrics import metrics_to_markdown
        from repro.metrics.registry import TimerStats

        argv = ["simulate", "--requests", "3000", "--seed", "4", "--per-day"]
        assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
        for name, batch_size in (("a", "1024"), ("b", "7")):
            assert main([
                *argv, "--out", str(tmp_path / name),
                "--batch-size", batch_size,
                "--metrics", str(tmp_path / f"{name}.json"),
            ]) == 0
        plain = sorted((tmp_path / "plain").iterdir())
        for name in ("a", "b"):
            assert [path.read_bytes() for path in plain] == [
                (tmp_path / name / path.name).read_bytes() for path in plain
            ]
        first, second = (
            json.loads((tmp_path / f"{name}.json").read_text())
            for name in ("a", "b")
        )
        assert first["counters"] == second["counters"]
        timers = first["timers"]
        assert timers["workload.seconds"]["count"] == 9
        assert (
            timers["policy.seconds"]["count"]
            >= timers["fleet.seconds"]["count"]
        )
        registry = MetricsRegistry()
        for name in ("workload.seconds", "policy.seconds"):
            registry.timers[name] = TimerStats(
                timers[name]["count"], timers[name]["total_seconds"]
            )
        markdown = metrics_to_markdown(registry)
        assert "workload.seconds" in markdown and "policy.seconds" in markdown
