"""Metrics threaded through the sharded engine and the CLI.

The trust argument for instrumentation: aggregate counters are
identical at every worker count, simulated output is byte-identical
with and without ``--metrics``, and the pool's fallback paths count
every shard exactly once (no double counting after a serial re-run).
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.cli import main
from repro.engine import (
    EngineFallbackWarning,
    analyze_logs,
    load_frames,
    run_sharded,
    simulate_to_logs,
)
from repro.engine import pool as pool_module
from repro.metrics import METRICS_SCHEMA, MetricsRegistry, current_registry
from repro.workload.config import small_config
from tests.helpers import day_records

TINY = small_config(5_000, seed=11)


# -- module-level worker functions (must be picklable) ----------------------

def _count_and_square(value):
    registry = current_registry()
    if registry is not None:
        registry.inc("task.calls")
    return value * value


def _count_then_exit_unless_pid(parent_pid):
    registry = current_registry()
    if registry is not None:
        registry.inc("task.calls")
    if os.getpid() != parent_pid:
        os._exit(13)
    return parent_pid * 2


# -- run_sharded collection --------------------------------------------------

class TestRunShardedMetrics:
    def test_collects_one_shard_record_per_payload(self):
        metrics = MetricsRegistry()
        results = run_sharded(
            _count_and_square, [1, 2, 3], workers=1,
            labels=["day:a", "day:b", "day:c"], metrics=metrics,
        )
        assert results == [1, 4, 9]
        assert metrics.counters["task.calls"] == 3
        assert [shard.shard_id for shard in metrics.shards] == [
            "day:a", "day:b", "day:c",
        ]
        assert all(shard.wall_seconds >= 0 for shard in metrics.shards)
        assert all(
            shard.worker_pid == os.getpid() for shard in metrics.shards
        )

    def test_parallel_counters_match_serial(self):
        serial, parallel = MetricsRegistry(), MetricsRegistry()
        run_sharded(_count_and_square, list(range(6)), workers=1,
                    metrics=serial)
        run_sharded(_count_and_square, list(range(6)), workers=3,
                    metrics=parallel)
        assert serial.counters == parallel.counters
        assert len(serial.shards) == len(parallel.shards) == 6

    def test_without_metrics_results_are_unwrapped(self):
        assert run_sharded(_count_and_square, [2], workers=1) == [4]

    def test_sized_result_counts_as_shard_records(self):
        metrics = MetricsRegistry()
        run_sharded(list, [range(4)], workers=1, metrics=metrics)
        assert metrics.shards[0].records == 4


class TestFallbackMetrics:
    """Satellite: the fallback paths must not double-count metrics."""

    def test_broken_pool_counts_each_shard_once(self):
        """Workers die mid-run (os._exit): their partial metrics are
        discarded and only the serial re-run is counted — and the
        fallback warning fires exactly once."""
        pid = os.getpid()
        metrics = MetricsRegistry()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run_sharded(
                _count_then_exit_unless_pid, [pid, pid, pid], workers=2,
                metrics=metrics,
            )
        fallbacks = [
            w for w in caught if issubclass(w.category, EngineFallbackWarning)
        ]
        assert len(fallbacks) == 1
        assert results == [pid * 2] * 3
        assert metrics.counters["task.calls"] == 3
        assert len(metrics.shards) == 3
        # the serial re-run happened in the parent
        assert all(s.worker_pid == pid for s in metrics.shards)

    def test_pool_creation_failure_counts_each_shard_once(self, monkeypatch):
        def broken_factory(workers):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(pool_module, "_make_executor", broken_factory)
        metrics = MetricsRegistry()
        with pytest.warns(EngineFallbackWarning) as caught:
            results = run_sharded(
                _count_and_square, [1, 2], workers=4, metrics=metrics,
            )
        assert len(caught) == 1
        assert results == [1, 4]
        assert metrics.counters["task.calls"] == 2
        assert len(metrics.shards) == 2


# -- pipeline invariants -----------------------------------------------------

class TestPipelineMetrics:
    def test_simulate_counters_worker_invariant(self):
        serial, parallel = MetricsRegistry(), MetricsRegistry()
        records_serial = day_records(TINY, workers=1, metrics=serial)
        records_parallel = day_records(
            TINY, workers=3, metrics=parallel
        )
        assert records_serial == records_parallel
        assert serial.counters == parallel.counters
        total = sum(len(r) for r in records_serial.values())
        assert serial.counters["fleet.requests"] == total
        assert serial.counters["shard.records"] == total
        assert serial.total_records() == total
        verdicts = sum(
            count for name, count in serial.counters.items()
            if name.startswith("fleet.verdict.")
        )
        assert verdicts == total
        assert serial.counters["fleet.verdict.PROXIED"] == (
            serial.counters["cache.hits"]
        )

    def test_simulation_unperturbed_by_metrics(self):
        bare = day_records(TINY, workers=1)
        instrumented = day_records(
            TINY, workers=1, metrics=MetricsRegistry()
        )
        assert bare == instrumented

    def test_analyze_counters_match_read_stats(self, tmp_path):
        paths = [
            path for path, _ in simulate_to_logs(
                TINY, tmp_path, per_day=True
            )
        ]
        serial, parallel = MetricsRegistry(), MetricsRegistry()
        acc_serial, stats = analyze_logs(paths, workers=1, metrics=serial)
        analyze_logs(paths, workers=2, metrics=parallel)
        assert serial.counters == parallel.counters
        assert serial.counters["elff.read.records"] == stats.records
        assert serial.counters["elff.read.skipped"] == stats.skipped
        assert serial.counters["analysis.rows"] == acc_serial.total
        assert serial.timers["analysis.consume_seconds"].count == len(paths)

    def test_load_frames_collects_shard_metrics(self, tmp_path):
        paths = [
            path for path, _ in simulate_to_logs(
                TINY, tmp_path, per_day=True
            )
        ]
        metrics = MetricsRegistry()
        frame = load_frames(paths, workers=1, metrics=metrics)
        assert metrics.total_records() == len(frame)
        assert metrics.counters["elff.read.records"] == len(frame)


class TestEmptyInputs:
    """Satellite: empty path lists must not crash the engine."""

    def test_load_frames_empty_returns_empty_frame(self):
        frame = load_frames([])
        assert len(frame) == 0
        assert "x_exception_id" in frame

    def test_load_frames_empty_with_metrics(self):
        metrics = MetricsRegistry()
        assert len(load_frames([], metrics=metrics)) == 0
        assert metrics.shards == []

    def test_analyze_logs_empty(self):
        analysis, stats = analyze_logs([])
        assert analysis.total == 0
        assert stats.records == stats.skipped == 0


# -- the CLI flag ------------------------------------------------------------

class TestCliMetrics:
    def test_simulate_metrics_report_and_byte_identical_output(self, tmp_path):
        """The acceptance check: counters identical for --workers 1 and
        --workers 4, ELFF bytes identical with and without --metrics."""
        documents, logs = [], []
        runs = [
            ("bare", "1", None),
            ("serial", "1", tmp_path / "serial.json"),
            ("parallel", "4", tmp_path / "parallel.json"),
        ]
        for name, workers, metrics_path in runs:
            argv = [
                "simulate", "--requests", "6000", "--seed", "2011",
                "--out", str(tmp_path / name), "--workers", workers,
            ]
            if metrics_path is not None:
                argv += ["--metrics", str(metrics_path)]
            assert main(argv) == 0
            logs.append((tmp_path / name / "proxies.log").read_bytes())
            if metrics_path is not None:
                documents.append(json.loads(metrics_path.read_text()))
        assert logs[0] == logs[1] == logs[2]
        serial, parallel = documents
        assert serial["schema"] == parallel["schema"] == METRICS_SCHEMA
        assert serial["counters"] == parallel["counters"]
        assert serial["workers"] == 1 and parallel["workers"] == 4
        assert serial["totals"]["records"] == parallel["totals"]["records"]
        assert len(serial["shards"]) == len(parallel["shards"]) == 9

    def test_analyze_streaming_metrics(self, tmp_path, capsys):
        out = tmp_path / "logs"
        assert main([
            "simulate", "--requests", "3000", "--seed", "8",
            "--out", str(out), "--per-day",
        ]) == 0
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "analyze", "--streaming", "--workers", "2",
            "--metrics", str(metrics_path),
            *[str(p) for p in sorted(out.glob("*.log"))],
        ]) == 0
        assert "metrics report" in capsys.readouterr().out
        document = json.loads(metrics_path.read_text())
        assert document["command"] == "analyze"
        assert document["counters"]["elff.read.records"] == (
            document["totals"]["records"]
        )

    def test_analyze_frames_metrics(self, tmp_path, capsys):
        out = tmp_path / "logs"
        assert main([
            "simulate", "--requests", "2000", "--seed", "8",
            "--out", str(out),
        ]) == 0
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "analyze", "--metrics", str(metrics_path),
            str(out / "proxies.log"),
        ]) == 0
        document = json.loads(metrics_path.read_text())
        assert document["totals"]["shards"] == 1
        assert document["totals"]["records"] > 0

    def test_report_metrics_and_markdown_section(self, tmp_path, capsys):
        markdown = tmp_path / "report.md"
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "report", "--requests", "6000", "--seed", "4",
            "--markdown", str(markdown), "--metrics", str(metrics_path),
        ]) == 0
        assert "metrics report" in capsys.readouterr().out
        text = markdown.read_text()
        assert "## Pipeline metrics" in text
        assert "fleet.requests" in text
        document = json.loads(metrics_path.read_text())
        assert document["command"] == "report"
        assert "engine.assemble_seconds" in document["timers"]

    @pytest.mark.parametrize("regime", ["syria", "pakistan"])
    def test_report_tables_timer(self, tmp_path, capsys, regime):
        """One analysis.report_seconds span around the report's tables,
        and the same stdout and markdown with and without --metrics."""
        argv = ["report", "--requests", "4000", "--seed", "4",
                "--regime", regime]
        assert main([*argv, "--markdown", str(tmp_path / "bare.md")]) == 0
        bare = capsys.readouterr().out
        metrics_path = tmp_path / "metrics.json"
        assert main([*argv, "--markdown", str(tmp_path / "timed.md"),
                     "--metrics", str(metrics_path)]) == 0
        timed = capsys.readouterr().out
        assert timed.replace("timed.md", "bare.md").startswith(bare)
        assert "metrics report" in timed[len(bare):]
        bare_md = (tmp_path / "bare.md").read_text()
        assert (tmp_path / "timed.md").read_text().startswith(bare_md)
        timers = json.loads(metrics_path.read_text())["timers"]
        assert timers["analysis.report_seconds"]["count"] == 1
        assert timers["engine.assemble_seconds"]["count"] == 1

    def test_markdown_without_metrics_has_no_section(self, tmp_path):
        markdown = tmp_path / "report.md"
        assert main([
            "report", "--requests", "6000", "--seed", "4",
            "--markdown", str(markdown),
        ]) == 0
        assert "## Pipeline metrics" not in markdown.read_text()
