"""Tests for the sharded parallel engine (repro.engine).

The verification net that makes parallelism trustworthy: shard
planning is worker-count-invariant, ``workers=1`` and ``workers=N``
produce byte-identical ELFF output and identical analysis numbers,
worker failures propagate with the shard id attached, and a missing or
broken pool degrades to the serial path instead of failing the run.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis.streaming import StreamingAnalysis
from repro.cli import main
from repro.engine import (
    EngineFallbackWarning,
    ShardError,
    analyze_logs,
    build_scenario,
    child_seed,
    plan_shards,
    run_sharded,
    simulate_into,
    simulate_to_logs,
)
from repro.pipeline import (
    GroupedElffSink,
    RecordListSink,
    StreamingAnalysisSink,
    temporary_spool,
)
from repro.engine import pool as pool_module
from repro.engine import simulate as simulate_module
from repro.logmodel.elff import write_log
from repro.logmodel.fields import FIELDS
from repro.workload.config import ScenarioConfig, small_config
from tests.helpers import day_records, make_record

#: Tiny but multi-day scenario used by the determinism tests.
TINY = small_config(6_000, seed=5)


# -- module-level worker functions (must be picklable) ----------------------

def _square(value):
    return value * value


def _fail_on_three(value):
    if value == 3:
        raise ValueError("boom on three")
    return value


def _exit_unless_pid(parent_pid):
    # Dies hard only inside a pool worker; the serial fallback (which
    # runs in the parent) computes normally.
    if os.getpid() != parent_pid:
        os._exit(13)
    return parent_pid * 2


def _fail_then_kill_then_fail(payload):
    # Scripted failure ladder for the fallback-forensics test: in a
    # worker, raise an ordinary error on the first attempt and kill the
    # process on the retry (breaking the pool); in the parent's serial
    # re-run, fail with a *different* error.
    role, parent_pid, marker = payload
    if role == "calm":
        return "ok"
    if os.getpid() == parent_pid:
        raise RuntimeError("serial re-run boom")
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise ValueError("original boom")
    os._exit(13)


# -- shard planning ----------------------------------------------------------

class TestShardPlanning:
    def test_one_shard_per_day_in_order(self):
        plan = plan_shards(TINY)
        assert [shard.day for shard in plan.shards] == list(TINY.days)
        assert [shard.index for shard in plan.shards] == list(
            range(len(TINY.days))
        )

    def test_seeds_are_spawned_children_of_the_scenario_seed(self):
        plan = plan_shards(TINY)
        spawn_keys = [shard.seed.spawn_key for shard in plan.shards]
        assert spawn_keys == [(i,) for i in range(len(TINY.days))]
        assert all(
            shard.seed.entropy == TINY.seed for shard in plan.shards
        )
        # the sampling seed is the extra trailing child
        assert plan.sampling_seed.spawn_key == (len(TINY.days),)

    def test_planning_is_deterministic(self):
        first, second = plan_shards(TINY), plan_shards(TINY)
        for a, b in zip(first.shards, second.shards):
            assert (a.day, a.seed.entropy, a.seed.spawn_key) == (
                b.day, b.seed.entropy, b.seed.spawn_key
            )

    def test_child_seed_is_stateless(self):
        seed = plan_shards(TINY).shards[0].seed
        before = seed.n_children_spawned
        first = child_seed(seed, 0)
        second = child_seed(seed, 0)
        assert first.spawn_key == second.spawn_key == (0, 0)
        assert seed.n_children_spawned == before
        # matches what an actual spawn would have produced
        assert np.random.default_rng(first).integers(1 << 30) == (
            np.random.default_rng(
                np.random.SeedSequence(TINY.seed).spawn(1)[0].spawn(1)[0]
            ).integers(1 << 30)
        )


# -- the pool layer ----------------------------------------------------------

class TestRunSharded:
    def test_serial_preserves_order(self):
        assert run_sharded(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        values = list(range(10))
        assert run_sharded(_square, values, workers=4) == [
            v * v for v in values
        ]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            run_sharded(_square, [1], workers=0)

    def test_worker_exception_carries_shard_id(self):
        with pytest.raises(ShardError, match="day:x") as excinfo:
            run_sharded(
                _fail_on_three, [1, 2, 3], workers=2,
                labels=["day:v", "day:w", "day:x"],
            )
        assert excinfo.value.shard_id == "day:x"
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "boom on three" in str(excinfo.value)

    def test_serial_exception_carries_shard_id(self):
        with pytest.raises(ShardError) as excinfo:
            run_sharded(_fail_on_three, [3], workers=1)
        assert excinfo.value.shard_id == "shard-0"

    def test_pool_creation_failure_falls_back_to_serial(self, monkeypatch):
        def broken_factory(workers):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(pool_module, "_make_executor", broken_factory)
        with pytest.warns(EngineFallbackWarning, match="falling back"):
            results = run_sharded(_square, [1, 2, 3], workers=4)
        assert results == [1, 4, 9]

    def test_broken_pool_falls_back_to_serial(self):
        """A worker killed mid-run (os._exit) breaks the pool; the
        engine recomputes every shard serially instead of dying."""
        pid = os.getpid()
        with pytest.warns(EngineFallbackWarning, match="pool broke"):
            results = run_sharded(_exit_unless_pid, [pid, pid], workers=2)
        assert results == [pid * 2, pid * 2]

    def test_fallback_reraises_the_original_shard_error(self, tmp_path):
        """Regression: when the pool breaks and the serial re-run of a
        shard *also* fails, the ShardError must surface the original
        pool-run exception (with the shard id), not just the re-run's
        error — which stays chained as ``__cause__`` for forensics."""
        from repro.engine import RetryPolicy

        marker = str(tmp_path / "attempted-once")
        payloads = [
            ("wild", os.getpid(), marker),
            ("calm", os.getpid(), marker),
        ]
        with pytest.warns(EngineFallbackWarning, match="pool broke"):
            with pytest.raises(ShardError) as excinfo:
                run_sharded(
                    _fail_then_kill_then_fail, payloads, workers=2,
                    labels=["day:wild", "day:calm"],
                    retry=RetryPolicy(max_retries=1, backoff_base=0.0),
                )
        assert excinfo.value.shard_id == "day:wild"
        assert isinstance(excinfo.value.error, ValueError)
        assert "original boom" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "serial re-run boom" in str(excinfo.value.__cause__)


# -- simulation determinism --------------------------------------------------

def _write_records(records, out_dir, **grouping):
    """Write a materialized record list as ELFF files: the list-shaped
    reference the fused simulate-and-write pass must match."""
    with temporary_spool(out_dir) as spool:
        sink = GroupedElffSink(spool, **grouping)
        sink.consume(records)
        return sink.write_dir(out_dir)


class TestSimulationDeterminism:
    def test_day_records_identical_across_worker_counts(self):
        serial = day_records(TINY, workers=1)
        parallel = day_records(TINY, workers=3)
        assert list(serial) == list(parallel) == list(TINY.days)
        for day in serial:
            assert serial[day] == parallel[day]

    def test_breakdown_identical_across_worker_counts(self):
        serial = day_records(TINY, workers=1)
        parallel = day_records(TINY, workers=2)
        fold = lambda days: StreamingAnalysis().consume(
            record for records in days.values() for record in records
        )
        assert fold(serial) == fold(parallel)

    def test_shard_failure_names_the_day(self, monkeypatch):
        def broken_shard(payload, batch_size):
            raise RuntimeError("shard exploded")

        monkeypatch.setattr(
            simulate_module, "simulate_sink_shard", broken_shard
        )
        with pytest.raises(ShardError) as excinfo:
            day_records(TINY, workers=1)
        assert excinfo.value.shard_id == f"day:{TINY.days[0]}"

    def test_build_scenario_identical_across_worker_counts(self):
        serial = build_scenario(TINY, workers=1)
        parallel = build_scenario(TINY, workers=2)
        assert serial.records_by_day == parallel.records_by_day
        assert serial.summary() == parallel.summary()
        for column in ("epoch", "cs_host", "x_exception_id", "c_ip"):
            assert np.array_equal(
                serial.full.col(column), parallel.full.col(column)
            )
            assert np.array_equal(
                serial.sample.col(column), parallel.sample.col(column)
            )

    def test_cli_simulate_byte_identical_50k(self, tmp_path):
        """The acceptance check: `repro simulate --requests 50000
        --seed 2011 --workers 4` writes byte-identical output to
        `--workers 1`."""
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        for out, workers in ((serial_dir, "1"), (parallel_dir, "4")):
            assert main([
                "simulate", "--requests", "50000", "--seed", "2011",
                "--out", str(out), "--workers", workers,
            ]) == 0
        serial_bytes = (serial_dir / "proxies.log").read_bytes()
        parallel_bytes = (parallel_dir / "proxies.log").read_bytes()
        assert serial_bytes == parallel_bytes

    def test_fused_simulate_to_logs_matches_legacy_two_step(self, tmp_path):
        """The fused pass (records never materialized) must write the
        exact bytes of simulating a record list and then writing it, in
        every grouping, at every worker count."""
        records, _ = simulate_into(TINY, RecordListSink(), workers=1)
        legacy_dir = tmp_path / "legacy"
        _write_records(
            records.records, legacy_dir, per_proxy=True, per_day=True
        )
        for workers in (1, 3):
            fused_dir = tmp_path / f"fused-{workers}"
            written = simulate_to_logs(
                TINY, fused_dir, per_proxy=True, per_day=True,
                workers=workers,
            )
            assert sorted(path.name for path, _ in written) == sorted(
                path.name for path in legacy_dir.iterdir()
            )
            for path, _ in written:
                assert path.read_bytes() == (
                    legacy_dir / path.name
                ).read_bytes(), path.name

    def test_fused_combined_output_matches_legacy(self, tmp_path):
        records, _ = simulate_into(TINY, RecordListSink(), workers=1)
        _write_records(records.records, tmp_path / "legacy")
        simulate_to_logs(TINY, tmp_path / "fused", workers=2)
        assert (tmp_path / "fused" / "proxies.log").read_bytes() == (
            tmp_path / "legacy" / "proxies.log"
        ).read_bytes()

    def test_compressed_logs_identical_across_worker_counts(self, tmp_path):
        import gzip

        for workers in (1, 3):
            simulate_to_logs(
                TINY, tmp_path / str(workers), compress=True, workers=workers
            )
        serial = (tmp_path / "1" / "proxies.log.gz").read_bytes()
        parallel = (tmp_path / "3" / "proxies.log.gz").read_bytes()
        assert serial == parallel
        # and the payload is the plain-file bytes
        simulate_to_logs(TINY, tmp_path / "plain", workers=1)
        assert gzip.decompress(serial) == (
            tmp_path / "plain" / "proxies.log"
        ).read_bytes()

    def test_simulate_into_streaming_matches_record_pass(self):
        """Fusing the analysis onto simulation (the single-pass report
        path) equals analyzing the materialized records."""
        reference = StreamingAnalysis().consume(
            record
            for records in day_records(TINY, workers=1).values()
            for record in records
        )
        for workers in (1, 2):
            sink, by_day = simulate_into(
                TINY, StreamingAnalysisSink(), workers=workers
            )
            assert sink.analysis == reference
            assert sum(by_day.values()) == reference.total

    def test_log_grouping_matches_leak_structure(self, tmp_path):
        days = day_records(TINY, workers=1)
        written = simulate_to_logs(
            TINY, tmp_path, per_proxy=True, per_day=True
        )
        names = {path.name for path, _ in written}
        assert "sg-42_2011-07-22.log" in names
        # July days exist only for SG-42, like the leak
        assert not any(
            name.startswith("sg-43_2011-07") for name in names
        )
        assert sum(count for _, count in written) == sum(
            len(records) for records in days.values()
        )


# -- parallel analysis -------------------------------------------------------

class TestAnalyzeEngine:
    @pytest.fixture(scope="class")
    def log_paths(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("engine-logs")
        return [path for path, _ in simulate_to_logs(TINY, out, per_day=True)]

    def test_parallel_matches_serial(self, log_paths):
        serial, serial_stats = analyze_logs(log_paths, workers=1)
        parallel, parallel_stats = analyze_logs(log_paths, workers=3)
        assert serial == parallel
        assert serial.breakdown() == parallel.breakdown()
        assert serial_stats.records == parallel_stats.records
        assert serial_stats.skipped == parallel_stats.skipped == 0

    def test_matches_single_accumulator_pass(self, log_paths):
        from repro.logmodel.elff import read_log

        single = StreamingAnalysis()
        for path in log_paths:
            single.consume(read_log(path, lenient=True))
        merged, _ = analyze_logs(log_paths, workers=2)
        assert merged == single
        assert merged.top_censored(10) == single.top_censored(10)
        assert merged.day_volumes == single.day_volumes

    def test_degenerate_files_parallel_equals_serial(self, tmp_path):
        """Empty, header-only, truncated, and mixed-directive files:
        the parallel reader must not differ from serial on any."""
        empty = tmp_path / "empty.log"
        empty.write_text("")
        header_only = tmp_path / "header.log"
        write_log([], header_only)
        truncated = tmp_path / "truncated.log"
        write_log([make_record(), make_record()], truncated)
        truncated.write_text(
            truncated.read_text()[: -40]  # cut the last line mid-row
        )
        mixed = tmp_path / "mixed.log"
        write_log([make_record(), make_record()], mixed)
        text = mixed.read_text().splitlines(keepends=True)
        text.insert(4, "#Date: 2011-08-03 10:00:00\n")
        text.insert(5, f"#Fields: {' '.join(FIELDS)}\n")
        mixed.write_text("".join(text))

        paths = [empty, header_only, truncated, mixed]
        serial, serial_stats = analyze_logs(paths, workers=1)
        parallel, parallel_stats = analyze_logs(paths, workers=2)
        assert serial == parallel
        assert serial_stats.records == parallel_stats.records == 3
        # The mid-row cut leaves a torn final line: left unread for a
        # tailer to finish, not counted as malformed.
        assert serial_stats.skipped == parallel_stats.skipped == 0
        assert serial_stats.incomplete_tail == 1
        assert parallel_stats.incomplete_tail == 1
        assert serial.total == 3
