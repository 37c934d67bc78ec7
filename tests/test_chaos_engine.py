"""Chaos tests: the engine under an active fault plan.

Two invariants make the resilience layer trustworthy, and this module
pins both:

* **retry transparency** — with a retry budget that covers the
  transient faults, output is byte-identical to the fault-free run at
  every worker count (retried shards replay the same record stream, so
  injection leaves no fingerprint);
* **quarantine equivalence** — with ``allow_partial=True``, the merged
  result of a faulted run equals the fault-free result restricted to
  the surviving shards (quarantined shards never merge, and the
  :class:`~repro.faults.ShardFailure` report names exactly the shards
  the plan killed).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.engine import (
    RetryPolicy,
    ShardError,
    analyze_logs,
    run_sharded,
    simulate_to_logs,
)
from repro.faults import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    ShardFailureReport,
    parse_fault_plan,
)
from repro.metrics import METRICS_SCHEMA, MetricsRegistry
from repro.workload.config import ScenarioConfig, small_config
from tests.helpers import day_records

#: Same tiny scenario as test_engine, so the cached per-process
#: scenario context is shared across the two modules.
TINY = small_config(6_000, seed=5)

#: Retry budget used throughout: enough retries, no backoff sleeps.
FAST = RetryPolicy(max_retries=2, backoff_base=0.0)

#: Every shard suffers one transient failure on its first attempt.
NOISY = FaultPlan(seed=1, rate=1.0, rate_attempts=1)


def _crash_plan(shard_id: str) -> FaultPlan:
    """A plan that permanently kills exactly one shard."""
    return FaultPlan(rules=(
        FaultRule(site="shard.start", kind="crash", shard_id=shard_id),
    ))


# -- invariant 1: retries leave no fingerprint -------------------------------

class TestRetryTransparency:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_day_records_identical_to_fault_free(self, workers):
        clean = day_records(TINY, workers=1)
        noisy = day_records(
            TINY, workers=workers, retry=FAST, fault_plan=NOISY
        )
        assert noisy == clean

    @pytest.mark.chaos
    @pytest.mark.parametrize("workers", [1, 2])
    def test_log_bytes_identical_to_fault_free(self, tmp_path, workers):
        simulate_to_logs(TINY, tmp_path / "clean", compress=True)
        simulate_to_logs(
            TINY, tmp_path / f"noisy-{workers}", compress=True,
            workers=workers, retry=FAST, fault_plan=NOISY,
        )
        assert (
            tmp_path / f"noisy-{workers}" / "proxies.log.gz"
        ).read_bytes() == (tmp_path / "clean" / "proxies.log.gz").read_bytes()

    def test_explicit_transient_rule_heals_within_budget(self):
        plan = FaultPlan(rules=(
            FaultRule(site="shard.start", fail_attempts=2),
        ))
        clean = day_records(TINY, workers=1)
        assert day_records(
            TINY, workers=1, retry=FAST, fault_plan=plan
        ) == clean

    def test_deep_site_faults_recover_in_analyze(self, tmp_path):
        """Transient faults at the reader sites (inside the shard, not
        at its entry) are retried with the same result."""
        paths = [
            path for path, _ in
            simulate_to_logs(TINY, tmp_path, per_day=True)
        ]
        clean = analyze_logs(paths, workers=1)
        for site in ("elff.source", "gzip.open", "elff.read"):
            noisy = analyze_logs(
                paths, workers=1, retry=FAST,
                fault_plan=FaultPlan(seed=2, rate=1.0, rate_site=site),
            )
            assert noisy == clean, site

    def test_retry_counter_counts_the_injections(self):
        metrics = MetricsRegistry()
        day_records(
            TINY, workers=1, retry=FAST, fault_plan=NOISY,
            metrics=metrics,
        )
        assert metrics.counters["engine.shard_retries"] == len(TINY.days)
        assert "engine.shards.quarantined" not in metrics.counters


# -- invariant 2: quarantine equals the surviving-shard run ------------------

class TestQuarantineEquivalence:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_day_is_absent_and_rest_identical(self, workers):
        clean = day_records(TINY, workers=1)
        victim = TINY.days[1]
        failures = ShardFailureReport()
        partial = day_records(
            TINY, workers=workers, retry=FAST,
            fault_plan=_crash_plan(f"day:{victim}"),
            allow_partial=True, failures=failures,
        )
        expected = {
            day: records for day, records in clean.items()
            if day != victim
        }
        assert partial == expected
        assert failures.shard_ids() == [f"day:{victim}"]

    def test_failure_record_names_site_attempts_and_error(self):
        victim = TINY.days[0]
        failures = ShardFailureReport()
        day_records(
            TINY, workers=1, retry=FAST,
            fault_plan=_crash_plan(f"day:{victim}"),
            allow_partial=True, failures=failures,
        )
        (failure,) = failures
        assert failure.shard_id == f"day:{victim}"
        assert failure.site == "shard.start"
        assert failure.attempts == FAST.max_retries + 1
        assert "InjectedCrash" in failure.error

    def test_analyze_quarantine_equals_survivor_run(self, tmp_path):
        paths = [
            path for path, _ in
            simulate_to_logs(TINY, tmp_path, per_day=True)
        ]
        victim = paths[1]
        failures = ShardFailureReport()
        partial = analyze_logs(
            paths, workers=1, retry=FAST,
            fault_plan=_crash_plan(f"log:{victim.name}"),
            allow_partial=True, failures=failures,
        )
        survivors = analyze_logs(
            [path for path in paths if path != victim], workers=1
        )
        assert partial == survivors
        assert failures.shard_ids() == [f"log:{victim.name}"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strict_mode_still_raises_shard_error(self, workers):
        victim = TINY.days[1]
        with pytest.raises(ShardError) as excinfo:
            day_records(
                TINY, workers=workers, retry=FAST,
                fault_plan=_crash_plan(f"day:{victim}"),
            )
        assert excinfo.value.shard_id == f"day:{victim}"
        assert isinstance(excinfo.value.error, InjectedCrash)

    def test_transient_outlasting_budget_is_quarantined(self):
        plan = FaultPlan(rules=(
            FaultRule(site="shard.start", shard_id="day:" + TINY.days[0],
                      fail_attempts=99),
        ))
        failures = ShardFailureReport()
        partial = day_records(
            TINY, workers=1,
            retry=RetryPolicy(max_retries=1, backoff_base=0.0),
            fault_plan=plan, allow_partial=True, failures=failures,
        )
        assert TINY.days[0] not in partial
        (failure,) = failures
        assert failure.attempts == 2

    def test_metrics_carries_the_failures(self):
        metrics = MetricsRegistry()
        day_records(
            TINY, workers=1, retry=FAST,
            fault_plan=_crash_plan(f"day:{TINY.days[2]}"),
            allow_partial=True, metrics=metrics,
        )
        assert metrics.counters["engine.shards.quarantined"] == 1
        assert [f.shard_id for f in metrics.failures] == [
            f"day:{TINY.days[2]}"
        ]
        assert metrics.to_dict()["failures"][0]["site"] == "shard.start"


# -- timeouts ----------------------------------------------------------------

def _sleepy(seconds):
    import time
    time.sleep(seconds)
    return seconds


@pytest.mark.chaos
class TestShardTimeouts:
    def test_slow_shard_times_out_and_recovers_on_retry(self):
        """A slow fault on the first attempt trips the per-shard
        timeout; the retried attempt runs clean and the result is
        fault-free."""
        plan = FaultPlan(rules=(
            FaultRule(site="shard.start", kind="slow", shard_id="shard-1",
                      delay_seconds=5.0, fail_attempts=1),
        ))
        results = run_sharded(
            _sleepy, [0.01, 0.01], workers=2,
            retry=RetryPolicy(
                max_retries=1, backoff_base=0.0, timeout=1.0
            ),
            fault_plan=plan,
        )
        assert results == [0.01, 0.01]

    def test_persistently_slow_shard_is_quarantined(self):
        plan = FaultPlan(rules=(
            FaultRule(site="shard.start", kind="slow", shard_id="shard-1",
                      delay_seconds=5.0, fail_attempts=99),
        ))
        failures = ShardFailureReport()
        results = run_sharded(
            _sleepy, [0.01, 0.01], workers=2,
            retry=RetryPolicy(
                max_retries=0, backoff_base=0.0, timeout=0.5
            ),
            fault_plan=plan, strict=False, failures=failures,
        )
        assert results == [0.01, None]
        (failure,) = failures
        assert failure.shard_id == "shard-1"
        assert failure.site == "timeout"


# -- the CLI under REPRO_FAULT_PLAN ------------------------------------------

class TestCliChaos:
    @pytest.mark.chaos
    def test_simulate_byte_identical_under_env_plan(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert main([
            "simulate", "--requests", "20000", "--out",
            str(tmp_path / "clean"),
        ]) == 0
        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=1,rate=1.0")
        monkeypatch.setenv("REPRO_MAX_SHARD_RETRIES", "2")
        assert main([
            "simulate", "--requests", "20000", "--out",
            str(tmp_path / "noisy"), "--workers", "2",
            "--metrics", str(tmp_path / "metrics.json"),
        ]) == 0
        assert (tmp_path / "noisy" / "proxies.log").read_bytes() == (
            tmp_path / "clean" / "proxies.log"
        ).read_bytes()
        document = json.loads((tmp_path / "metrics.json").read_text())
        assert document["schema"] == METRICS_SCHEMA
        assert document["counters"]["engine.shard_retries"] >= 1
        assert document["failures"] == []
        assert document["totals"]["quarantined_shards"] == 0

    def test_allow_partial_reports_quarantined_days(
        self, tmp_path, monkeypatch, capsys
    ):
        """End-to-end partial mode: the env plan permanently kills a
        deterministic subset of days; the CLI succeeds, lists them on
        stdout, and the metrics JSON carries the failure records."""
        spec = "seed=5,rate=0.5,attempts=99"
        config = ScenarioConfig(total_requests=20_000, seed=2011)
        plan = parse_fault_plan(spec)
        doomed = [
            f"day:{day}" for day in config.days
            if plan.roll("shard.start", f"day:{day}") < plan.rate
        ]
        assert 0 < len(doomed) < len(config.days)  # test is meaningful
        monkeypatch.setenv("REPRO_FAULT_PLAN", spec)
        assert main([
            "simulate", "--requests", "20000", "--out", str(tmp_path),
            "--max-shard-retries", "0", "--allow-partial",
            "--metrics", str(tmp_path / "metrics.json"),
        ]) == 0
        out = capsys.readouterr().out
        for shard_id in doomed:
            assert f"quarantined {shard_id}" in out
        document = json.loads((tmp_path / "metrics.json").read_text())
        assert [f["shard_id"] for f in document["failures"]] == doomed
        assert document["totals"]["quarantined_shards"] == len(doomed)
        assert (tmp_path / "proxies.log").exists()

    def test_strict_cli_fails_on_unrecoverable_fault(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=5,rate=0.5,attempts=99")
        with pytest.raises(ShardError):
            main([
                "simulate", "--requests", "20000",
                "--out", str(tmp_path), "--max-shard-retries", "0",
            ])


# -- the batched path under the same fault plans -----------------------------

class TestBatchedChaosEquivalence:
    """Column-batch execution must be invisible to the resilience
    layer: under any fault plan, a batched run lands byte- and
    state-identical to the scalar run under the same plan."""

    @pytest.mark.chaos
    @pytest.mark.parametrize("workers", [1, 2])
    def test_batched_log_bytes_identical_under_faults(
        self, tmp_path, workers
    ):
        simulate_to_logs(TINY, tmp_path / "clean")
        simulate_to_logs(
            TINY, tmp_path / "noisy", workers=workers,
            retry=FAST, fault_plan=NOISY, batch_size=64,
        )
        assert (tmp_path / "noisy" / "proxies.log").read_bytes() == (
            tmp_path / "clean" / "proxies.log"
        ).read_bytes()

    def test_batched_analyze_quarantine_equals_scalar(self, tmp_path):
        paths = [
            path for path, _ in
            simulate_to_logs(TINY, tmp_path, per_day=True)
        ]
        plan = _crash_plan(f"log:{paths[1].name}")
        scalar_failures = ShardFailureReport()
        scalar = analyze_logs(
            paths, workers=1, retry=FAST, fault_plan=plan,
            allow_partial=True, failures=scalar_failures,
        )
        batched_failures = ShardFailureReport()
        batched = analyze_logs(
            paths, workers=1, retry=FAST, fault_plan=plan,
            allow_partial=True, failures=batched_failures,
            batch_size=64,
        )
        assert batched == scalar
        assert batched_failures.shard_ids() == scalar_failures.shard_ids()

    @pytest.mark.chaos
    def test_cli_env_plan_with_batch_size_byte_identical(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert main([
            "simulate", "--requests", "20000", "--out",
            str(tmp_path / "clean"),
        ]) == 0
        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=1,rate=1.0")
        monkeypatch.setenv("REPRO_MAX_SHARD_RETRIES", "2")
        assert main([
            "simulate", "--requests", "20000", "--out",
            str(tmp_path / "noisy"), "--workers", "2",
            "--batch-size", "64",
        ]) == 0
        assert (tmp_path / "noisy" / "proxies.log").read_bytes() == (
            tmp_path / "clean" / "proxies.log"
        ).read_bytes()

    @pytest.mark.chaos
    def test_interrupted_scalar_run_resumes_batched(
        self, tmp_path, monkeypatch
    ):
        """A run killed mid-way at the default batch size resumes at
        another batch size against the same ledger, and the stitched
        output is identical to an uninterrupted fault-free run."""
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert main([
            "simulate", "--requests", "20000", "--out",
            str(tmp_path / "clean"),
        ]) == 0
        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=5,rate=0.5,attempts=99")
        with pytest.raises(ShardError):
            main([
                "simulate", "--requests", "20000", "--out",
                str(tmp_path / "dead"), "--max-shard-retries", "0",
                "--checkpoint-dir", str(tmp_path / "ledger"),
            ])
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert main([
            "simulate", "--requests", "20000", "--out",
            str(tmp_path / "resumed"), "--batch-size", "64",
            "--checkpoint-dir", str(tmp_path / "ledger"), "--resume",
        ]) == 0
        assert (tmp_path / "resumed" / "proxies.log").read_bytes() == (
            tmp_path / "clean" / "proxies.log"
        ).read_bytes()


# -- lazy sources: faults and open errors fire at read time ------------------

class TestLazyElffSource:
    """``ElffSource`` must not fire its fault site — or surface
    file-open errors — at iterator construction.  Sources are cheap
    descriptions the service pre-builds long before draining them, so
    both belong to the first ``next()``, inside whatever fault context
    and error handling surround the actual read."""

    PLAN = FaultPlan(seed=3, rate=1.0, rate_site="elff.source")

    def _log(self, tmp_path):
        from repro.logmodel.elff import write_log
        from tests.helpers import make_record

        path = tmp_path / "lazy.log"
        write_log([make_record()], path)
        return path

    def test_scalar_fault_fires_at_first_next(self, tmp_path):
        from repro.faults import InjectedFault, use_fault_plan
        from repro.pipeline import ElffSource

        path = self._log(tmp_path)
        with use_fault_plan(self.PLAN, shard_id="log:lazy.log"):
            iterator = iter(ElffSource(path))  # no fault yet
            with pytest.raises(InjectedFault):
                next(iterator)

    def test_batched_fault_fires_at_first_next(self, tmp_path):
        from repro.faults import InjectedFault, use_fault_plan
        from repro.pipeline import ElffSource

        path = self._log(tmp_path)
        with use_fault_plan(self.PLAN, shard_id="log:lazy.log"):
            batches = ElffSource(path).iter_batches(8)  # no fault yet
            with pytest.raises(InjectedFault):
                next(batches)

    def test_missing_file_errors_at_first_next(self, tmp_path):
        from repro.pipeline import ElffSource

        source = ElffSource(tmp_path / "not-yet-written.log")
        iterator = iter(source)  # constructing and iter() both fine
        batches = source.iter_batches(8)
        with pytest.raises(FileNotFoundError):
            next(iterator)
        with pytest.raises(FileNotFoundError):
            next(batches)


# -- regime profiles under the same fault plans ------------------------------

class TestRegimeChaosParity:
    """The resilience layer is regime-agnostic: the Pakistani profile
    heals transient faults and resumes exactly like the Syrian one."""

    PK = dataclasses.replace(TINY, regime="pakistan")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pakistan_day_records_identical_under_faults(self, workers):
        clean = day_records(self.PK, workers=1)
        noisy = day_records(
            self.PK, workers=workers, retry=FAST, fault_plan=NOISY
        )
        assert noisy == clean

    @pytest.mark.chaos
    def test_pakistan_cli_byte_identical_under_env_plan(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert main([
            "simulate", "--requests", "6000", "--seed", "5",
            "--regime", "pakistan", "--out", str(tmp_path / "clean"),
        ]) == 0
        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=1,rate=1.0")
        monkeypatch.setenv("REPRO_MAX_SHARD_RETRIES", "2")
        assert main([
            "simulate", "--requests", "6000", "--seed", "5",
            "--regime", "pakistan", "--out", str(tmp_path / "noisy"),
            "--workers", "2", "--batch-size", "64",
        ]) == 0
        assert (tmp_path / "noisy" / "proxies.log").read_bytes() == (
            tmp_path / "clean" / "proxies.log"
        ).read_bytes()

    def test_pakistan_quarantine_names_the_killed_day(self):
        victim = self.PK.days[1]
        failures = ShardFailureReport()
        partial = day_records(
            self.PK, workers=1, retry=FAST,
            fault_plan=_crash_plan(f"day:{victim}"),
            allow_partial=True, failures=failures,
        )
        assert victim not in partial
        assert failures.shard_ids() == [f"day:{victim}"]
