"""Tests for the lease-based distributed work queue (repro.dispatch).

The load-bearing invariants:

* a lease can be claimed by exactly one worker (``O_EXCL``), and an
  expired lease is reclaimed by exactly one contender (tomb rename);
* attempts are derived from the durable grant history, so a reclaimed
  shard re-runs with an incremented attempt no matter which process
  wins the re-claim;
* a distributed run's merged output is byte-identical to a single-box
  serial run, at every worker count and under worker churn (a real
  SIGKILL mid-shard, recovered via lease reclaim);
* lease lifecycle counters (grant/renew/expire/reclaim/requeue) land
  in the metrics registry of a coordinated run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.dispatch import (
    DispatchError,
    LeaseLost,
    QueueMismatch,
    SimulateJob,
    WorkQueue,
    config_from_spec,
    heartbeat_interval_from_env,
    job_from_spec,
    lease_ttl_from_env,
    run_distributed,
    run_worker,
    simulate_job_for,
)
from repro.engine.simulate import simulate_to_logs
from repro.metrics import MetricsRegistry
from repro.workload import ScenarioConfig


def small_job(tmp_path: Path, out: str = "out", **overrides) -> SimulateJob:
    config = ScenarioConfig(
        total_requests=overrides.pop("total_requests", 300),
        seed=overrides.pop("seed", 11),
        days=overrides.pop("days", ("2011-08-03", "2011-08-04")),
    )
    return simulate_job_for(config, tmp_path / out, **overrides)


def seeded_queue(tmp_path: Path, worker_id: str = "w0",
                 ttl: float = 30.0) -> WorkQueue:
    queue = WorkQueue(tmp_path / "run", worker_id=worker_id)
    job = small_job(tmp_path)
    queue.seed(job.to_spec(), ttl=ttl)
    return queue


# -- lease mechanics ---------------------------------------------------------

class TestLeases:
    def test_claim_is_single_winner(self, tmp_path):
        a = seeded_queue(tmp_path, "a")
        b = WorkQueue(tmp_path / "run", worker_id="b")
        lease = a.try_claim("day:2011-08-03")
        assert lease is not None and lease.worker == "a"
        assert b.try_claim("day:2011-08-03") is None

    def test_renew_pushes_deadline(self, tmp_path):
        queue = seeded_queue(tmp_path, ttl=30.0)
        lease = queue.try_claim("s1")
        renewed = queue.renew(lease)
        assert renewed.deadline >= lease.deadline
        on_disk = queue.read_lease("s1")
        assert on_disk.deadline == renewed.deadline

    def test_renew_after_reclaim_raises_lease_lost(self, tmp_path):
        mine = seeded_queue(tmp_path, "mine", ttl=0.05)
        lease = mine.try_claim("s1")
        time.sleep(0.06)
        thief = WorkQueue(tmp_path / "run", worker_id="thief")
        assert thief.reclaim_expired("s1")
        assert thief.try_claim("s1", attempt=1) is not None
        with pytest.raises(LeaseLost, match="thief"):
            mine.renew(lease)

    def test_release_completed_and_requeue_events(self, tmp_path):
        queue = seeded_queue(tmp_path)
        assert queue.release(queue.try_claim("s1"), completed=True)
        assert queue.release(queue.try_claim("s2"), completed=False)
        counters = queue.event_counters()
        assert counters["dispatch.shards.completed"] == 1
        assert counters["dispatch.shards.requeued"] == 1

    def test_release_of_stolen_lease_is_a_noop(self, tmp_path):
        mine = seeded_queue(tmp_path, "mine", ttl=0.05)
        lease = mine.try_claim("s1")
        time.sleep(0.06)
        thief = WorkQueue(tmp_path / "run", worker_id="thief")
        thief.reclaim_expired("s1")
        stolen = thief.try_claim("s1", attempt=1)
        assert mine.release(lease) is False
        # The thief's lease survived the attempted release.
        assert thief.read_lease("s1").worker == "thief"
        assert stolen is not None

    def test_live_lease_is_not_reclaimable(self, tmp_path):
        queue = seeded_queue(tmp_path, ttl=30.0)
        queue.try_claim("s1")
        assert queue.reclaim_expired("s1") is False

    def test_reclaim_race_has_one_winner(self, tmp_path):
        """Many threads spot the same expired lease; the tomb rename
        hands it to exactly one, so expire/reclaim events stay 1:1
        with incarnations."""
        queue = seeded_queue(tmp_path, ttl=0.01)
        queue.try_claim("s1")
        time.sleep(0.02)
        contenders = [
            WorkQueue(tmp_path / "run", worker_id=f"c{i}") for i in range(8)
        ]
        barrier = threading.Barrier(len(contenders))
        wins = []

        def contend(contender):
            barrier.wait()
            if contender.reclaim_expired("s1"):
                wins.append(contender.worker_id)

        threads = [
            threading.Thread(target=contend, args=(c,)) for c in contenders
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        counters = queue.event_counters()
        assert counters["dispatch.lease.expired"] == 1
        assert counters["dispatch.lease.reclaimed"] == 1

    def test_unparseable_lease_ages_out(self, tmp_path):
        """A claimant killed between O_EXCL create and write leaves an
        empty lease file; it must age out, not wedge the shard."""
        queue = seeded_queue(tmp_path, ttl=0.05)
        queue.lease_path("s1").touch()
        lease = queue.read_lease("s1")
        assert lease.worker == "?"
        assert not lease.expired(lease.granted_at)
        time.sleep(0.06)
        assert queue.reclaim_expired("s1")
        assert queue.try_claim("s1", attempt=1) is not None

    def test_claim_next_increments_attempt_after_reclaim(self, tmp_path):
        queue = seeded_queue(tmp_path, ttl=0.05)
        first = queue.claim_next(["s1", "s2"])
        assert (first.shard_id, first.attempt) == ("s1", 0)
        time.sleep(0.06)
        second = queue.claim_next(["s1", "s2"])
        assert (second.shard_id, second.attempt) == ("s1", 1)
        third = queue.claim_next(["s2"])
        assert (third.shard_id, third.attempt) == ("s2", 0)

    def test_claim_next_takes_one_shard_and_skips_live_leases(
        self, tmp_path
    ):
        queue = seeded_queue(tmp_path)
        claimed = [queue.claim_next(["s1", "s2"]) for _ in range(3)]
        assert [lease and lease.shard_id for lease in claimed] == [
            "s1", "s2", None
        ]

    def test_event_log_survives_torn_lines(self, tmp_path):
        queue = seeded_queue(tmp_path)
        queue.try_claim("s1")
        with queue.events_path.open("a") as handle:
            handle.write('{"event": "grant", "shard_id": "torn')
        assert queue.event_counters()["dispatch.lease.granted"] == 1


# -- queue manifest ----------------------------------------------------------

class TestQueueManifest:
    def test_reseed_without_resume_refused(self, tmp_path):
        queue = seeded_queue(tmp_path)
        with pytest.raises(DispatchError, match="--resume"):
            queue.seed(small_job(tmp_path).to_spec(), ttl=30.0)

    def test_reseed_with_different_job_refused(self, tmp_path):
        queue = seeded_queue(tmp_path)
        other = small_job(tmp_path, seed=99)
        with pytest.raises(QueueMismatch, match="different job"):
            queue.seed(other.to_spec(), ttl=30.0, resume=True)

    def test_reseed_same_job_on_resume_ok(self, tmp_path):
        queue = seeded_queue(tmp_path)
        queue.seed(small_job(tmp_path).to_spec(), ttl=30.0, resume=True)

    def test_foreign_schema_refused(self, tmp_path):
        queue = seeded_queue(tmp_path)
        manifest = json.loads(queue.manifest_path.read_text())
        manifest["schema"] = "repro.dispatch/99"
        queue.manifest_path.write_text(json.dumps(manifest))
        fresh = WorkQueue(tmp_path / "run")
        with pytest.raises(QueueMismatch, match="repro.dispatch/1"):
            fresh.manifest()

    def test_wait_for_manifest_times_out(self, tmp_path):
        queue = WorkQueue(tmp_path / "empty")
        with pytest.raises(DispatchError, match="coordinator"):
            queue.wait_for_manifest(timeout=0.05, poll=0.01)

    def test_job_spec_round_trips(self, tmp_path):
        job = small_job(tmp_path, batch_size=64)
        rebuilt = job_from_spec(json.loads(json.dumps(job.to_spec())))
        assert rebuilt == job
        assert rebuilt.labels() == job.labels()
        assert rebuilt.fingerprint() == job.fingerprint()

    def test_unknown_job_kind_refused(self):
        with pytest.raises(DispatchError, match="nonsense"):
            job_from_spec({"kind": "nonsense"})

    def test_unknown_config_field_refused(self):
        with pytest.raises(DispatchError, match="warp_factor"):
            config_from_spec({"total_requests": 10, "warp_factor": 9})


# -- env knobs ---------------------------------------------------------------

class TestEnvKnobs:
    def test_ttl_default_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEASE_TTL", raising=False)
        assert lease_ttl_from_env() == 30.0
        monkeypatch.setenv("REPRO_LEASE_TTL", "2.5")
        assert lease_ttl_from_env() == 2.5

    @pytest.mark.parametrize("text", ["soon", "0", "-3"])
    def test_bad_ttl_names_variable(self, monkeypatch, text):
        monkeypatch.setenv("REPRO_LEASE_TTL", text)
        with pytest.raises(ValueError) as excinfo:
            lease_ttl_from_env()
        assert "REPRO_LEASE_TTL" in str(excinfo.value)
        assert repr(text) in str(excinfo.value)

    def test_heartbeat_interval_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT_INTERVAL", raising=False)
        assert heartbeat_interval_from_env(1.5) == 1.5
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "0.2")
        assert heartbeat_interval_from_env(1.5) == 0.2


# -- in-process distributed runs ---------------------------------------------

class TestRunDistributed:
    def _serial(self, tmp_path, job):
        return simulate_to_logs(
            job.config, tmp_path / "serial",
            per_proxy=job.per_proxy, per_day=job.per_day,
            compress=job.compress,
        )

    def _assert_identical(self, tmp_path, out="out"):
        serial = sorted((tmp_path / "serial").iterdir())
        dist = sorted((tmp_path / out).iterdir())
        assert [p.name for p in serial] == [p.name for p in dist]
        for a, b in zip(serial, dist):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_spawned_workers_match_serial_bytes(self, tmp_path):
        job = small_job(tmp_path)
        self._serial(tmp_path, job)
        metrics = MetricsRegistry()
        run = run_distributed(
            job, tmp_path / "queue", spawn=2, ttl=20.0, metrics=metrics,
            poll_interval=0.05, wait_timeout=120.0,
        )
        self._assert_identical(tmp_path)
        assert run.counters["dispatch.lease.granted"] >= len(run.labels)
        assert run.counters["dispatch.shards.completed"] == len(run.labels)
        assert metrics.counters["dispatch.lease.granted"] >= len(run.labels)
        assert metrics.total_records() > 0

    def test_completion_counter_waits_for_late_complete_events(
        self, tmp_path, monkeypatch
    ):
        """The counter race behind flaky spawned-worker runs, made
        deterministic: each worker journals its shard, then appends
        the ``complete`` event only after a delay.  The coordinator
        must count every completion anyway."""
        job = small_job(tmp_path)
        release = WorkQueue.release

        def late_release(self, lease, *, completed=True):
            time.sleep(0.3)
            return release(self, lease, completed=completed)

        monkeypatch.setattr(WorkQueue, "release", late_release)
        queue_dir = tmp_path / "queue"
        worker = threading.Thread(
            target=run_worker, args=(queue_dir,),
            kwargs={"worker_id": "late", "poll_interval": 0.02,
                    "startup_timeout": 30.0},
        )
        worker.start()
        metrics = MetricsRegistry()
        try:
            run = run_distributed(
                job, queue_dir, spawn=0, ttl=20.0, metrics=metrics,
                poll_interval=0.02, wait_timeout=120.0,
            )
        finally:
            worker.join(timeout=60.0)
        assert run.counters["dispatch.shards.completed"] == len(run.labels)
        assert metrics.counters["dispatch.shards.completed"] == len(
            run.labels
        )

    def test_zero_spawn_with_inline_worker_thread(self, tmp_path):
        """--spawn 0 plus an externally run worker (here: a thread in
        this process) completes and matches serial bytes."""
        job = small_job(tmp_path)
        self._serial(tmp_path, job)
        queue_dir = tmp_path / "queue"
        worker = threading.Thread(
            target=run_worker, args=(queue_dir,),
            kwargs={"worker_id": "external", "poll_interval": 0.02,
                    "startup_timeout": 30.0},
        )
        worker.start()
        try:
            run_distributed(
                job, queue_dir, spawn=0, ttl=20.0,
                poll_interval=0.05, wait_timeout=120.0,
            )
        finally:
            worker.join(timeout=60.0)
        self._assert_identical(tmp_path)

    def test_spawn_with_a_thread_alive_at_fork(self, tmp_path, monkeypatch):
        """The status sidecar's thread is alive when the coordinator
        forks its workers.  The run completes with the serial bytes,
        and each line the coordinator printed before the fork is in
        its block-buffered stdout once: no forked child flushes a copy
        of the buffer."""
        from repro.cli import main

        simulate = ["--requests", "900", "--seed", "17"]
        assert main(["simulate", *simulate,
                     "--out", str(tmp_path / "serial")]) == 0
        stdout = tmp_path / "stdout.txt"
        with open(stdout, "w") as handle, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", handle)
            assert main([
                "run-distributed", *simulate,
                "--out", str(tmp_path / "out"),
                "--queue-dir", str(tmp_path / "queue"),
                "--spawn", "2", "--status-port", "0",
                "--poll-interval", "0.05", "--wait-timeout", "120",
            ]) == 0
        self._assert_identical(tmp_path)
        lines = stdout.read_text().splitlines()
        assert len(lines) == len(set(lines)), lines
        assert lines[0].startswith("status -> http://127.0.0.1:")
        assert lines[1].startswith("distributing 900 requests")
        assert lines[-1].startswith("leases: ")

    def test_wait_timeout_with_no_workers(self, tmp_path):
        job = small_job(tmp_path)
        with pytest.raises(DispatchError, match="pending"):
            run_distributed(
                job, tmp_path / "queue", spawn=0, ttl=20.0,
                poll_interval=0.02, wait_timeout=0.2,
            )

    def test_worker_summary_accounts_for_all_shards(self, tmp_path):
        job = small_job(tmp_path)
        queue_dir = tmp_path / "queue"
        done = {}

        def coordinate():
            done["run"] = run_distributed(
                job, queue_dir, spawn=0, ttl=20.0,
                poll_interval=0.05, wait_timeout=120.0,
            )

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()
        try:
            summary = run_worker(
                queue_dir, worker_id="solo", poll_interval=0.02,
                startup_timeout=30.0,
            )
        finally:
            coordinator.join(timeout=120.0)
        assert summary.executed == len(job.labels())
        assert sorted(summary.shards) == sorted(job.labels())
        assert summary.records > 0
        assert done["run"].labels == job.labels()


# -- the churn drill (real subprocesses, real SIGKILL) -----------------------

def _run_env(extra=None):
    import repro

    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    env.pop("REPRO_FAULT_PLAN", None)
    if extra:
        env.update(extra)
    return env


@pytest.mark.chaos
class TestWorkerChurn:
    """The acceptance scenario: 3 real workers, one SIGKILLed mid-shard
    by the ``worker.kill`` fault, and the run still completes with
    output byte-identical to a serial run."""

    SIM = ["--requests", "900", "--seed", "17"]
    KILL = "day:2011-08-01"

    def test_sigkilled_worker_is_reclaimed_byte_identical(self, tmp_path):
        serial = subprocess.run(
            [sys.executable, "-m", "repro", "simulate", *self.SIM,
             "--out", str(tmp_path / "serial")],
            env=_run_env(), capture_output=True, text=True,
        )
        assert serial.returncode == 0, serial.stderr

        coordinator = subprocess.Popen(
            [sys.executable, "-m", "repro", "run-distributed", *self.SIM,
             "--out", str(tmp_path / "dist"),
             "--queue-dir", str(tmp_path / "queue"),
             "--spawn", "0", "--lease-ttl", "2",
             "--metrics", str(tmp_path / "metrics.json")],
            env=_run_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        # Every worker runs under a plan that SIGKILLs the first
        # claimant of KILL at the worker.kill site; the reclaimed
        # attempt (attempt 1) is past fail_attempts and survives.
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "work",
                 str(tmp_path / "queue"),
                 "--worker-id", f"w{i}", "--startup-timeout", "30"],
                env=_run_env({
                    "REPRO_FAULT_PLAN":
                        f"kill={self.KILL},kill_site=worker.kill",
                }),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for i in range(3)
        ]
        exits = [worker.wait(timeout=180) for worker in workers]
        for worker in workers:
            worker.communicate()
        out, err = coordinator.communicate(timeout=180)
        assert coordinator.returncode == 0, err

        assert exits.count(-signal.SIGKILL) == 1, exits
        assert all(code in (0, -signal.SIGKILL) for code in exits), exits

        serial_files = sorted((tmp_path / "serial").iterdir())
        dist_files = sorted((tmp_path / "dist").iterdir())
        assert [p.name for p in serial_files] == \
            [p.name for p in dist_files]
        for a, b in zip(serial_files, dist_files):
            assert a.read_bytes() == b.read_bytes(), a.name

        document = json.loads((tmp_path / "metrics.json").read_text())
        counters = document["counters"]
        assert counters["dispatch.lease.reclaimed"] >= 1
        assert counters["dispatch.lease.expired"] >= 1
        assert counters["dispatch.lease.granted"] >= 10

        # The ledger a churned run leaves behind audits clean.
        verify = subprocess.run(
            [sys.executable, "-m", "repro", "verify-run",
             str(tmp_path / "queue"), "--json"],
            env=_run_env(), capture_output=True, text=True,
        )
        assert verify.returncode == 0, verify.stdout
        audit = json.loads(verify.stdout)
        assert audit["ok"] is True
        assert audit["counts"]["damaged"] == 0

    def test_forked_worker_killed_mid_shard_is_reclaimed(
        self, tmp_path, monkeypatch
    ):
        """The same fault on ``--spawn 2``: the forked worker that first
        claims KILL is SIGKILLed, the other reclaims the shard once its
        2 s lease expires, and the merged bytes are the serial ones."""
        config = ScenarioConfig(total_requests=900, seed=17)
        simulate_to_logs(config, tmp_path / "serial")
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", f"kill={self.KILL},kill_site=worker.kill"
        )
        run = run_distributed(
            simulate_job_for(config, tmp_path / "dist"), tmp_path / "queue",
            spawn=2, ttl=2.0, poll_interval=0.05, wait_timeout=120.0,
        )
        assert run.worker_exits.count(-signal.SIGKILL) == 1, run.worker_exits
        assert run.counters["dispatch.lease.reclaimed"] >= 1
        assert run.inline_shards == 0
        serial_files = sorted((tmp_path / "serial").iterdir())
        dist_files = sorted((tmp_path / "dist").iterdir())
        assert [p.name for p in serial_files] == \
            [p.name for p in dist_files]
        for a, b in zip(serial_files, dist_files):
            assert a.read_bytes() == b.read_bytes(), a.name


# -- the status surface ------------------------------------------------------

class TestStatusServer:
    def test_healthz_and_workers_endpoints(self, tmp_path):
        from repro.runstate import RunCheckpoint
        from repro.service import WorkerStatusServer

        job = small_job(tmp_path)
        checkpoint = RunCheckpoint(tmp_path / "run", job.fingerprint())
        checkpoint.begin(job.labels())
        checkpoint.close()
        queue = seeded_queue(tmp_path, ttl=30.0)
        queue.try_claim("day:2011-08-03")
        queue.write_worker_status({"state": "running", "executed": 1})

        server = WorkerStatusServer(tmp_path / "run").start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/healthz") as reply:
                health = json.loads(reply.read())
            assert health["status"] == "ok"
            assert health["shards"]["leased"] == 1
            assert health["counters"]["dispatch.lease.granted"] == 1
            with urllib.request.urlopen(f"{base}/workers") as reply:
                workers = json.loads(reply.read())
            assert workers["workers"][0]["state"] == "running"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope")
        finally:
            server.stop()

    def test_queue_status_on_empty_directory(self, tmp_path):
        from repro.service import queue_status

        status = queue_status(tmp_path / "nowhere")
        assert status["shards"]["planned"] == 0
        assert status["leases"] == []

    def test_queue_status_reads_the_journal_once(self, tmp_path,
                                                 monkeypatch):
        """One ``/healthz`` snapshot costs one journal read, not one
        per planned shard."""
        from repro.runstate import RunCheckpoint, ShardArtifact, read_journal
        from repro.service import queue_status, status

        job = small_job(tmp_path)
        checkpoint = RunCheckpoint(tmp_path / "run", job.fingerprint())
        checkpoint.begin(job.labels())
        checkpoint.record(job.labels()[0], ShardArtifact("done", records=1))
        checkpoint.close()
        reads = []

        def counting_read(path):
            reads.append(path)
            return read_journal(path)

        monkeypatch.setattr(status, "read_journal", counting_read)
        snapshot = queue_status(tmp_path / "run")
        assert len(reads) == 1
        assert snapshot["shards"]["planned"] == len(job.labels()) == 2
        assert snapshot["shards"]["completed"] == 1
