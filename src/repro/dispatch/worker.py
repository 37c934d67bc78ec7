"""The dispatch worker: claim, heartbeat, execute, record, release.

``repro work DIR`` runs this loop.  A worker is deliberately dumb and
stateless — everything it knows comes from the shared directory:

1. wait for the coordinator's ``queue/QUEUE.json`` and rebuild the job
   (config, shard plan, task) from it — every worker derives the same
   ordered shard labels and payloads;
2. claim the next unfinished shard (an ``O_EXCL`` lease file; one
   shard per cycle, so idle workers keep sharing what is left);
3. renew the held lease from a background heartbeat thread while the
   shard executes under the engine's retry policy and fault plan;
4. record the finished shard into the run ledger exactly as a
   single-box checkpointed run would (atomic checksummed artifact,
   then an fsync'd journal line), then release the lease;
5. exit once every planned shard is journaled.

Step 4 before step 5 is the crash-safety argument: a worker that dies
*after* recording has merely leaked a lease (reclaimed by TTL, and the
next claimant sees the shard journaled and skips it); a worker that
dies *before* recording loses nothing but time — the lease expires and
the shard re-runs elsewhere.  Since every shard replays a
deterministic stream, a shard that runs twice writes identical
artifact bytes, and the journal's last-entry-wins read keeps the merge
single-valued.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.dispatch.jobs import job_from_spec
from repro.dispatch.queue import (
    DispatchError,
    LeaseLost,
    WorkQueue,
    heartbeat_interval_from_env,
)
from repro.engine.pool import (
    RetryPolicy,
    ShardError,
    _Instrumented,
    _run_attempt,
    _shard_records,
)
from repro.faults import fault_point, plan_from_env, use_fault_plan
from repro.metrics import MetricsRegistry, ShardMetrics
from repro.runstate import JOURNAL_NAME, RunCheckpoint, read_journal


@dataclass
class WorkerSummary:
    """What one worker did, for logs and the ``work`` CLI."""

    worker_id: str
    executed: int = 0
    requeued: int = 0
    lost: int = 0
    records: int = 0
    wall_seconds: float = 0.0
    shards: list[str] = field(default_factory=list)


class _Heartbeat:
    """Background renewal of the leases a worker currently holds.

    The worker registers each claimed lease and withdraws it just
    before release; the thread renews everything registered every
    *interval* seconds.  A renewal that discovers the lease was
    reclaimed (this worker was presumed dead) drops it and counts a
    loss — the shard may run twice, which determinism makes harmless.
    """

    def __init__(self, queue: WorkQueue, interval: float):
        self.queue = queue
        self.interval = interval
        self.lost: list[str] = []
        self._leases: dict = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            with self._lock:
                held = list(self._leases.items())
            for shard_id, lease in held:
                try:
                    renewed = self.queue.renew(lease)
                except LeaseLost:
                    with self._lock:
                        self._leases.pop(shard_id, None)
                    self.lost.append(shard_id)
                except OSError:
                    continue  # transient fs trouble; retry next beat
                else:
                    with self._lock:
                        if shard_id in self._leases:
                            self._leases[shard_id] = renewed

    def hold(self, lease) -> None:
        with self._lock:
            self._leases[lease.shard_id] = lease

    def drop(self, shard_id: str):
        """Withdraw a lease from renewal; returns its freshest copy
        (the heartbeat may have renewed it since the claim)."""
        with self._lock:
            return self._leases.pop(shard_id, None)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def run_worker(
    directory: Path | str,
    *,
    worker_id: str | None = None,
    metrics: MetricsRegistry | None = None,
    retry: RetryPolicy | None = None,
    fault_plan=None,
    poll_interval: float = 0.2,
    startup_timeout: float | None = None,
    heartbeat_interval: float | None = None,
    max_idle: float | None = None,
) -> WorkerSummary:
    """Work the queue at *directory* until every planned shard is done.

    *startup_timeout* bounds the wait for a coordinator to seed the
    queue; *max_idle* bounds how long the worker idles while other
    workers hold every remaining lease (``None`` trusts lease expiry
    for liveness and waits indefinitely).  A shard that fails its whole
    retry budget is released back to the queue (a ``requeue`` event)
    and the worker exits with :class:`~repro.engine.pool.ShardError` —
    strict semantics, matching the single-box default.
    """
    directory = Path(directory)
    queue = WorkQueue(directory, worker_id)
    manifest = queue.wait_for_manifest(timeout=startup_timeout)
    job = job_from_spec(manifest["job"])
    ttl = queue.ttl()
    if heartbeat_interval is None:
        heartbeat_interval = heartbeat_interval_from_env(
            max(ttl / 3.0, 0.05)
        )
    if retry is None:
        retry = RetryPolicy.from_env()
    if fault_plan is None:
        fault_plan = plan_from_env()

    labels = job.labels()
    payloads = job.payloads()
    task = _Instrumented(job.task())
    # A lock-less RunCheckpoint: record() only appends to the shared
    # journal and writes pid-unique artifacts, so workers share the
    # ledger without touching the coordinator's LOCK.
    ledger = RunCheckpoint(directory, job.fingerprint())
    summary = WorkerSummary(worker_id=queue.worker_id)
    journal_path = directory / JOURNAL_NAME
    idle_since: float | None = None

    def publish(state: str, holding: list[str]) -> None:
        queue.write_worker_status({
            "state": state,
            "executed": summary.executed,
            "requeued": summary.requeued,
            "lost": summary.lost,
            "records": summary.records,
            "holding": holding,
            "heartbeat_interval": heartbeat_interval,
        })

    while True:
        done = set(read_journal(journal_path))
        remaining = [label for label in labels if label not in done]
        if not remaining:
            break
        lease = queue.claim_next(remaining)
        if lease is None:
            now = time.time()
            idle_since = idle_since or now
            if max_idle is not None and now - idle_since >= max_idle:
                raise DispatchError(
                    f"worker {queue.worker_id} idled {max_idle:g}s with "
                    f"{len(remaining)} shard(s) still leased elsewhere"
                )
            publish("idle", [])
            time.sleep(poll_interval)
            continue
        idle_since = None
        publish("running", [lease.shard_id])
        with _Heartbeat(queue, heartbeat_interval) as heartbeat:
            heartbeat.hold(lease)
            run = _execute_shard(
                queue, lease, task, payloads[lease.shard_id],
                retry, fault_plan, heartbeat, summary, metrics,
            )
            ledger.record(
                lease.shard_id, run.result,
                records=_shard_records(run),
                wall_seconds=run.wall_seconds,
                registry=run.registry,
            )
            current = heartbeat.drop(lease.shard_id) or lease
            queue.release(current, completed=True)
            summary.executed += 1
            summary.records += _shard_records(run)
            summary.wall_seconds += run.wall_seconds
            summary.shards.append(lease.shard_id)
            if metrics is not None:
                metrics.merge(run.registry)
                metrics.add_shard(ShardMetrics(
                    shard_id=lease.shard_id,
                    records=_shard_records(run),
                    wall_seconds=run.wall_seconds,
                    worker_pid=run.worker_pid,
                ))
                metrics.inc("dispatch.shards.executed")
        summary.lost += len(heartbeat.lost)
    publish("done", [])
    return summary


def _execute_shard(
    queue, lease, task, payload, retry, fault_plan, heartbeat, summary,
    metrics,
):
    """One leased shard through the engine's retry loop.

    The ``worker.kill`` fault site fires first, under the *lease*
    attempt — the chaos harness's hook for killing a worker that has
    just claimed a shard, which is precisely the state a reclaim must
    recover from.  Execution attempts then run under
    ``lease.attempt + local_attempt``, so retry gating stays monotone
    across reclaims exactly as it is across single-box retries.
    """
    if fault_plan is not None:
        with use_fault_plan(
            fault_plan, shard_id=lease.shard_id, attempt=lease.attempt
        ):
            fault_point("worker.kill")
    attempt = 0
    while True:
        try:
            return _run_attempt(
                task, payload, lease.shard_id,
                lease.attempt + attempt, fault_plan,
            )
        except Exception as error:
            if attempt < retry.max_retries:
                if metrics is not None:
                    metrics.inc("engine.shard_retries")
                time.sleep(retry.backoff_seconds(attempt))
                attempt += 1
                continue
            current = heartbeat.drop(lease.shard_id) or lease
            queue.release(current, completed=False)
            summary.requeued += 1
            raise ShardError(lease.shard_id, error) from error
