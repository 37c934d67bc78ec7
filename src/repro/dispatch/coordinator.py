"""The dispatch coordinator: seed the queue, watch the ledger, merge.

``repro run-distributed`` drives this module.  The coordinator is the
only process that takes the run ledger's ``LOCK`` — it owns the run's
identity (manifest fingerprint, shard plan) for the whole campaign,
while workers only ever append to the shared journal and the lease
queue.  Its loop is deliberately thin:

1. open the ledger (:class:`~repro.runstate.RunCheckpoint`) — fresh or
   ``--resume`` — and seed ``queue/QUEUE.json`` with the job spec;
2. optionally spawn N local ``repro work`` subprocesses (``--spawn``;
   0 means workers are started elsewhere, e.g. other boxes sharing the
   directory);
3. poll the journal until every planned shard is recorded, reclaiming
   expired leases as a backstop for workers that died holding one;
4. if every spawned worker exited with shards still pending, finish
   the remainder inline (the coordinator is always a capable worker, so
   a local run can never stall on worker churn);
5. verify every artifact's checksum, fold the stored per-shard
   registries and the queue's lease counters into the metrics
   registry, and merge results in shard-plan order.  The lease
   counters are read once every shard's ``complete`` event has landed
   (:func:`settled_counters`), not at the first journal read that
   lists every shard.

Step 5 is where byte-identity comes from: the merge consumes verified
artifacts in the same label order ``run_sharded`` returns results, so
the written output is identical to ``--workers N`` on one box — no
matter how many workers ran, died, or ran a shard twice.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.dispatch.jobs import SimulateJob
from repro.dispatch.queue import (
    DispatchError,
    WorkQueue,
    lease_ttl_from_env,
)
from repro.metrics import MetricsRegistry, ShardMetrics
from repro.pipeline import BATCH_SIZE
from repro.runstate import JOURNAL_NAME, RunCheckpoint, read_journal


@dataclass
class DistributedRun:
    """What a completed distributed run hands back to the CLI."""

    output: Any
    labels: list[str]
    resumed: int
    spawned: int
    counters: dict[str, int] = field(default_factory=dict)
    worker_exits: list[int] = field(default_factory=list)
    inline_shards: int = 0


def spawn_worker(
    directory: Path | str,
    worker_id: str,
    *,
    extra_env: dict[str, str] | None = None,
) -> subprocess.Popen:
    """Start one ``repro work`` subprocess on *directory*.

    The child inherits this interpreter and environment, with the
    repro package root prepended to ``PYTHONPATH`` so the spawn works
    from a source checkout without installation.  Worker stdout is
    discarded (the coordinator owns the console); stderr is inherited
    so a dying worker's traceback lands in the coordinator's log.
    """
    package_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{package_root}{os.pathsep}{existing}" if existing
        else str(package_root)
    )
    if extra_env:
        env.update(extra_env)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "work", str(directory),
            "--worker-id", worker_id,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
    )


def run_distributed(
    job,
    directory: Path | str,
    *,
    spawn: int = 2,
    ttl: float | None = None,
    resume: bool = False,
    metrics: MetricsRegistry | None = None,
    poll_interval: float = 0.2,
    wait_timeout: float | None = None,
) -> DistributedRun:
    """Execute *job* over *directory* with leased workers and merge.

    *spawn* local workers are started (0 = rely on externally started
    ``repro work`` processes); *ttl* is the lease time-to-live
    (default: ``REPRO_LEASE_TTL`` or 30 s); *wait_timeout* bounds the
    whole wait for completion — mainly a guard for ``--spawn 0`` runs
    whose external workers never appear.
    """
    directory = Path(directory)
    if spawn < 0:
        raise ValueError(f"spawn must be >= 0, got {spawn}")
    if ttl is None:
        ttl = lease_ttl_from_env()
    labels = job.labels()
    checkpoint = RunCheckpoint(directory, job.fingerprint(), resume=resume)
    resumed = checkpoint.begin(labels)
    queue = WorkQueue(directory, worker_id=f"coordinator:{os.getpid()}")
    procs: list[subprocess.Popen] = []
    inline_shards = 0
    try:
        queue.seed(job.to_spec(), ttl=ttl, resume=resume)
        procs = [
            spawn_worker(directory, f"spawn-{index}:{os.getpid()}")
            for index in range(spawn)
        ]
        journal_path = directory / JOURNAL_NAME
        started = time.time()
        while True:
            done = set(read_journal(journal_path))
            pending = [label for label in labels if label not in done]
            if not pending:
                break
            for label in pending:
                queue.reclaim_expired(label)
            if procs and all(p.poll() is not None for p in procs):
                # Every spawned worker is gone with work remaining —
                # churn ate the whole fleet.  The coordinator finishes
                # the job itself rather than waiting for nobody.
                from repro.dispatch.worker import run_worker

                summary = run_worker(
                    directory,
                    worker_id=f"coordinator-inline:{os.getpid()}",
                    poll_interval=poll_interval,
                )
                inline_shards += summary.executed
                continue
            if (
                wait_timeout is not None
                and time.time() - started >= wait_timeout
            ):
                raise DispatchError(
                    f"distributed run incomplete after {wait_timeout:g}s: "
                    f"{len(pending)} shard(s) pending "
                    f"({', '.join(pending[:5])}{'…' if len(pending) > 5 else ''})"
                )
            time.sleep(poll_interval)

        verified = checkpoint.load_completed(labels)
        damaged = [label for label in labels if label not in verified]
        if damaged:
            raise DispatchError(
                "journal claims completion but these artifacts failed "
                f"verification: {', '.join(damaged)} — run "
                f"'repro verify-run {directory}' for details"
            )
        counters = settled_counters(
            queue, [label for label in labels if label not in resumed]
        )
        if metrics is not None:
            _fold_metrics(metrics, verified, labels, len(resumed), counters)
        output = job.merge([verified[label].result for label in labels])
        return DistributedRun(
            output=output,
            labels=labels,
            resumed=len(resumed),
            spawned=spawn,
            counters=counters,
            worker_exits=[p.wait() for p in procs],
            inline_shards=inline_shards,
        )
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
        checkpoint.close()


#: Upper bound on the wait for in-flight ``complete`` events once the
#: journal lists every shard (normally they land within milliseconds),
#: and the re-read interval.
SETTLE_TIMEOUT = 5.0
SETTLE_INTERVAL = 0.01


def settled_counters(queue: WorkQueue, labels: list[str]) -> dict[str, int]:
    """The queue's event counters once every shard in *labels* settled.

    A worker journals a shard before it appends the ``complete`` event
    that releases the lease, so the journal can list every shard while
    the last ``complete`` is still in flight.  Re-read the event log
    until each of *labels* has a ``complete`` (or ``lost``, for a
    worker whose lease was reclaimed) event, for at most
    :data:`SETTLE_TIMEOUT` seconds — never waiting for workers to exit,
    which idle in ``poll_interval`` sleeps.
    """
    deadline = time.monotonic() + SETTLE_TIMEOUT
    wanted = set(labels)
    while True:
        events = queue.read_events()
        settled = {
            event.get("shard_id") for event in events
            if event.get("event") in ("complete", "lost")
        }
        if wanted <= settled or time.monotonic() >= deadline:
            return queue.event_counters(events)
        time.sleep(SETTLE_INTERVAL)


def _fold_metrics(
    metrics: MetricsRegistry,
    verified: dict,
    labels: list[str],
    resumed_count: int,
    counters: dict[str, int],
) -> None:
    """Aggregate distributed shard metrics exactly like a single-box
    instrumented run: stored worker registries merge in shard order,
    one :class:`ShardMetrics` row per shard, plus the lease counters
    derived from the queue's event journal."""
    for label in labels:
        artifact = verified[label]
        if isinstance(artifact.registry, MetricsRegistry):
            metrics.merge(artifact.registry)
        metrics.add_shard(ShardMetrics(
            shard_id=label,
            records=artifact.records,
            wall_seconds=artifact.wall_seconds,
            worker_pid=0,
        ))
    if resumed_count:
        metrics.inc("engine.shards.resumed", resumed_count)
    for name, value in sorted(counters.items()):
        if value:
            metrics.inc(name, value)


def simulate_job_for(
    config,
    out_dir: Path | str,
    *,
    per_proxy: bool = False,
    per_day: bool = False,
    compress: bool = False,
    batch_size: int = BATCH_SIZE,
) -> SimulateJob:
    """Convenience constructor the CLI and tests share."""
    return SimulateJob(
        config=config,
        out_dir=str(out_dir),
        per_proxy=per_proxy,
        per_day=per_day,
        compress=compress,
        batch_size=batch_size,
    )
