"""Distributed shard execution: lease queue, workers, coordinator.

Promotes the crash-safe run ledger (:mod:`repro.runstate`) into a
multi-process coordination substrate: a coordinator seeds a job into a
shared directory, N independent ``repro work`` processes lease shards
via atomic ``O_EXCL`` lease files, renew heartbeats while executing,
and record completions into the shared journal; expired leases are
reclaimed so a SIGKILLed or wedged worker's shard re-runs elsewhere.
Results merge in shard-plan order, so output is byte-identical to a
single-box ``--workers N`` run at every worker count and under churn.

Environment knobs: ``REPRO_LEASE_TTL`` (lease time-to-live, seconds)
and ``REPRO_HEARTBEAT_INTERVAL`` (renewal cadence; default TTL/3).
"""

from repro.dispatch.coordinator import (
    DistributedRun,
    run_distributed,
    simulate_job_for,
    spawn_worker,
)
from repro.dispatch.jobs import (
    AnalyzeJob,
    SimulateJob,
    config_from_spec,
    job_from_spec,
)
from repro.dispatch.queue import (
    DEFAULT_LEASE_TTL,
    EVENT_COUNTERS,
    QUEUE_SCHEMA,
    DispatchError,
    Lease,
    LeaseLost,
    QueueMismatch,
    WorkQueue,
    heartbeat_interval_from_env,
    lease_ttl_from_env,
)
from repro.dispatch.worker import WorkerSummary, run_worker

__all__ = [
    "AnalyzeJob",
    "DEFAULT_LEASE_TTL",
    "DispatchError",
    "DistributedRun",
    "EVENT_COUNTERS",
    "Lease",
    "LeaseLost",
    "QUEUE_SCHEMA",
    "QueueMismatch",
    "SimulateJob",
    "WorkQueue",
    "WorkerSummary",
    "config_from_spec",
    "heartbeat_interval_from_env",
    "job_from_spec",
    "lease_ttl_from_env",
    "run_distributed",
    "run_worker",
    "simulate_job_for",
    "spawn_worker",
]
