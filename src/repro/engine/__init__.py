"""Sharded parallel simulate→analyze execution layer.

The paper's pipeline chewed through 600 GB / 751 M requests; this
package is how the reproduction scales in the same direction.  The
workload partitions along the leak's own natural boundary — log-days ×
proxies — into independent shards:

* :mod:`repro.engine.shards` derives per-shard seeds from the scenario
  seed with ``SeedSequence.spawn`` (worker-count-invariant);
* :mod:`repro.engine.pool` fans shards over a process pool, with a
  zero-dependency serial path at ``workers=1``, shard-labelled error
  propagation, graceful degradation to serial when no pool can run,
  per-shard retry with capped exponential backoff
  (:class:`RetryPolicy`), per-shard timeouts, and a ``strict=False``
  partial-results mode that quarantines shards which exhaust their
  retry budget into :class:`~repro.faults.ShardFailure` records
  instead of aborting the run;
* :mod:`repro.engine.simulate` maps shards to simulated log-days and
  folds them into ELFF output that is byte-identical at every worker
  count, or into the four analysis datasets — its
  :func:`~repro.engine.simulate.build_scenario` is the one scenario
  builder (:func:`repro.datasets.build_scenario` is the same function);
* :mod:`repro.engine.analyze` map-reduces the streaming analysis over
  log files via the accumulators' ``merge``.

Every dispatch point accepts a :class:`repro.metrics.MetricsRegistry`
(``metrics=...``), which collects per-shard throughput records and the
hot-path counters without perturbing the simulated output, plus a
:class:`repro.faults.FaultPlan` (``fault_plan=...``, or the
``REPRO_FAULT_PLAN`` environment knob) for deterministic chaos
testing of all of the above, plus a
:class:`repro.runstate.RunCheckpoint` (``checkpoint=...``) that
journals every completed shard to a durable run ledger and, on
resume, loads verified completed shards instead of re-running them.
"""

from importlib import import_module

from repro.engine.analyze import (
    analyze_logs,
    analyze_shard,
    load_frames,
)
from repro.engine.pool import (
    QUARANTINED,
    EngineFallbackWarning,
    RetryPolicy,
    ShardError,
    ShardTimeout,
    run_sharded,
)

#: The simulate side, imported on first use: a process that only
#: analyzes logs never loads the workload, policy and fleet packages.
_LAZY = {
    **dict.fromkeys(
        ("ShardPlan", "SimShard", "child_seed", "plan_shards"),
        "repro.engine.shards",
    ),
    **dict.fromkeys(
        (
            "build_scenario",
            "day_pipeline",
            "scenario_context",
            "simulate_fingerprint",
            "simulate_into",
            "simulate_sink_shard",
            "simulate_to_logs",
        ),
        "repro.engine.simulate",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module), name)


__all__ = [
    "EngineFallbackWarning",
    "QUARANTINED",
    "RetryPolicy",
    "ShardError",
    "ShardPlan",
    "ShardTimeout",
    "SimShard",
    "analyze_logs",
    "analyze_shard",
    "build_scenario",
    "child_seed",
    "day_pipeline",
    "load_frames",
    "plan_shards",
    "run_sharded",
    "scenario_context",
    "simulate_fingerprint",
    "simulate_into",
    "simulate_sink_shard",
    "simulate_to_logs",
]
