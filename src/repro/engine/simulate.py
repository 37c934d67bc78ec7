"""Sharded scenario simulation — the map side of the engine.

Each shard is one fused pipeline pass over one log-day, in column
batches of ``batch_size`` rows:
``DayTrafficSource → FleetStage → AnonymizeStage → <sink>``.  A worker
rebuilds the scenario context (generator + policy + fleet, all three
supplied by the config's registered regime profile — see
:mod:`repro.regimes`) deterministically from the config — ground truth
is a pure function of the seed, so every process sees the same
universe — and caches it per process, so a nine-shard run costs one
construction per worker, not one per shard.

The sink is the caller's choice: :func:`simulate_into` runs the day
pipelines into fresh copies of any mergeable
:class:`~repro.pipeline.Sink` and reduces them in day order, which is
how every consumer fuses onto one traversal:

* :func:`simulate_to_logs` (the CLI's ``simulate``) streams each day
  straight into grouped ELFF parts on disk — generation, filtering, and
  serialization in a single pass, optionally gzip-compressed;
* :func:`build_scenario_sharded` (the ``report`` pipeline) folds each
  day straight into columnar frame buffers, so the full record list is
  never materialized;
* :func:`simulate_day_records` / :func:`write_logs` keep the legacy
  list-shaped API on the same pipeline core.

Output is byte-identical at every worker count and batch size for
all of them.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from repro.datasets import ScenarioDatasets
from repro.datasets.builder import (
    DEFAULT_SAMPLE_FRACTION,
    assemble_datasets_from_frame,
)
from repro.engine.pool import RetryPolicy, run_sharded
from repro.engine.shards import child_seed, plan_shards
from repro.faults import FaultPlan, ShardFailureReport
from repro.logmodel.record import LogRecord
from repro.metrics import MetricsRegistry, current_registry
from repro.pipeline import (
    BATCH_SIZE,
    AnonymizeStage,
    DayTrafficSource,
    FleetStage,
    FrameSink,
    GroupedElffSink,
    Pipeline,
    RecordListSink,
    Sink,
    temporary_spool,
)
from repro.proxy.sg9000 import FLEET_STREAM
from repro.regimes import ApplianceFleet, RegimeProfile, get_regime
from repro.runstate import (
    RunCheckpoint,
    config_digest,
    run_fingerprint,
)
from repro.timeline import USER_SLICE_DAYS, day_span
from repro.workload import TrafficGenerator
from repro.workload.config import ScenarioConfig
from repro.workload.stream import WORKLOAD_STREAM


@dataclass
class SimContext:
    """The deterministic per-process scenario ground truth."""

    profile: RegimeProfile
    generator: TrafficGenerator
    policy: Any
    fleet: ApplianceFleet
    user_spans: list[tuple[int, int]]


#: One cached context per process; keyed by config equality (the
#: ``regime`` field included) so a pool reused across configs rebuilds
#: instead of leaking the old universe.
_CONTEXT: tuple[ScenarioConfig, SimContext] | None = None


def scenario_context(config: ScenarioConfig) -> SimContext:
    """Build (or reuse) the scenario context for *config*.

    The config's regime profile supplies all three layers: the
    workload, the policy over its ground truth, and the appliance
    fleet that filters it.
    """
    global _CONTEXT
    if _CONTEXT is not None and _CONTEXT[0] == config:
        return _CONTEXT[1]
    profile = get_regime(config.regime)
    generator = profile.build_workload(config)
    policy = profile.build_policy(generator)
    context = SimContext(
        profile=profile,
        generator=generator,
        policy=policy,
        fleet=profile.build_fleet(policy),
        user_spans=[day_span(day) for day in USER_SLICE_DAYS],
    )
    _CONTEXT = (config, context)
    return context


def stream_versions() -> dict[str, int]:
    """The random-stream layout facets of a run fingerprint.

    ``simulate``, ``run-distributed`` and ``report`` all fingerprint
    with them: a ledger written under another generator
    (``workload_stream``) or fleet (``fleet_stream``) layout holds other
    bytes, so it never resumes.
    """
    return {"fleet_stream": FLEET_STREAM, "workload_stream": WORKLOAD_STREAM}


def simulate_fingerprint(
    config: ScenarioConfig,
    *,
    per_proxy: bool = False,
    per_day: bool = False,
    compress: bool = False,
) -> dict:
    """The run-ledger fingerprint of a simulate run.

    ``repro simulate`` and ``repro run-distributed`` share it, so a
    ledger started by one resumes under the other.  The output
    directory is deliberately not part of it: shard artifacts refer to
    ELFF parts kept in the ledger, so a resumed run may write the
    finished logs anywhere.  The flags that shape the shard results
    (grouping and compression) are, and so are the random-stream
    layouts (:func:`stream_versions`).  The regime is named as its own
    facet (besides being folded into the config digest) so a
    cross-regime ``--resume`` refusal spells out the mismatched key.
    """
    return run_fingerprint(
        "simulate",
        config=config_digest(config),
        regime=config.regime,
        per_proxy=per_proxy,
        per_day=per_day,
        compress=compress,
        **stream_versions(),
    )


def day_pipeline(
    config: ScenarioConfig, day: str, seed: np.random.SeedSequence
) -> Pipeline:
    """The fused pipeline for one log-day shard.

    The shard seed spawns two independent streams — request generation
    and fleet processing (routing, errors, cache) — via stateless child
    derivation, so re-running a shard always replays the same day.
    """
    context = scenario_context(config)
    return Pipeline(
        DayTrafficSource(
            context.generator, day, np.random.default_rng(child_seed(seed, 0))
        ),
        (
            FleetStage(
                context.fleet, np.random.default_rng(child_seed(seed, 1))
            ),
            AnonymizeStage(context.user_spans),
        ),
    )


def simulate_sink_shard(
    payload: tuple[ScenarioConfig, str, np.random.SeedSequence, Sink],
    batch_size: int = BATCH_SIZE,
) -> Sink:
    """Run one log-day pipeline into a fresh copy of the payload sink.

    The fleet filters the request stream in chunks of *batch_size*
    (its random stream does not depend on the chunking), and the
    anonymize stage and the sink fold columns.  The shipped sink
    state — and therefore every output byte — is the same at every
    batch size.
    """
    config, day, seed, prototype = payload
    sink = day_pipeline(config, day, seed).run(prototype.fresh(), batch_size)
    registry = current_registry()
    if registry is not None:
        registry.inc("shard.records", len(sink))
    return sink


def simulate_shard(
    payload: tuple[ScenarioConfig, str, np.random.SeedSequence],
) -> list[LogRecord]:
    """Generate, filter, and anonymize one log-day as a record list."""
    config, day, seed = payload
    return simulate_sink_shard((config, day, seed, RecordListSink())).records


def simulate_into(
    config: ScenarioConfig,
    sink: Sink,
    *,
    workers: int = 1,
    metrics: MetricsRegistry | None = None,
    retry: RetryPolicy | None = None,
    allow_partial: bool = False,
    failures: ShardFailureReport | None = None,
    fault_plan: FaultPlan | None = None,
    checkpoint: RunCheckpoint | None = None,
    batch_size: int = BATCH_SIZE,
) -> tuple[Sink, dict[str, int]]:
    """Run every day shard into fresh copies of *sink* and reduce.

    Each shard folds its day's stream into ``sink.fresh()``; the parent
    merges the per-shard sinks into *sink* in ``config.days`` order
    regardless of worker count or completion order (the sinks' merge
    laws make that equal to one serial pass).  Returns the merged sink
    and the per-day record counts.  A *metrics* registry collects
    per-shard throughput and the hot-path counters without touching the
    random streams — output is byte-identical with and without it.

    *retry* and *fault_plan* pass through to :func:`run_sharded`.  With
    ``allow_partial=True`` a day shard that fails every attempt is
    quarantined (reported via *failures*/*metrics*) instead of aborting
    the run, and the merged sink equals a fault-free run restricted to
    the surviving days — quarantined days simply never merge.

    *batch_size* is the shards' column-batch size (an execution
    strategy only — not part of the checkpoint identity, and never a
    source of output differences).
    """
    plan = plan_shards(config)
    parts = run_sharded(
        partial(simulate_sink_shard, batch_size=batch_size),
        [(config, shard.day, shard.seed, sink) for shard in plan.shards],
        workers=workers,
        labels=[shard.shard_id for shard in plan.shards],
        metrics=metrics,
        retry=retry,
        strict=not allow_partial,
        failures=failures,
        fault_plan=fault_plan,
        checkpoint=checkpoint,
    )
    records_by_day: dict[str, int] = {}
    for shard, part in zip(plan.shards, parts):
        if part is None:  # quarantined day
            continue
        records_by_day[shard.day] = len(part)
        sink.merge(part)
    return sink, records_by_day


def simulate_day_records(
    config: ScenarioConfig,
    *,
    workers: int = 1,
    metrics: MetricsRegistry | None = None,
    retry: RetryPolicy | None = None,
    allow_partial: bool = False,
    failures: ShardFailureReport | None = None,
    fault_plan: FaultPlan | None = None,
    checkpoint: RunCheckpoint | None = None,
) -> dict[str, list[LogRecord]]:
    """Simulate every configured log-day, in day order.

    The returned mapping iterates in ``config.days`` order regardless
    of worker count or completion order.  In partial mode, quarantined
    days are absent from the mapping.
    """
    plan = plan_shards(config)
    results = run_sharded(
        simulate_shard,
        [(config, shard.day, shard.seed) for shard in plan.shards],
        workers=workers,
        labels=[shard.shard_id for shard in plan.shards],
        metrics=metrics,
        retry=retry,
        strict=not allow_partial,
        failures=failures,
        fault_plan=fault_plan,
        checkpoint=checkpoint,
    )
    return {
        shard.day: records
        for shard, records in zip(plan.shards, results)
        if records is not None
    }


def simulate_to_logs(
    config: ScenarioConfig,
    out_dir: Path | str,
    *,
    per_proxy: bool = False,
    per_day: bool = False,
    compress: bool = False,
    workers: int = 1,
    metrics: MetricsRegistry | None = None,
    retry: RetryPolicy | None = None,
    allow_partial: bool = False,
    failures: ShardFailureReport | None = None,
    fault_plan: FaultPlan | None = None,
    checkpoint: RunCheckpoint | None = None,
    batch_size: int = BATCH_SIZE,
) -> list[tuple[Path, int]]:
    """Simulate and write ELFF logs in one fused pass per shard.

    Every batch is encoded the moment the fleet emits it — no
    intermediate record list — into the shard's spooled ELFF parts, and
    the merge concatenates the parts in day order, so output bytes are
    identical to the legacy simulate-then-:func:`write_logs` two-step at
    every worker count, in memory bounded by a batch.  With a
    *checkpoint*, the parts live in its ledger (so a resumed run reuses
    them); otherwise in a temporary spool beside *out_dir*, removed when
    the run ends.  ``compress=True`` writes deterministic ``.log.gz``
    files.
    """
    with (
        nullcontext(checkpoint.part_dir) if checkpoint is not None
        else temporary_spool(out_dir)
    ) as spool:
        sink = GroupedElffSink(
            spool, per_proxy=per_proxy, per_day=per_day, compress=compress
        )
        merged, _ = simulate_into(
            config, sink, workers=workers, metrics=metrics, retry=retry,
            allow_partial=allow_partial, failures=failures,
            fault_plan=fault_plan, checkpoint=checkpoint,
            batch_size=batch_size,
        )
        return merged.write_dir(Path(out_dir))


def build_scenario_sharded(
    config: ScenarioConfig | None = None,
    *,
    workers: int = 1,
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
    metrics: MetricsRegistry | None = None,
    retry: RetryPolicy | None = None,
    allow_partial: bool = False,
    failures: ShardFailureReport | None = None,
    fault_plan: FaultPlan | None = None,
    checkpoint: RunCheckpoint | None = None,
    batch_size: int = BATCH_SIZE,
) -> ScenarioDatasets:
    """Sharded counterpart of :func:`repro.datasets.build_scenario`.

    Fused: each day shard folds straight into columnar frame buffers
    (:class:`~repro.pipeline.FrameSink`), so the full record list is
    never materialized — memory is the frame plus one in-flight shard.
    Deterministic for a given config at every worker count (the D_sample
    draw uses the plan's dedicated sampling seed).  The random streams
    are sharded per day, so the numbers differ from the serial
    builder's single-stream run of the same seed — by design: the
    engine's invariant is worker-count independence, not equality with
    the legacy stream layout.
    """
    config = config or ScenarioConfig()
    plan = plan_shards(config)
    sink, records_by_day = simulate_into(
        config, FrameSink(), workers=workers, metrics=metrics,
        retry=retry, allow_partial=allow_partial, failures=failures,
        fault_plan=fault_plan, checkpoint=checkpoint,
        batch_size=batch_size,
    )
    context = scenario_context(config)
    rng = np.random.default_rng(plan.sampling_seed)
    assemble_timer = (
        metrics.timer("engine.assemble_seconds")
        if metrics is not None
        else nullcontext()
    )
    with assemble_timer:
        return assemble_datasets_from_frame(
            sink.frame(), records_by_day, config, context.generator,
            context.policy, rng, sample_fraction,
        )


def write_logs(
    day_records: dict[str, list[LogRecord]],
    out_dir: Path,
    *,
    per_proxy: bool = False,
    per_day: bool = False,
    compress: bool = False,
) -> list[tuple[Path, int]]:
    """Write simulated days as ELFF files; returns ``(path, count)``s.

    List-taking wrapper over :class:`~repro.pipeline.GroupedElffSink`
    (the fused path is :func:`simulate_to_logs`).  Grouping mirrors the
    leak's file structure: combined ``proxies.log`` by default,
    ``sg-NN[_day].log`` with the flags.  Records are written in day
    order within each file, so output bytes depend only on the day
    shards, never on worker scheduling.
    """
    with temporary_spool(out_dir) as spool:
        sink = GroupedElffSink(
            spool, per_proxy=per_proxy, per_day=per_day, compress=compress
        )
        for records in day_records.values():
            sink.consume(records)
        return sink.write_dir(Path(out_dir))
