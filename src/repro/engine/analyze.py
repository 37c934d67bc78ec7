"""Sharded log analysis — the reduce side of the engine.

One log file is one shard, run as one fused pipeline pass in column
batches: ``ElffSource → <sink>``.  Workers parse with the lenient ELFF
batch reader (gzip-transparent for ``.log.gz`` inputs) and fold into
:class:`~repro.analysis.streaming.StreamingAnalysis` accumulators; the
parent merges the per-file accumulators in input order.  Because
``merge`` is associative and agrees with single-pass consumption (the
merge-law property tests), the reduced result is identical to a serial
read of the same files at every worker count and batch size.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

from repro.analysis.streaming import StreamingAnalysis
from repro.engine.pool import RetryPolicy, run_sharded
from repro.faults import FaultPlan, ShardFailureReport
from repro.frame import LogFrame, concat, empty_frame
from repro.logmodel.elff import ReadStats
from repro.metrics import MetricsRegistry, current_registry
from repro.runstate import RunCheckpoint
from repro.pipeline import (
    BATCH_SIZE,
    ElffSource,
    FrameSink,
    Pipeline,
    StreamingAnalysisSink,
)


def analyze_shard(
    path: str, batch_size: int = BATCH_SIZE
) -> tuple[StreamingAnalysis, ReadStats]:
    """Stream one log file into a fresh accumulator.

    The parse and the counter folds run on column batches of
    *batch_size* rows; the accumulator state is the same at every
    batch size.
    """
    stats = ReadStats()
    sink = Pipeline(ElffSource(path, lenient=True, stats=stats)).run(
        StreamingAnalysisSink(), batch_size
    )
    registry = current_registry()
    if registry is not None:
        registry.inc("shard.records", stats.records)
    return sink.analysis, stats


def analyze_logs(
    paths: list[Path | str],
    *,
    workers: int = 1,
    metrics: MetricsRegistry | None = None,
    retry: RetryPolicy | None = None,
    allow_partial: bool = False,
    failures: ShardFailureReport | None = None,
    fault_plan: FaultPlan | None = None,
    checkpoint: RunCheckpoint | None = None,
    batch_size: int = BATCH_SIZE,
) -> tuple[StreamingAnalysis, ReadStats]:
    """Map-reduce the streaming analysis over many log files.

    Returns the merged accumulator plus the merged lenient-read
    bookkeeping (kept/skipped line counts).  An empty *paths* list
    yields empty accumulators.  A *metrics* registry collects per-file
    throughput plus the reader/consumer hot-path counters.

    With ``allow_partial=True`` a file shard that fails every retry is
    quarantined (reported via *failures*/*metrics*) and the merged
    accumulator equals a fault-free run over the surviving files.

    *batch_size* is the workers' column-batch size.  It is an
    execution strategy, not part of the run's identity: results are
    identical at every batch size, and a checkpointed run may resume
    under a different one (the ledger fingerprint ignores it).
    """
    parts = run_sharded(
        partial(analyze_shard, batch_size=batch_size),
        [str(path) for path in paths],
        workers=workers,
        labels=[f"log:{Path(path).name}" for path in paths],
        metrics=metrics,
        retry=retry,
        strict=not allow_partial,
        failures=failures,
        fault_plan=fault_plan,
        checkpoint=checkpoint,
    )
    analysis = StreamingAnalysis()
    stats = ReadStats()
    for part in parts:
        if part is None:  # quarantined file
            continue
        part_analysis, part_stats = part
        analysis += part_analysis
        stats += part_stats
    return analysis, stats


def load_frame_shard(path: str, batch_size: int = BATCH_SIZE) -> LogFrame:
    """Load one log file into a columnar frame (strict read)."""
    frame = Pipeline(ElffSource(path)).run(FrameSink(), batch_size).frame()
    registry = current_registry()
    if registry is not None:
        registry.inc("shard.records", len(frame))
    return frame


def load_frames(
    paths: list[Path | str],
    *,
    workers: int = 1,
    metrics: MetricsRegistry | None = None,
    retry: RetryPolicy | None = None,
    allow_partial: bool = False,
    failures: ShardFailureReport | None = None,
    fault_plan: FaultPlan | None = None,
    checkpoint: RunCheckpoint | None = None,
    batch_size: int = BATCH_SIZE,
) -> LogFrame:
    """Parallel counterpart of the CLI's frame loader.

    An empty *paths* list yields the zero-row frame with the standard
    columns (it used to raise ``IndexError``); in partial mode the
    frame is the concatenation of the surviving files only.
    *batch_size* is the workers' column-batch size (the frame is the
    same at every size).
    """
    frames = run_sharded(
        partial(load_frame_shard, batch_size=batch_size),
        [str(path) for path in paths],
        workers=workers,
        labels=[f"log:{Path(path).name}" for path in paths],
        metrics=metrics,
        retry=retry,
        strict=not allow_partial,
        failures=failures,
        fault_plan=fault_plan,
        checkpoint=checkpoint,
    )
    frames = [frame for frame in frames if frame is not None]
    if not frames:
        return empty_frame()
    return concat(frames) if len(frames) > 1 else frames[0]
