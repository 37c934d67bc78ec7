"""Composable Source → Stage → Sink record-stream pipelines.

This package is the architectural seam between producing records
(simulated traffic, ELFF files) and consuming them (analysis
accumulators, columnar frames, ELFF writers).  Everything flows in
one fused pass with sink-bounded memory:

* **Sources** (:mod:`~repro.pipeline.sources`) yield items:
  :class:`DayTrafficSource` wraps a traffic generator's log-day,
  :class:`ElffSource` the strict/lenient log readers,
  :class:`RecordsSource` any in-memory iterable.
* **Stages** (:mod:`~repro.pipeline.stages`) transform lazily:
  :class:`FleetStage` runs the proxy-fleet verdict pass,
  :class:`AnonymizeStage` the Telecomix address treatment.
* **Sinks** (:mod:`~repro.pipeline.sinks`) fold and merge:
  :class:`ElffSink`/:class:`GroupedElffSink` (byte-identical to
  ``write_log``, gzip-transparent), :class:`StreamingAnalysisSink`,
  :class:`FrameSink`, the fan-out :class:`TeeSink`, plus
  :class:`RecordListSink` and :class:`CountSink`.

Sinks form the same merge monoid as the engine's accumulators
(``fresh`` identity, associative ``merge``, merge-equals-single-pass),
so ``run_sharded`` reduces them exactly like ``StreamingAnalysis`` —
that is what lets ``simulate``, ``analyze``, and ``report`` all ride
one traversal per shard.

The traversal is column-batched (:meth:`Pipeline.run`, batches of
:data:`BATCH_SIZE` rows unless the caller picks another size): ELFF
sources parse straight into :class:`~repro.frame.RecordBatch`
columns, the fleet stage emits them from the request stream, and
every other stage and sink works column-wise.  Output is identical at
every batch size.
"""

from repro.pipeline.core import (
    BATCH_SIZE,
    Pipeline,
    Sink,
    Source,
    Stage,
    chunk_records,
)
from repro.pipeline.sinks import (
    CountSink,
    ElffSink,
    FrameSink,
    GroupedElffSink,
    RecordListSink,
    StreamingAnalysisSink,
    TeeSink,
)
from repro.pipeline.sources import DayTrafficSource, ElffSource, RecordsSource
from repro.pipeline.stages import AnonymizeStage, FleetStage

__all__ = [
    "AnonymizeStage",
    "BATCH_SIZE",
    "CountSink",
    "DayTrafficSource",
    "ElffSink",
    "ElffSource",
    "FleetStage",
    "FrameSink",
    "GroupedElffSink",
    "Pipeline",
    "RecordListSink",
    "RecordsSource",
    "Sink",
    "Source",
    "Stage",
    "StreamingAnalysisSink",
    "TeeSink",
    "chunk_records",
]
