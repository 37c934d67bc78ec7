"""The Source → Stage → Sink contracts and the fused traversal.

A pipeline is one pass over a record stream in column batches: a
:class:`Source` yields items, the chain turns them into
:class:`~repro.frame.RecordBatch` chunks, each :class:`Stage`
transforms the batch stream lazily, and a :class:`Sink` folds the
batches into its accumulated state.  Nothing in the pipeline
materializes the stream — memory is one batch in flight plus whatever
the sink keeps, which is what lets ``report`` run a full scenario
without ever holding the record list and what the paper's 600 GB
single-pass constraint demands.

Sinks are *mergeable*: ``fresh()`` is the identity element, ``merge``
is associative, and folding a stream split across fresh sinks then
merging in split order equals folding the whole stream into one sink.
Those are exactly the laws the sharded engine's reduce relies on
(property-tested in ``tests/test_pipeline.py``), so any sink can ride
``run_sharded`` the way :class:`~repro.analysis.streaming.
StreamingAnalysis` always has.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice

from repro.frame.batch import RecordBatch
from repro.logmodel.record import LogRecord

#: Rows per column batch unless the caller asks for another size
#: (``--batch-size``'s default).  Output never depends on it.
BATCH_SIZE = 1024


class Source:
    """A replayable-or-not stream of items; anything iterable works.

    Subclasses implement ``__iter__``; a source that can yield
    :class:`RecordBatch` columns itself also implements
    ``iter_batches(batch_size)``.  Plain iterables can be wrapped with
    :class:`~repro.pipeline.sources.RecordsSource`, but the pipeline
    duck-types: ``Pipeline`` accepts any iterable.
    """

    def __iter__(self) -> Iterator:
        raise NotImplementedError


class Stage:
    """A lazy batch-stream transformer: batches in, batches out.

    Subclasses implement :meth:`process_batch` as a generator.  Stages
    must preserve stream order (the engine's byte-identity guarantees
    fold in shard order) and may be stateful only in ways that do not
    depend on how the stream is chunked.  A stage that turns raw source
    items into records — the fleet — implements
    ``batch_items(stream, batch_size)`` instead and leads the chain.
    """

    def process_batch(
        self, batches: Iterator[RecordBatch]
    ) -> Iterator[RecordBatch]:
        raise NotImplementedError


class Sink:
    """A mergeable consumer of record batches.

    Subclasses implement :meth:`add_batch` (fold one batch),
    :meth:`fresh` (an empty sink with the same configuration — the
    merge identity), :meth:`merge` (fold another sink's state in,
    returning self), and ``__len__`` (records consumed, which the
    engine uses for per-shard throughput and ``records_by_day``).
    :meth:`add` and :meth:`consume` fold in-memory records through
    :meth:`add_batch`.
    """

    def add_batch(self, batch: RecordBatch) -> None:
        raise NotImplementedError

    def add(self, record: LogRecord) -> None:
        """Fold one record (as a one-row batch)."""
        self.add_batch(RecordBatch.from_records([record]))

    def consume(self, records: Iterable[LogRecord]) -> "Sink":
        """Fold every record of *records*, chunked at
        :data:`BATCH_SIZE`; returns self for chaining."""
        return self.consume_batches(chunk_records(records, BATCH_SIZE))

    def consume_batches(self, batches: Iterable[RecordBatch]) -> "Sink":
        """Fold a stream of batches; returns self for chaining."""
        for batch in batches:
            self.add_batch(batch)
        return self

    def fresh(self) -> "Sink":
        """An empty sink configured like this one (the merge identity)."""
        raise NotImplementedError

    def merge(self, other: "Sink") -> "Sink":
        """Fold *other*'s accumulated state in; returns self."""
        raise NotImplementedError

    def copy(self) -> "Sink":
        """An independent sink with the same state."""
        return self.fresh().merge(self)

    def __len__(self) -> int:
        raise NotImplementedError

    def __iadd__(self, other: "Sink") -> "Sink":
        if not isinstance(other, Sink):
            return NotImplemented
        return self.merge(other)

    def __add__(self, other: "Sink") -> "Sink":
        """Non-mutating merge; ``sum(parts, sink.fresh())`` works."""
        if not isinstance(other, Sink):
            return NotImplemented
        return self.copy().merge(other)


class Pipeline:
    """A source with an ordered chain of stages, run into a sink.

    :meth:`iter_batches` yields the fully transformed stream;
    :meth:`run` folds it into a sink in one pass.  Pipelines are cheap
    descriptions — nothing executes until iteration.
    """

    def __init__(self, source: Iterable, stages: Iterable[Stage] = ()):
        self.source = source
        self.stages = tuple(stages)

    def through(self, stage: Stage) -> "Pipeline":
        """A new pipeline with *stage* appended."""
        return Pipeline(self.source, self.stages + (stage,))

    def iter_batches(self, batch_size: int) -> Iterator[RecordBatch]:
        """The transformed stream as :class:`RecordBatch` chunks.

        The stream turns columnar at the first place it can: a source
        with ``iter_batches`` (ELFF files) yields columns directly; a
        leading stage with ``batch_items`` (the fleet) turns the raw
        request stream into log columns; otherwise the source is a
        record stream, chunked by :func:`chunk_records`.  Every other
        stage maps batches to batches.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        stages = self.stages
        if hasattr(self.source, "iter_batches"):
            stream = self.source.iter_batches(batch_size)
        elif stages and hasattr(stages[0], "batch_items"):
            stream = stages[0].batch_items(iter(self.source), batch_size)
            stages = stages[1:]
        else:
            stream = chunk_records(self.source, batch_size)
        for stage in stages:
            stream = stage.process_batch(stream)
        return stream

    def run(self, sink: Sink, batch_size: int = BATCH_SIZE) -> Sink:
        """One fused pass: fold the transformed stream into *sink*.

        The sink's state does not depend on *batch_size*.
        """
        return sink.consume_batches(self.iter_batches(batch_size))


def chunk_records(stream: Iterable, batch_size: int) -> Iterator[RecordBatch]:
    """Chunk a record stream into :class:`RecordBatch` columns."""
    stream = iter(stream)
    while True:
        chunk = list(islice(stream, batch_size))
        if not chunk:
            return
        yield RecordBatch.from_records(chunk)
