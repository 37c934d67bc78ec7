"""The Source → Stage → Sink contracts and the fused traversal.

A pipeline is one pass over a record stream: a :class:`Source` yields
items, each :class:`Stage` transforms the stream lazily, and a
:class:`Sink` folds the items into its accumulated state.  Nothing in
the pipeline materializes the stream — memory is whatever the sink
keeps, which is what lets ``report`` run a full scenario without ever
holding the record list and what the paper's 600 GB single-pass
constraint demands.

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
from typing import Any

from repro.frame.batch import RecordBatch


class Source:
    """A replayable-or-not stream of items; anything iterable works.

    Subclasses implement ``__iter__``.  Plain iterables can be wrapped
    with :class:`~repro.pipeline.sources.RecordsSource`, but the
    pipeline duck-types: ``Pipeline`` accepts any iterable.
    """

    def __iter__(self) -> Iterator:
        raise NotImplementedError


class Stage:
    """A lazy stream transformer: iterator in, iterator out.

    Subclasses implement :meth:`process` as a generator.  Stages must
    preserve stream order (the engine's byte-identity guarantees fold
    in shard order) and may be stateful only in ways that do not depend
    on how the stream is chunked.
    """

    def process(self, stream: Iterator) -> Iterator:
        raise NotImplementedError

    def process_batch(
        self, batches: Iterator[RecordBatch]
    ) -> Iterator[RecordBatch]:
        """Transform a stream of :class:`RecordBatch` chunks.

        The base implementation is the automatic scalar fallback: the
        incoming batches are flattened into one record stream,
        :meth:`process` runs over it exactly once (so stages that keep
        state across the whole stream — rng draws, dedup sets — behave
        identically to scalar execution), and the result is re-chunked
        to the first incoming batch's size.  Chunk boundaries are not
        semantic — stages must already be chunking-insensitive — so
        subclasses override this only to go *faster*, never to change
        the record stream.
        """
        batches = iter(batches)
        try:
            first = next(batches)
        except StopIteration:
            return
        size = max(len(first), 1)

        def records() -> Iterator:
            yield from first.iter_records()
            for batch in batches:
                yield from batch.iter_records()

        stream = self.process(records())
        while True:
            chunk = list(islice(stream, size))
            if not chunk:
                return
            yield RecordBatch.from_records(chunk)

    def batch_items(
        self, stream: Iterator, batch_size: int
    ) -> Iterator[RecordBatch]:
        """Run this stage over a scalar item stream and hand the result
        on as :class:`RecordBatch` chunks of *batch_size* rows.

        :meth:`Pipeline.iter_batches` calls it on the last scalar-only
        stage before the stream turns columnar.  The base
        implementation chunks :meth:`process`'s output; a stage that
        can emit columns directly from its input items overrides it.
        """
        return chunk_records(self.process(stream), batch_size)

    def __call__(self, stream: Iterable) -> Iterator:
        return self.process(iter(stream))


def is_batch_native(stage: Stage) -> bool:
    """Whether *stage* overrides :meth:`Stage.process_batch` (and so
    benefits from receiving columns rather than records)."""
    return type(stage).process_batch is not Stage.process_batch


class Sink:
    """A mergeable stream consumer.

    Subclasses implement :meth:`add` (fold one item), :meth:`fresh`
    (an empty sink with the same configuration — the merge identity),
    :meth:`merge` (fold another sink's state in, returning self), and
    ``__len__`` (items consumed, which the engine uses for per-shard
    throughput and ``records_by_day``).
    """

    def add(self, item: Any) -> None:
        raise NotImplementedError

    def consume(self, stream: Iterable) -> "Sink":
        """Fold every item of *stream*; returns self for chaining."""
        for item in stream:
            self.add(item)
        return self

    def add_batch(self, batch: RecordBatch) -> None:
        """Fold one column batch.

        The base implementation is the scalar fallback — iterate the
        batch's records through :meth:`add` — so every sink accepts
        batches out of the box.  Subclasses override it to fold columns
        directly; either way the resulting state must equal adding the
        records one at a time (the batch/scalar equivalence law the
        differential suite pins).
        """
        for item in batch.iter_records():
            self.add(item)

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

    Iterating a pipeline yields the fully transformed stream;
    :meth:`run` folds it into a sink in one pass.  Pipelines are cheap
    descriptions — nothing executes until iteration.
    """

    def __init__(self, source: Iterable, stages: Iterable[Stage] = ()):
        self.source = source
        self.stages = tuple(stages)

    def through(self, stage: Stage) -> "Pipeline":
        """A new pipeline with *stage* appended."""
        return Pipeline(self.source, self.stages + (stage,))

    def __iter__(self) -> Iterator:
        stream: Iterator = iter(self.source)
        for stage in self.stages:
            stream = stage(stream)
        return stream

    def run(self, sink: Sink) -> Sink:
        """One fused pass: fold the transformed stream into *sink*."""
        return sink.consume(iter(self))

    def iter_batches(self, batch_size: int) -> Iterator[RecordBatch]:
        """The transformed stream as :class:`RecordBatch` chunks.

        Routing keeps each part of the chain in its natural
        representation: a batch-capable source yields columns directly;
        otherwise the leading run of scalar-only stages executes on the
        item stream (no pointless record→batch→record bounce) and its
        last stage turns the stream into batches via
        :meth:`Stage.batch_items` — the fleet stage, for one, is handed
        the raw request stream and emits log columns directly.  From
        there every stage sees batches, scalar-only stages via the
        automatic :meth:`Stage.process_batch` fallback.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        stages = self.stages
        start = 0
        if hasattr(self.source, "iter_batches"):
            stream = self.source.iter_batches(batch_size)
        else:
            while start < len(stages) and not is_batch_native(stages[start]):
                start += 1
            scalar: Iterator = iter(self.source)
            if not start:
                stream = chunk_records(scalar, batch_size)
            else:
                for stage in stages[:start - 1]:
                    scalar = stage(scalar)
                stream = stages[start - 1].batch_items(scalar, batch_size)
        for stage in stages[start:]:
            stream = stage.process_batch(stream)
        return stream

    def run_batched(self, sink: Sink, batch_size: int) -> Sink:
        """One fused pass in column-batch mode.

        State-identical to :meth:`run` at every batch size — only the
        execution strategy differs.
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
