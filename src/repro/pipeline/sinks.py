"""Mergeable record sinks: lists, counters, analyses, frames, ELFF.

Every sink here satisfies the monoid laws the engine's reduce needs
(``fresh`` identity, associative ``merge``, merge-equals-single-pass),
so any of them — or any :class:`TeeSink` fan-out of them — can be the
reduce side of ``run_sharded``.  Buffered sinks are picklable, which is
how a worker ships its shard's accumulated state back to the parent.
"""

from __future__ import annotations

import csv
import io
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from repro.analysis.streaming import StreamingAnalysis
from repro.frame.batch import RecordBatch
from repro.frame.io import FRAME_COLUMNS, buffers_to_frame, new_record_buffers
from repro.frame.logframe import LogFrame
from repro.logmodel.elff import DEFAULT_SOFTWARE, elff_header, open_log_writer
from repro.logmodel.record import LogRecord
from repro.pipeline.core import Sink
from repro.timeline import epoch_day


class CountSink(Sink):
    """The trivial sink: counts items and keeps nothing else."""

    def __init__(self) -> None:
        self.count = 0

    def add_batch(self, batch: RecordBatch) -> None:
        self.count += len(batch)

    def fresh(self) -> "CountSink":
        return CountSink()

    def merge(self, other: "CountSink") -> "CountSink":
        self.count += other.count
        return self

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountSink):
            return NotImplemented
        return self.count == other.count


class RecordListSink(Sink):
    """Materialize the stream as a list (the legacy consumers' shape)."""

    def __init__(self) -> None:
        self.records: list[LogRecord] = []

    def add_batch(self, batch: RecordBatch) -> None:
        self.records.extend(batch.iter_records())

    def fresh(self) -> "RecordListSink":
        return RecordListSink()

    def merge(self, other: "RecordListSink") -> "RecordListSink":
        self.records.extend(other.records)
        return self

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordListSink):
            return NotImplemented
        return self.records == other.records


class StreamingAnalysisSink(Sink):
    """Fold the stream into a :class:`StreamingAnalysis` accumulator."""

    def __init__(self, analysis: StreamingAnalysis | None = None) -> None:
        self.analysis = analysis if analysis is not None else StreamingAnalysis()

    def add_batch(self, batch: RecordBatch) -> None:
        self.analysis.add_batch(batch)

    def consume_batches(
        self, batches: Iterable[RecordBatch]
    ) -> "StreamingAnalysisSink":
        # Route through the accumulator's own consume_batches so the
        # pass is timed and counted when a metrics registry is active.
        self.analysis.consume_batches(batches)
        return self

    def fresh(self) -> "StreamingAnalysisSink":
        return StreamingAnalysisSink()

    def merge(self, other: "StreamingAnalysisSink") -> "StreamingAnalysisSink":
        self.analysis.merge(other.analysis)
        return self

    def __len__(self) -> int:
        return self.analysis.total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamingAnalysisSink):
            return NotImplemented
        return self.analysis == other.analysis


class FrameSink(Sink):
    """Fold the stream straight into columnar buffers.

    The fused alternative to "collect a record list, then
    ``frame_from_records``": per-column Python lists grow as batches
    flow, and :meth:`frame` materializes the arrays.  Merging re-interns
    string cells, because pickling across the process boundary breaks
    interning — without it a sharded build would hold one string object
    per shard per distinct value instead of one overall.
    """

    def __init__(self) -> None:
        self._buffers = new_record_buffers()

    def add_batch(self, batch: RecordBatch) -> None:
        intern = sys.intern
        for name, buffer in self._buffers.items():
            values = batch.col(name).tolist()
            if FRAME_COLUMNS[name] == "object":
                buffer.extend(map(intern, values))
            else:
                buffer.extend(values)

    def fresh(self) -> "FrameSink":
        return FrameSink()

    def merge(self, other: "FrameSink") -> "FrameSink":
        intern = sys.intern
        for name, buffer in self._buffers.items():
            if FRAME_COLUMNS[name] == "object":
                buffer.extend(map(intern, other._buffers[name]))
            else:
                buffer.extend(other._buffers[name])
        return self

    def frame(self) -> LogFrame:
        """Materialize the accumulated columns as a :class:`LogFrame`."""
        return buffers_to_frame(self._buffers)

    def __len__(self) -> int:
        return len(self._buffers["epoch"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameSink):
            return NotImplemented
        return self._buffers == other._buffers


class TeeSink(Sink):
    """Fan one stream out to several member sinks in one pass.

    With no members it still drains the stream (and counts it), which
    makes it the do-nothing end of a pipeline.  Merging is member-wise
    and requires both tees to have the same arity.
    """

    def __init__(self, sinks: Iterable[Sink] = ()) -> None:
        self.sinks = list(sinks)
        self.count = 0

    def add_batch(self, batch: RecordBatch) -> None:
        self.count += len(batch)
        for sink in self.sinks:
            sink.add_batch(batch)

    def fresh(self) -> "TeeSink":
        return TeeSink(sink.fresh() for sink in self.sinks)

    def merge(self, other: "TeeSink") -> "TeeSink":
        if len(self.sinks) != len(other.sinks):
            raise ValueError(
                f"cannot merge a {len(other.sinks)}-way tee into a "
                f"{len(self.sinks)}-way tee"
            )
        for mine, theirs in zip(self.sinks, other.sinks):
            mine.merge(theirs)
        self.count += other.count
        return self

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TeeSink):
            return NotImplemented
        return self.count == other.count and self.sinks == other.sinks


class ElffSink(Sink):
    """Serialize the stream as an ELFF/CSV log, byte-identical to
    :func:`~repro.logmodel.elff.write_log`.

    Two modes:

    * **bound** (constructed with a path or open text handle): the
      directive header is written immediately and each batch streams
      out as it arrives — constant memory, gzip-transparent for ``.gz``
      paths.
    * **buffered** (no destination): rows accumulate in memory.  This
      is the mergeable form workers ship back to the parent; merging a
      buffered sink into a bound one streams the buffered body to disk,
      so the parent never holds more than one shard.

    Only buffered sinks are picklable and only buffered sinks can be
    merged *from*; ``fresh()`` always yields a buffered sink, which is
    what a shard-local copy must be.
    """

    def __init__(
        self,
        destination: Path | str | io.TextIOBase | None = None,
        software: str = DEFAULT_SOFTWARE,
    ) -> None:
        self.software = software
        self.count = 0
        self._owns_handle = False
        self._buffered = destination is None
        if destination is None:
            self._handle = io.StringIO()
        elif isinstance(destination, (str, Path)):
            self._handle = open_log_writer(destination)
            self._owns_handle = True
            self._handle.write(elff_header(software))
        else:
            self._handle = destination
            self._handle.write(elff_header(software))
        self._writer = csv.writer(self._handle)

    @property
    def buffered(self) -> bool:
        """Whether this sink accumulates in memory (mergeable form)."""
        return self._buffered

    def add_batch(self, batch: RecordBatch) -> None:
        # Batch rows keep numeric cells as Python ints; csv.writer
        # stringifies them exactly like to_row()'s str() calls, so the
        # serialized bytes match write_log's.
        self._writer.writerows(batch.to_rows())
        self.count += len(batch)

    def fresh(self) -> "ElffSink":
        return ElffSink(software=self.software)

    def merge(self, other: "ElffSink") -> "ElffSink":
        if not other.buffered:
            raise ValueError("can only merge a buffered ElffSink")
        self._handle.write(other.body_text())
        self.count += other.count
        return self

    def body_text(self) -> str:
        """The accumulated CSV body (buffered sinks only)."""
        if not self.buffered:
            raise ValueError("a bound ElffSink has already streamed out")
        return self._handle.getvalue()

    def write_to(self, path: Path | str) -> int:
        """Write header + buffered body to *path*; returns the count."""
        with open_log_writer(path) as handle:
            handle.write(elff_header(self.software))
            handle.write(self.body_text())
        return self.count

    def close(self) -> None:
        """Close a handle this sink opened itself (bound-to-path mode)."""
        if self._owns_handle:
            self._handle.close()

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElffSink):
            return NotImplemented
        if not (self.buffered and other.buffered):
            return NotImplemented
        return (self.software, self.count, self.body_text()) == (
            other.software, other.count, other.body_text()
        )

    # -- pickling (only the buffered form crosses processes) ---------------

    def __getstate__(self) -> dict:
        if not self.buffered:
            raise TypeError("only buffered ElffSinks are picklable")
        return {
            "software": self.software,
            "count": self.count,
            "body": self._handle.getvalue(),
        }

    def __setstate__(self, state: dict) -> None:
        self.software = state["software"]
        self.count = state["count"]
        self._owns_handle = False
        self._buffered = True
        self._handle = io.StringIO()
        self._handle.write(state["body"])
        self._writer = csv.writer(self._handle)


class GroupedElffSink(Sink):
    """Route records into per-file buffered :class:`ElffSink` groups.

    Grouping mirrors the leak's file structure: one combined
    ``proxies`` group by default, ``sg-NN[_day]`` stems with the
    flags — the same naming :func:`~repro.engine.simulate.write_logs`
    has always produced.  ``compress=True`` makes :meth:`write_dir`
    emit ``.log.gz`` files.
    """

    def __init__(
        self,
        *,
        per_proxy: bool = False,
        per_day: bool = False,
        compress: bool = False,
        software: str = DEFAULT_SOFTWARE,
    ) -> None:
        self.per_proxy = per_proxy
        self.per_day = per_day
        self.compress = compress
        self.software = software
        self.groups: dict[str, ElffSink] = {}

    def _group(self, stem: str) -> ElffSink:
        group = self.groups.get(stem)
        if group is None:
            group = self.groups[stem] = ElffSink(software=self.software)
        return group

    def _batch_stems(self, batch: RecordBatch) -> np.ndarray:
        """Per-row group stems, computed once per distinct proxy/day."""
        parts = []
        if self.per_proxy:
            uniques, inverse = np.unique(batch.col("s_ip"), return_inverse=True)
            mapped = np.array(
                [f"sg-{ip.rsplit('.', 1)[-1]}" for ip in uniques.tolist()],
                dtype=object,
            )
            parts.append(mapped[inverse])
        if self.per_day:
            uniques, inverse = np.unique(
                batch.col("epoch") // 86400, return_inverse=True
            )
            mapped = np.array(
                [epoch_day(int(day) * 86400) for day in uniques.tolist()],
                dtype=object,
            )
            parts.append(mapped[inverse])
        stems = parts[0]
        for part in parts[1:]:
            stems = stems + "_" + part
        return stems

    def add_batch(self, batch: RecordBatch) -> None:
        if not len(batch):
            return
        if not (self.per_proxy or self.per_day):
            self._group("proxies").add_batch(batch)
            return
        stems = self._batch_stems(batch)
        uniques, first_index, inverse = np.unique(
            stems, return_index=True, return_inverse=True
        )
        # Visit groups in first-seen order, so the group dict's order
        # depends on the record stream only, never on its chunking.
        for position in np.argsort(first_index, kind="stable").tolist():
            self._group(uniques[position]).add_batch(
                batch.take(inverse == position)
            )

    def fresh(self) -> "GroupedElffSink":
        return GroupedElffSink(
            per_proxy=self.per_proxy,
            per_day=self.per_day,
            compress=self.compress,
            software=self.software,
        )

    def merge(self, other: "GroupedElffSink") -> "GroupedElffSink":
        for stem, theirs in other.groups.items():
            mine = self.groups.get(stem)
            if mine is None:
                mine = self.groups[stem] = theirs.fresh()
            mine.merge(theirs)
        return self

    def write_dir(self, out_dir: Path | str) -> list[tuple[Path, int]]:
        """Write one file per group into *out_dir*, sorted by stem.

        The combined (ungrouped) form always writes its ``proxies``
        file, even for an empty stream, matching the legacy writer.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if not (self.per_proxy or self.per_day) and "proxies" not in self.groups:
            self.groups["proxies"] = ElffSink(software=self.software)
        suffix = ".log.gz" if self.compress else ".log"
        return [
            (out_dir / f"{stem}{suffix}",
             self.groups[stem].write_to(out_dir / f"{stem}{suffix}"))
            for stem in sorted(self.groups)
        ]

    def __len__(self) -> int:
        return sum(group.count for group in self.groups.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupedElffSink):
            return NotImplemented
        return (
            (self.per_proxy, self.per_day, self.compress, self.software)
            == (other.per_proxy, other.per_day, other.compress,
                other.software)
            and self.groups == other.groups
        )
