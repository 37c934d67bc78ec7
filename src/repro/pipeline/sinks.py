"""Mergeable record sinks: lists, counters, analyses, frames, ELFF.

Every sink here satisfies the monoid laws the engine's reduce needs
(``fresh`` identity, associative ``merge``, merge-equals-single-pass),
so any of them — or any :class:`TeeSink` fan-out of them — can be the
reduce side of ``run_sharded``.  Every sink is picklable, which is how a
worker ships its shard's accumulated state back to the parent; the ELFF
sinks ship only refs to the parts they spooled to disk.
"""

from __future__ import annotations

import codecs
import shutil
import sys
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.analysis.streaming import StreamingAnalysis
from repro.atomicio import PartWriter, read_part
from repro.frame.batch import RecordBatch
from repro.frame.io import (
    FRAME_COLUMNS,
    buffers_to_columns,
    empty_frame,
    new_record_buffers,
)
from repro.frame.logframe import LogFrame
from repro.logmodel.elff import (
    DEFAULT_SOFTWARE,
    elff_body,
    elff_header,
    open_log_writer,
)
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
    """Fold the stream straight into columnar chunks.

    Within a pass (one ``consume_batches``, which ``Pipeline.run``
    calls) per-column Python lists grow as batches flow; the end of the
    pass seals them into one chunk of :data:`~repro.frame.io.
    FRAME_COLUMNS` arrays and drops them, so a shard's Python ints and
    list pointers live only while the shard runs.  ``merge`` appends
    the other sink's chunks without copying a cell, and :meth:`frame`
    concatenates one column at a time, releasing that column's chunks
    before it builds the next.  (A frame per batch folds faster but
    costs an array header per column per batch, which at small batch
    sizes outweighs the rows.)

    String cells are interned as they fold.  Pickling breaks interning,
    so a sink unpickled from another process (a pool result, a ledger
    artifact) re-interns its string cells — without it a sharded build
    would hold one string object per shard per distinct value instead
    of one overall.
    """

    def __init__(self) -> None:
        self._buffers = new_record_buffers()
        self._chunks: dict[str, list[np.ndarray]] = {
            name: [] for name in FRAME_COLUMNS
        }

    def add_batch(self, batch: RecordBatch) -> None:
        intern = sys.intern
        for name, buffer in self._buffers.items():
            values = batch.col(name).tolist()
            if FRAME_COLUMNS[name] == "object":
                buffer.extend(map(intern, values))
            else:
                buffer.extend(values)

    def consume_batches(self, batches: Iterable[RecordBatch]) -> "FrameSink":
        super().consume_batches(batches)
        self.seal()
        return self

    def seal(self) -> None:
        """Turn the open pass's lists into one chunk (idempotent)."""
        if not self._buffers["epoch"]:
            return
        chunk = buffers_to_columns(self._buffers)
        self._buffers = new_record_buffers()
        for name, array in chunk.items():
            self._chunks[name].append(array)

    def fresh(self) -> "FrameSink":
        return FrameSink()

    def merge(self, other: "FrameSink") -> "FrameSink":
        self.seal()
        other.seal()
        for name, chunks in self._chunks.items():
            chunks.extend(other._chunks[name])
        return self

    def frame(self) -> LogFrame:
        """Materialize the accumulated columns as a :class:`LogFrame`."""
        self.seal()
        if not len(self):
            return empty_frame()
        return LogFrame({name: self._column(name) for name in FRAME_COLUMNS})

    def _column(self, name: str) -> np.ndarray:
        """Column *name* as one array, which replaces its chunks."""
        chunks = self._chunks[name]
        if not chunks:
            return np.empty(0, dtype=FRAME_COLUMNS[name])
        if len(chunks) > 1:
            chunks[:] = [np.concatenate(chunks)]
        return chunks[0]

    def __len__(self) -> int:
        return sum(map(len, self._chunks["epoch"])) + len(
            self._buffers["epoch"]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameSink):
            return NotImplemented
        self.seal()
        other.seal()
        for name in FRAME_COLUMNS:
            mine, theirs = self._column(name), other._column(name)
            if mine.dtype != theirs.dtype or not np.array_equal(mine, theirs):
                return False
        return True

    # -- pickling: sealed chunks, re-interned on arrival --------------------

    def __getstate__(self) -> dict:
        self.seal()
        return {"chunks": self._chunks}

    def __setstate__(self, state: dict) -> None:
        # Ledgers written before the chunks hold the open lists instead.
        self._buffers = state.get("_buffers", new_record_buffers())
        self._chunks = state.get(
            "chunks", {name: [] for name in FRAME_COLUMNS}
        )
        self.seal()
        intern = sys.intern
        for name, chunks in self._chunks.items():
            if FRAME_COLUMNS[name] == "object":
                chunks[:] = [
                    np.fromiter(
                        map(intern, chunk.tolist()), dtype=object,
                        count=len(chunk),
                    )
                    for chunk in chunks
                ]


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
    """Serialize the stream as ELFF/CSV parts in a spool directory.

    Each batch is encoded column-wise (:func:`~repro.logmodel.elff.
    elff_body`) and appended, as UTF-8, to the sink's open part; sealing
    publishes the part as ``<spool>/<sha256>.part``.  The sink's state
    is the ordered list of ``(sha256, records, bytes)`` part refs, so
    its memory and its pickle do not grow with the stream: ``merge``
    concatenates the lists, and :meth:`write_to` streams the header
    plus the parts into one log, byte-identical to
    :func:`~repro.logmodel.elff.write_log`.

    A part is sealed at the end of every ``consume``/pipeline run, and
    always before the sink is merged, pickled, compared or written.
    Parts are read back from the sink's own spool, so every sink that
    merges into it must write to the same spool — ``fresh()`` shares it.
    """

    def __init__(
        self, spool: Path | str, software: str = DEFAULT_SOFTWARE
    ) -> None:
        self.spool = Path(spool)
        self.software = software
        self.count = 0
        self.parts: list[tuple[str, int, int]] = []
        self._part: PartWriter | None = None
        self._part_records = 0

    def add_batch(self, batch: RecordBatch) -> None:
        if not len(batch):
            return
        if self._part is None:
            self._part = PartWriter(self.spool)
        self._part.write(elff_body(batch).encode("utf-8"))
        self._part_records += len(batch)
        self.count += len(batch)

    def consume_batches(self, batches: Iterable[RecordBatch]) -> "ElffSink":
        super().consume_batches(batches)
        self.seal()
        return self

    def seal(self) -> None:
        """Publish the open part, if any (idempotent)."""
        if self._part is None:
            return
        digest = self._part.seal()
        self.parts.append((digest, self._part_records, self._part.size))
        self._part, self._part_records = None, 0

    def part_names(self) -> list[str]:
        """The SHA-256 names of the sealed parts, in stream order."""
        self.seal()
        return [digest for digest, _, _ in self.parts]

    def fresh(self) -> "ElffSink":
        return ElffSink(self.spool, software=self.software)

    def merge(self, other: "ElffSink") -> "ElffSink":
        self.seal()
        other.seal()
        self.parts.extend(other.parts)
        self.count += other.count
        return self

    def iter_body(self) -> Iterator[bytes]:
        """The concatenated parts, in reads of at most 1 MiB, each part
        re-hashed as it streams (a damaged part raises)."""
        self.seal()
        for digest, _, _ in self.parts:
            yield from read_part(self.spool, digest)

    def write_to(self, path: Path | str) -> int:
        """Write the header and every part to *path*; returns the count.

        ``.gz`` paths are compressed as the parts stream through.
        """
        decoder = codecs.getincrementaldecoder("utf-8")()
        with open_log_writer(path) as handle:
            handle.write(elff_header(self.software))
            for chunk in self.iter_body():
                handle.write(decoder.decode(chunk))
            handle.write(decoder.decode(b"", final=True))
        return self.count

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElffSink):
            return NotImplemented
        return (
            (self.software, self.count) == (other.software, other.count)
            and b"".join(self.iter_body()) == b"".join(other.iter_body())
        )

    # -- pickling: the part refs, never the bytes --------------------------

    def __getstate__(self) -> dict:
        self.seal()
        return {
            "spool": str(self.spool),
            "software": self.software,
            "count": self.count,
            "parts": self.parts,
        }

    def __setstate__(self, state: dict) -> None:
        self.spool = Path(state["spool"])
        self.software = state["software"]
        self.count = state["count"]
        self.parts = state["parts"]
        self._part, self._part_records = None, 0


class GroupedElffSink(Sink):
    """Route records into per-file :class:`ElffSink` groups.

    Grouping mirrors the leak's file structure: one combined
    ``proxies`` group by default, ``sg-NN[_day]`` stems with the
    flags.  Every group spools its parts into *spool*.
    ``compress=True`` makes :meth:`write_dir` emit ``.log.gz`` files.
    """

    def __init__(
        self,
        spool: Path | str,
        *,
        per_proxy: bool = False,
        per_day: bool = False,
        compress: bool = False,
        software: str = DEFAULT_SOFTWARE,
    ) -> None:
        self.spool = Path(spool)
        self.per_proxy = per_proxy
        self.per_day = per_day
        self.compress = compress
        self.software = software
        self.groups: dict[str, ElffSink] = {}

    def _group(self, stem: str) -> ElffSink:
        group = self.groups.get(stem)
        if group is None:
            group = self.groups[stem] = ElffSink(
                self.spool, software=self.software
            )
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

    def consume_batches(
        self, batches: Iterable[RecordBatch]
    ) -> "GroupedElffSink":
        super().consume_batches(batches)
        for group in self.groups.values():
            group.seal()
        return self

    def part_names(self) -> list[str]:
        """Every group's part names, group by group."""
        return [
            name for group in self.groups.values()
            for name in group.part_names()
        ]

    def fresh(self) -> "GroupedElffSink":
        return GroupedElffSink(
            self.spool,
            per_proxy=self.per_proxy,
            per_day=self.per_day,
            compress=self.compress,
            software=self.software,
        )

    def merge(self, other: "GroupedElffSink") -> "GroupedElffSink":
        for stem, theirs in other.groups.items():
            self._group(stem).merge(theirs)
        return self

    def write_dir(self, out_dir: Path | str) -> list[tuple[Path, int]]:
        """Write one file per group into *out_dir*, sorted by stem.

        The combined (ungrouped) form always writes its ``proxies``
        file, even for an empty stream, matching the legacy writer.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        groups = dict(self.groups)
        if not (self.per_proxy or self.per_day):
            groups.setdefault(
                "proxies", ElffSink(self.spool, software=self.software)
            )
        suffix = ".log.gz" if self.compress else ".log"
        return [
            (out_dir / f"{stem}{suffix}",
             groups[stem].write_to(out_dir / f"{stem}{suffix}"))
            for stem in sorted(groups)
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


@contextmanager
def temporary_spool(out_dir: Path | str) -> Iterator[Path]:
    """A temporary part spool for a run that writes into *out_dir*.

    The spool is a fresh directory beside *out_dir* — on the output's
    filesystem, but outside the directory, whose every file is
    output — or in the system temp directory when that parent is not
    writable.  It is removed on exit, on success and on failure.
    """
    parent = Path(out_dir).resolve().parent
    try:
        parent.mkdir(parents=True, exist_ok=True)
        spool = tempfile.mkdtemp(prefix=".repro-spool-", dir=parent)
    except OSError:
        spool = tempfile.mkdtemp(prefix="repro-spool-")
    try:
        yield Path(spool)
    finally:
        shutil.rmtree(spool, ignore_errors=True)
