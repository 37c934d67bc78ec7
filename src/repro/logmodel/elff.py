"""Reading and writing the leaked log format.

The Telecomix release is CSV with W3C/ELFF-style directive lines
(``#Software``, ``#Version``, ``#Date``, ``#Fields``).  This module
round-trips :class:`~repro.logmodel.record.LogRecord` objects through
that format, streaming in both directions so multi-gigabyte files never
have to fit in memory.

Paths ending in ``.gz`` are read and written through gzip
transparently.  Written gzip streams are deterministic (no embedded
filename, mtime pinned to zero), so compressed output stays
byte-identical across runs, directories, and worker counts.
"""

from __future__ import annotations

import csv
import gzip
import io
import re
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from repro.atomicio import AtomicTextFile
from repro.batching import BATCH_SIZE
from repro.faults import fault_point
from repro.frame.batch import (
    BATCH_COLUMNS,
    RecordBatch,
    _day_strings,
    _time_strings,
    concat_batches,
)
from repro.frame.logframe import LogFrame
from repro.logmodel.fields import FIELDS
from repro.logmodel.record import INT_FIELD_BITS, LogRecord, date_time_to_epoch
from repro.metrics import current_registry

_DIRECTIVE_PREFIX = "#"

DEFAULT_SOFTWARE = "SGOS 5.3.3.8"


def elff_header(software: str = DEFAULT_SOFTWARE) -> str:
    """The directive preamble every ELFF log file starts with."""
    return (
        f"#Software: {software}\n"
        "#Version: 1.0\n"
        f"#Fields: {' '.join(FIELDS)}\n"
    )


def is_gzip_path(path: Path | str) -> bool:
    """Whether *path* names a gzip-compressed log (``.gz`` suffix)."""
    return str(path).endswith(".gz")


class _GzipTextWriter:
    """Text writer over a deterministic gzip stream.

    ``gzip.open`` embeds the file's basename and mtime in the header;
    this writer pins both (no name, mtime 0) so compressed logs are
    byte-identical whenever the uncompressed bytes are.  Closing closes
    the whole layer stack, including the raw file.
    """

    def __init__(self, path: Path | str):
        self._raw = open(path, "wb")
        self._gzip = gzip.GzipFile(
            filename="", mode="wb", fileobj=self._raw, mtime=0
        )
        self._text = io.TextIOWrapper(
            self._gzip, encoding="utf-8", newline=""
        )

    def write(self, text: str) -> int:
        return self._text.write(text)

    def flush(self) -> None:
        self._text.flush()

    def close(self) -> None:
        self._text.close()  # flushes and closes the gzip layer
        if not self._raw.closed:
            self._raw.close()

    def __enter__(self) -> "_GzipTextWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_log_writer(path: Path | str):
    """Open *path* for crash-safe ELFF text writing (gzip-transparent).

    Writes stream to a ``<name>.tmp`` sibling and only an explicit,
    successful close publishes the final path (fsync + ``os.replace``)
    — a process dying mid-write leaves no truncated log behind, which
    is what lets checkpoint/resume trust any log file that exists.
    """
    if is_gzip_path(path):
        return AtomicTextFile(path, opener=_GzipTextWriter)
    return AtomicTextFile(path)


def open_log_reader(path: Path | str):
    """Open *path* for ELFF text reading (gzip-transparent)."""
    if is_gzip_path(path):
        fault_point("gzip.open")
        return gzip.open(path, "rt", encoding="utf-8", newline="")
    return open(path, newline="")


def write_log(
    records: Iterable[LogRecord],
    destination: Path | io.TextIOBase,
    software: str = DEFAULT_SOFTWARE,
) -> int:
    """Write *records* as an ELFF/CSV log file.

    Returns the number of records written.  *destination* may be a path
    (``.gz`` compresses transparently) or an open text file.
    """
    if isinstance(destination, (str, Path)):
        with open_log_writer(destination) as handle:
            return write_log(records, handle, software=software)
    destination.write(elff_header(software))
    writer = csv.writer(destination)
    count = 0
    for record in records:
        writer.writerow(record.to_row())
        count += 1
    return count


#: The characters that make ``csv``'s default dialect quote a cell
#: (``QUOTE_MINIMAL``): the delimiter, the quote character, and the
#: line terminator's CR and LF.
_NEEDS_QUOTING = re.compile('[,"\r\n]')


def _csv_cells(values: list[str]) -> list[str]:
    """One string column as CSV cells.

    Each distinct value is checked once: a value holding a special
    character is wrapped in quotes with its inner quotes doubled, the
    way ``csv.writer`` writes it.  (A row's lone empty field is quoted
    too, but ELFF rows have 26 fields.)
    """
    search = _NEEDS_QUOTING.search
    distinct = set(values)
    if not search("".join(distinct)):
        return values
    quoted = {
        value: '"' + value.replace('"', '""') + '"'
        for value in distinct
        if search(value)
    }
    return list(map(quoted.get, values, values))


def elff_body(batch: RecordBatch) -> str:
    """The ELFF/CSV rows of *batch*, encoded column by column.

    Byte-identical to ``csv.writer(handle).writerows(batch.to_rows())``
    (and so to :func:`write_log` after the header): dates and times
    come from the distinct log days, int columns are ``str``-ed in one
    pass, string columns are quoted per distinct value, and the rows
    are joined with the dialect's ``\\r\\n`` terminator.
    """
    if not len(batch):
        return ""
    epochs = batch.col("epoch")
    days = epochs // 86400
    columns = []
    for field in FIELDS:
        if field == "date":
            columns.append(_day_strings(days))
        elif field == "time":
            columns.append(_time_strings(epochs - days * 86400))
        else:
            name = field.replace("-", "_")
            values = batch.col(name).tolist()
            if BATCH_COLUMNS[name] == "int64":
                columns.append(map(str, values))
            else:
                columns.append(_csv_cells(values))
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


class LogFormatError(ValueError):
    """Raised on malformed log files."""


@dataclass
class ReadStats:
    """Bookkeeping for lenient reads: what was kept, what was dropped.

    ``skipped`` counts malformed-but-parseable rows; ``corrupted``
    counts streams that died mid-read (truncated gzip, bad CRC,
    garbage that broke the CSV layer) — one per file, since a corrupt
    stream ends the file.  ``incomplete_tail`` counts files whose final
    line had no terminator yet — a writer caught mid-flush — and
    ``incomplete_tail_offset`` is the byte offset where that line
    starts (uncompressed offset for ``.gz``): the line is left
    *unread*, not skipped, so a tailer can resume exactly there once
    the writer finishes it and the last record is never dropped.
    """

    records: int = 0
    skipped: int = 0
    first_error: str | None = None
    corrupted: int = 0
    incomplete_tail: int = 0
    incomplete_tail_offset: int | None = None

    def merge(self, other: "ReadStats") -> "ReadStats":
        """Fold another reader's bookkeeping in (sharded reads merge
        one ReadStats per file); returns self."""
        self.records += other.records
        self.skipped += other.skipped
        self.corrupted += other.corrupted
        self.incomplete_tail += other.incomplete_tail
        if self.incomplete_tail_offset is None:
            self.incomplete_tail_offset = other.incomplete_tail_offset
        if self.first_error is None:
            self.first_error = other.first_error
        return self

    def __iadd__(self, other: "ReadStats") -> "ReadStats":
        if not isinstance(other, ReadStats):
            return NotImplemented
        return self.merge(other)


#: Exceptions that mean the byte stream itself died mid-read, as
#: opposed to a well-formed stream carrying a malformed row: truncated
#: gzip members (EOFError), deflate garbage (zlib.error), CRC/header
#: failures (BadGzipFile), binary noise hitting the CSV tokenizer or
#: the UTF-8 decoder.
_STREAM_CORRUPTION = (
    EOFError,
    zlib.error,
    gzip.BadGzipFile,
    csv.Error,
    UnicodeDecodeError,
)


def _stream_offset(handle) -> int | None:
    """Best-effort byte offset of *handle*'s underlying file.

    For gzip text readers this is the *compressed* offset (TextIOWrapper
    → GzipFile → raw file); for plain files the buffered byte position.
    """
    buffer = getattr(handle, "buffer", None)
    fileobj = getattr(buffer, "fileobj", None)
    for candidate in (fileobj, buffer, handle):
        if candidate is None:
            continue
        try:
            return candidate.tell()
        except (OSError, ValueError):
            continue
    return None


def _settle_corruption(
    path: Path,
    offset: int | None,
    error: BaseException,
    lenient: bool,
    stats: ReadStats | None,
) -> None:
    """A log stream died mid-read at byte *offset* (see
    :func:`_stream_offset`): raise (strict) or count (lenient)."""
    where = "unknown offset" if offset is None else f"byte {offset}"
    registry = current_registry()
    if registry is not None:
        registry.inc("elff.read.corrupted")
    if not lenient:
        raise LogFormatError(
            f"{path}: corrupted log stream at {where}: {error}"
        ) from error
    if stats is not None:
        stats.corrupted += 1
        if stats.first_error is None:
            stats.first_error = f"{path}: {error}"


class _TailSentry:
    """Line filter that withholds an unterminated final line.

    Wraps a text handle's line iteration and yields only lines that
    end in a terminator.  ``readline`` returns a line without one
    exactly once, at end of file — a writer caught mid-flush — so the
    sentry parks that line in :attr:`torn` instead of yielding it, and
    :meth:`resume_offset` reports the byte offset where the line
    starts, which is where a tailer must resume reading.

    With ``count_bytes=True`` the offset is a running sum over the
    encoded lines :meth:`fill` hands out, less those rewound — exact
    even when the stream dies mid-read, which is what the tail poller
    needs.  The default derives it from the underlying binary layer's
    position at clean end-of-stream instead, costing nothing per line.
    """

    def __init__(self, handle, *, count_bytes: bool = False,
                 base_offset: int = 0):
        self._handle = handle
        self._count_bytes = count_bytes
        self._encoding = getattr(handle, "encoding", None) or "utf-8"
        self.consumed = base_offset
        self.torn: str | None = None

    def __iter__(self) -> Iterator[str]:
        for line in self._handle:
            # With newline="" every line keeps its terminator; only the
            # physically-last line of the stream can lack one.
            if line.endswith(("\n", "\r")):
                yield line
            else:
                self.torn = line

    def unread(self, lines: list[str]) -> None:
        """Hand back yielded *lines* as the unread tail: they join the
        torn line, if there is one, and the resume offset moves to
        their start."""
        self.rewind(lines)
        self.torn = "".join(lines) + (self.torn or "")

    def fill(self, chunk: list[str], count: int) -> None:
        """Extend *chunk* by up to *count* lines, as iteration yields
        them: the batch reader's form of :meth:`__iter__`."""
        before = len(chunk)
        try:
            chunk.extend(islice(self._handle, count))
        finally:
            if len(chunk) > before and not chunk[-1].endswith(("\n", "\r")):
                self.torn = chunk.pop()
            if self._count_bytes:
                self.consumed += len(
                    "".join(chunk[before:]).encode(self._encoding)
                )

    def rewind(self, lines: list[str]) -> None:
        """Hand back yielded *lines* that the reader never consumed:
        the resume offset moves to their start."""
        if self._count_bytes and lines:
            self.consumed -= len("".join(lines).encode(self._encoding))

    def resume_offset(self) -> int | None:
        """Byte offset a tailer should continue from: the start of the
        torn line when one was withheld, end-of-stream otherwise.  For
        gzip handles the offset is in the *uncompressed* stream."""
        if self._count_bytes:
            return self.consumed
        buffer = getattr(self._handle, "buffer", None)
        if buffer is None:
            return None
        try:
            end = buffer.tell()
        except (OSError, ValueError):
            return None
        if self.torn is None:
            return end
        return end - len(self.torn.encode(self._encoding))


def _settle_incomplete_tail(
    sentry: _TailSentry, stats: ReadStats | None
) -> None:
    """A lenient path read ended on a torn line: count it, leave it."""
    registry = current_registry()
    if registry is not None:
        registry.inc("elff.read.incomplete_tail")
    if stats is not None:
        stats.incomplete_tail += 1
        stats.incomplete_tail_offset = sentry.resume_offset()


def _check_directive(row: list[str]) -> None:
    """Validate a ``#``-directive row (shared by both readers).

    A ``#Fields`` directive that does not match the 26-field schema
    raises :class:`LogFormatError`; every other directive is noise.
    """
    directive = ",".join(row)
    if directive.startswith("#Fields:"):
        declared = directive[len("#Fields:"):].strip().split()
        if tuple(declared) != FIELDS:
            raise LogFormatError(
                "log file declares an unexpected field set: "
                f"{declared[:3]}..."
            )


def read_log(
    source: Path | io.TextIOBase,
    lenient: bool = False,
    stats: ReadStats | None = None,
) -> Iterator[LogRecord]:
    """Stream records from an ELFF/CSV log file.

    Directive lines are validated; a ``#Fields`` directive that does not
    match the 26-field schema raises :class:`LogFormatError`, since the
    analyses depend on the exact schema.

    With ``lenient=True`` malformed data rows are skipped instead of
    raising — the Telecomix files contain truncated and garbled lines —
    and, when a :class:`ReadStats` is passed, counted there.

    Path reads additionally survive *corrupted streams* — truncated
    gzip members, CRC failures, deflate garbage, byte noise that breaks
    the CSV or text-decoding layer.  In strict mode these raise
    :class:`LogFormatError` naming the file and the byte offset
    reached; in lenient mode the records read so far are kept, the
    corruption is counted into ``stats.corrupted``, and the stream
    ends — exactly how the paper's pipeline had to treat log files the
    proxies never finished writing.

    Lenient path reads also distinguish an *incomplete trailing line*
    (no terminator at EOF — a writer mid-flush) from malformed data:
    the line is left unread, counted into ``stats.incomplete_tail``,
    and its starting byte offset reported as
    ``stats.incomplete_tail_offset`` so a tailer can resume exactly
    there — see :func:`tail_batches`.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        fault_point("elff.read")
        with open_log_reader(path) as handle:
            sentry = _TailSentry(handle) if lenient else None
            lines = iter(sentry) if sentry is not None else handle
            try:
                yield from read_log(lines, lenient=lenient, stats=stats)
            except _STREAM_CORRUPTION as error:
                _settle_corruption(path, _stream_offset(handle), error,
                                   lenient, stats)
            if sentry is not None and sentry.torn is not None:
                _settle_incomplete_tail(sentry, stats)
        return
    reader = csv.reader(source)
    registry = current_registry()
    kept = skipped = 0
    try:
        for row in reader:
            if not row:
                continue
            if row[0].startswith(_DIRECTIVE_PREFIX):
                _check_directive(row)
                continue
            try:
                record = LogRecord.from_row(row)
            except (ValueError, IndexError) as error:
                if not lenient:
                    raise LogFormatError(f"malformed row: {error}") from error
                skipped += 1
                if stats is not None:
                    stats.skipped += 1
                    if stats.first_error is None:
                        stats.first_error = str(error)
                continue
            kept += 1
            if stats is not None:
                stats.records += 1
            yield record
    finally:
        # Flushed on exhaustion *and* early close, so partially
        # consumed streams still report what they actually read.
        if registry is not None and (kept or skipped):
            registry.inc("elff.read.records", kept)
            registry.inc("elff.read.skipped", skipped)


#: Lines the tokenizer proves in one pass: about a quarter megabyte of
#: the simulated logs.  Twice as many read about 10% faster but hold
#: 3 MB more at the peak.
_CHUNK_LINES = 1024

#: Wire-field positions the tokenizer checks in every row, and the
#: position of each batch column's field.
_DATE, _TIME = FIELDS.index("date"), FIELDS.index("time")
_INT_CELLS = [FIELDS.index(field) for field in INT_FIELD_BITS]
_INT_SLOT = {
    field.replace("-", "_"): slot for slot, field in enumerate(INT_FIELD_BITS)
}
_INT_MAX = np.array(
    [(1 << (bits - 1)) - 1 for bits in INT_FIELD_BITS.values()],
    dtype=np.int64,
)
_TEXT_FIELD = {
    name: FIELDS.index(name.replace("_", "-"))
    for name, dtype in BATCH_COLUMNS.items() if dtype == "object"
}

_NUL, _LF, _CR, _QUOTE, _COMMA = 0, 10, 13, 34, 44

#: An integer cell proves when it is 1 to 18 digits: every such value
#: fits int64, so only the narrower columns need a range check.
_INT_DIGITS = 18
_DIGIT_WEIGHTS = 10 ** np.arange(_INT_DIGITS - 1, -1, -1, dtype=np.int64)
#: False, True, False, ...: which runs of a chunk :func:`_strings`
#: keeps, with room for every cell of a chunk.
_ALTERNATE = np.arange(2 * len(FIELDS) * _CHUNK_LINES + 1) % 2 == 1
_DATE_FORM = re.compile(rb"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_COLON = ord(":") - 48
_CLOCK_DIGITS = [0, 1, 3, 4, 6, 7]
_CLOCK_COLONS = [2, 5]
_CLOCK_LIMITS = np.array([24, 60, 60], dtype=np.uint8)
_CLOCK_SECONDS = np.array([3600, 60, 1], dtype=np.int64)


def read_log_batches(
    source: Path | io.TextIOBase,
    batch_size: int,
    *,
    lenient: bool = False,
    stats: ReadStats | None = None,
    columns: Iterable[str] | None = None,
) -> Iterator[LogFrame]:
    """Stream an ELFF/CSV log as column batches.

    The batched counterpart of :func:`read_log`.  Chunks of lines are
    proven well-formed with array passes (:func:`_prove`) and sliced
    straight into columns, instead of building one :class:`LogRecord`
    per line.  A line the tokenizer cannot prove goes through the
    per-line path — the csv referee, then ``LogRecord.from_row`` — in
    stream order, so malformed rows raise or skip-and-count with
    exactly the scalar reader's errors and :class:`ReadStats`
    bookkeeping.  The record stream recovered from the yielded batches
    is identical to :func:`read_log`'s, which the differential suite
    pins.

    With ``columns=None`` every batch is a full-width
    :class:`RecordBatch`.  Otherwise each batch is a :class:`LogFrame`
    holding exactly the named :data:`BATCH_COLUMNS`, at their batch
    dtypes, and only those columns are built: a consumer that reads
    four of the 26 fields pays for four.  Every row is validated in
    full either way, so the rows kept, the skip decisions and the
    errors do not depend on the projection.

    Semantics mirror :func:`read_log`: ``lenient`` skips malformed
    rows, path reads survive corrupted streams (records batched before
    the corruption point are still yielded), and the same metrics
    counters and fault sites (``elff.read``, ``gzip.open``) fire, and
    a foreign ``#Fields`` directive raises only after the rows before
    it are yielded.  The one intended difference: in strict mode a
    malformed row aborts the read before its batch-mates are yielded,
    rather than after the rows preceding it — strict errors abort the
    whole read either way.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if columns is not None:
        columns = tuple(columns)
        unknown = [name for name in columns if name not in BATCH_COLUMNS]
        if not columns or unknown or len(set(columns)) != len(columns):
            raise ValueError(
                f"columns must name distinct batch columns, got {columns}"
            )
    if isinstance(source, (str, Path)):
        path = Path(source)
        fault_point("elff.read")
        with open_log_reader(path) as handle:
            sentry = _TailSentry(handle) if lenient else None
            yield from _read_batches(handle, batch_size, lenient, stats,
                                     path, sentry=sentry, columns=columns)
            if sentry is not None and sentry.torn is not None:
                _settle_incomplete_tail(sentry, stats)
        return
    yield from _read_batches(source, batch_size, lenient, stats, None,
                             columns=columns)


def _read_batches(
    lines: Iterable[str],
    batch_size: int,
    lenient: bool,
    stats: ReadStats | None,
    path: Path | None,
    *,
    sentry: _TailSentry | None = None,
    tail: bool = False,
    columns: tuple[str, ...] | None = None,
) -> Iterator[LogFrame]:
    """The chunking loop behind :func:`read_log_batches`.

    Lines arrive in chunks through a :class:`_LineFeed`.  Each chunk is
    proven by :func:`_prove`, and its proven rows pass to the batches
    as array slices.  Every other line takes :func:`_line_rows`, in
    stream order: a line with a quote, a NUL or more than csv's field
    size limit goes to :func:`_referee_rows`, which pulls exactly
    the continuation lines the csv tokenizer would pull and lets a
    real ``csv.reader`` rule on them, so malformed input raises
    the same ``csv.Error`` and one physical line may yield several
    rows (or a row span several lines) exactly as in the scalar
    reader.  Proofs are per line, but a line is taken as a row start
    only once the line before it is consumed: the referee may swallow
    lines that would prove on their own, because a quoted field it
    follows is still open there.

    *lines* are read through *sentry*, a :class:`_TailSentry` over
    them, when one is given.  With *tail* it is a
    :func:`tail_batches` poll's sentry: a quoted
    field still open when the poll's input runs out is handed back to
    it unread rather than parsed short (see :func:`_referee_rows`).
    """
    registry = current_registry()
    feed = _LineFeed(lines, sentry)
    builder = _BatchBuilder(batch_size, lenient, stats, columns)
    referee_tail = sentry if tail else None
    failure: BaseException | None = None
    # A line this long may hold a field csv refuses: let csv rule.
    field_limit = csv.field_size_limit()
    try:
        try:
            while feed.refill():
                chunk, start = feed.chunk, feed.cursor
                ranks, proof = _prove(
                    chunk[start:] if start else chunk, field_limit,
                    builder.names,
                )
                for index in np.flatnonzero(np.diff(ranks) == 0).tolist():
                    index += start
                    if index < feed.cursor:
                        continue  # swallowed by an open quoted field
                    yield from builder.add_proven(
                        proof, ranks[feed.cursor - start],
                        ranks[index - start],
                    )
                    feed.cursor = index + 1
                    for row in _line_rows(chunk[index], feed, referee_tail,
                                          field_limit):
                        if not row:
                            continue
                        if row[0].startswith(_DIRECTIVE_PREFIX):
                            _check_directive(row)
                            continue
                        yield from builder.add_row(row)
                    if feed.chunk is not chunk:
                        break  # the referee read on into the next chunk
                else:
                    yield from builder.add_proven(
                        proof, ranks[feed.cursor - start], ranks[-1]
                    )
                    feed.cursor = len(chunk)
        except (LogFormatError, *_STREAM_CORRUPTION) as error:
            failure = error
            feed.rewind()
        # The rows read before a failure are still yielded, as read_log
        # yields the records before the line it stops at.
        yield from builder.flush()
        if failure is not None:
            if path is None or isinstance(failure, LogFormatError):
                raise failure
            offset = _stream_offset(lines)
            if isinstance(failure, csv.Error) and not lenient:
                # csv refused a line: name the offset a line-by-line
                # read reaches there, as read_log does, not the
                # read-ahead's.
                offset = _line_read_offset(path, feed.pulled())
            _settle_corruption(path, offset, failure, lenient, stats)
    finally:
        # Flushed on exhaustion *and* early close, matching read_log.
        if registry is not None and (builder.kept or builder.skipped):
            registry.inc("elff.read.records", builder.kept)
            registry.inc("elff.read.skipped", builder.skipped)


class _LineFeed:
    """A line stream read ahead in chunks and consumed at one cursor.

    The tokenizer proves ``chunk`` whole, while the per-line path takes
    lines one at a time: the referee pulls the continuation lines of an
    open quoted field with ``next()``.  Both advance :attr:`cursor`, so
    every line is consumed once and in stream order, and the read-ahead
    stays invisible.  An error the source raised while a chunk was
    gathered is raised when the cursor reaches it, a sentry's torn line
    shows only once the cursor runs past the last whole line, and
    :meth:`rewind` hands the lines gathered but not consumed back to
    the sentry's byte count.
    """

    def __init__(self, lines: Iterable[str],
                 sentry: _TailSentry | None = None):
        self._source = iter(lines) if sentry is None else None
        self._sentry = sentry
        self._failure: Exception | None = None
        self._ended = False
        self._torn: str | None = None
        self._before = 0  # lines in the chunks before this one
        self.chunk: list[str] = []
        self.cursor = 0

    def refill(self) -> bool:
        """Make ``chunk[cursor]`` the next line, gathering a new chunk
        once the current one is consumed; False at the end of input."""
        while self.cursor == len(self.chunk):
            if self._failure is not None:
                failure, self._failure = self._failure, None
                raise failure
            if self._ended:
                if self._sentry is not None and self._torn is not None:
                    self._sentry.torn, self._torn = self._torn, None
                return False
            chunk: list[str] = []
            try:
                if self._sentry is not None:
                    self._sentry.fill(chunk, _CHUNK_LINES)
                else:
                    chunk.extend(islice(self._source, _CHUNK_LINES))
            except Exception as error:  # raised when the cursor gets here
                self._failure = error
            else:
                if len(chunk) < _CHUNK_LINES:
                    self._ended = True
                    if self._sentry is not None:
                        self._torn, self._sentry.torn = self._sentry.torn, None
            self._before += len(self.chunk)
            self.chunk, self.cursor = chunk, 0
        return True

    def __next__(self) -> str:
        if not self.refill():
            raise StopIteration
        line = self.chunk[self.cursor]
        self.cursor += 1
        return line

    def pulled(self) -> int:
        """How many lines a line-by-line reader would have pulled from
        the source so far: the lines consumed."""
        return self._before + self.cursor

    def rewind(self) -> None:
        """Return the unconsumed rest of the chunk to the sentry."""
        if self._sentry is not None:
            self._sentry.rewind(self.chunk[self.cursor:])


def _line_read_offset(path: Path, lines: int) -> int | None:
    """The :func:`_stream_offset` of a reader of *path* that has pulled
    its first *lines* lines one at a time, as :func:`read_log`'s csv
    reader pulls them: a fresh handle replays the pulls."""
    with open_log_reader(path) as handle:
        for _ in islice(handle, lines):
            pass
        return _stream_offset(handle)


def _line_rows(
    line: str, feed: _LineFeed, tail: _TailSentry | None, field_limit: int
) -> Iterable[list[str]]:
    """The rows of a line the tokenizer did not prove, as csv derives
    them: none for a blank line or a directive (checked here), the
    cells of a plain line, or the referee's rows."""
    if '"' in line or "\x00" in line or len(line) > field_limit:
        return _referee_rows(line, feed, tail)
    stripped = line.rstrip("\r\n")
    if not stripped:
        return ()
    if stripped[0] == "#":
        _check_directive(stripped.split(","))
        return ()
    if "\r" in stripped:
        # An interior CR (a StringIO source; file handles pre-split
        # these) may terminate a row mid-line for the csv tokenizer.
        return _referee_rows(line, feed, tail)
    return (stripped.split(","),)


def _referee_rows(
    line: str, handle, tail: _TailSentry | None = None
) -> Iterator[list[str]]:
    """All rows the csv tokenizer derives from *line*, letting csv rule.

    A physical line the tokenizer cannot prove may map to anything:
    one row, several rows (a bare ``\\r`` acts as a row terminator
    inside a ``StringIO`` source), or the *start* of a row whose quoted
    field spans further physical lines.  :func:`_quote_open` tracks the
    tokenizer's quoting state, so continuation lines are pulled from
    the live *handle* exactly while a quoted field is open — never
    further — and a real ``csv.reader`` parses them, preserving scalar
    row-splitting, quoting and error semantics.  The reader pulls each
    line as it gets to it, as :func:`read_log`'s does: rows parsed
    before a mid-region ``csv.Error`` still reach the caller, and the
    lines after the one csv refuses are never read (nor, so, a torn
    line at the end of the file).

    A tail poll (*tail* given) gathers the region before parsing it:
    when *handle* runs out with the field still open, the poll may
    have caught the record half written.  If *tail* holds a torn last
    line, or the region is no longer than csv's field size limit, the
    region goes back to *tail* unread and no row is derived from it.
    A longer region is parsed as it stands, as a batch read does, so a
    stopped file never stalls the tail.
    """
    if tail is None:
        yield from csv.reader(_continued(line, handle))
        return
    region = [line]
    open_field = _quote_open(line, False)
    while open_field:
        more = next(handle, None)
        if more is None:
            if tail.torn is not None \
                    or sum(map(len, region)) <= csv.field_size_limit():
                tail.unread(region)
                return
            break
        region.append(more)
        open_field = _quote_open(more, open_field)
    yield from csv.reader(region)


def _continued(line: str, handle) -> Iterator[str]:
    """*line*, then the lines of *handle* that a quoted field it opens
    runs on to, each pulled only when it is asked for."""
    open_field = _quote_open(line, False)
    yield line
    while open_field:
        more = next(handle, None)
        if more is None:
            return
        yield more
        open_field = _quote_open(more, open_field)


def _quote_open(text: str, open_field: bool) -> bool:
    """Whether a quoted field is still open after scanning *text*.

    Mirrors the csv tokenizer's quoting rules for the default dialect:
    a quote opens a field only at a field start, ``\"\"`` inside a
    quoted field is an escaped quote, and quotes anywhere else are
    literal characters.
    """
    at_field_start = not open_field
    i = 0
    n = len(text)
    while i < n:
        char = text[i]
        if open_field:
            if char == '"':
                if i + 1 < n and text[i + 1] == '"':
                    i += 2  # escaped quote, field stays open
                    continue
                open_field = False
        elif char == ",":
            at_field_start = True
        else:
            if char == '"' and at_field_start:
                open_field = True
            at_field_start = False
        i += 1
    return open_field


def _prove(
    lines: list[str], field_limit: int, names: tuple[str, ...]
) -> tuple[list[int], dict[str, np.ndarray]]:
    """Prove a chunk of lines well-formed with array passes.

    Returns each line's rank and the *names* columns of the proven
    rows, in order.  ``ranks[i]`` proven lines come before line ``i``
    (``ranks[-1]`` is the total), so line ``i`` is proven when
    ``ranks[i + 1] > ranks[i]``, and then it is row ``ranks[i]`` of the
    columns.  A line is proven when it parses exactly as
    ``csv.reader`` then ``LogRecord.from_row`` parse it, which holds
    when all of these do:

    * it ends in ``\\n`` or ``\\r\\n``, holds no other CR and no NUL,
      and is no longer than csv's field size limit;
    * it holds no quote, or exactly one quoted field, which opens at a
      field start and closes before a delimiter or the line end (so a
      ``\"\"`` escape is left to the referee);
    * it has exactly 25 delimiters outside that field;
    * its five integer cells are ``[0-9]{1,18}`` and fit their
      :data:`INT_FIELD_BITS` width;
    * its date is ``YYYY-MM-DD`` and :func:`date_time_to_epoch` accepts
      it (checked once per distinct date), and its time is
      ``HH:MM:SS`` in range — each cell measured on its own.

    A proven row's first cell is a date, so blank lines and directives
    are never proven.  The chunk is scanned as one byte per character
    (``encode("ascii", "replace")`` turns each non-ASCII character
    into ``?``), so offsets into the bytes are offsets into the text,
    which :func:`_strings` cuts the string cells from.
    """
    count = len(lines)
    # One byte per character, then a "0" that _integers reads as a
    # leading zero.
    text = "".join([*lines, "0"])
    codes = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    lengths = np.fromiter(map(len, lines), dtype=np.intp, count=count)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    crlf = (lengths > 1) & (codes[np.maximum(ends - 2, 0)] == _CR)
    stops = ends - 1 - crlf  # where the content ends, before \r\n
    ok = (codes[ends - 1] == _LF) & (lengths <= field_limit)

    # The only CR a proven line holds is its terminator's.
    if np.count_nonzero(codes == _CR) != np.count_nonzero(crlf):
        ok &= _per_line(np.flatnonzero(codes == _CR), starts, ends)[1] \
            == crlf
    if np.count_nonzero(codes == _NUL):
        ok &= _per_line(np.flatnonzero(codes == _NUL), starts, ends)[1] == 0

    # No quote, or one quoted field from opens[i] to closes[i].
    quotes = np.flatnonzero(codes == _QUOTE)
    first, per_line = _per_line(quotes, starts, ends)
    ok &= (per_line == 0) | (per_line == 2)
    quoted = np.flatnonzero(per_line == 2)
    opens = quotes[first[quoted]]
    closes = quotes[first[quoted] + 1]
    ok[quoted] &= (
        (opens == starts[quoted]) | (codes[opens - 1] == _COMMA)
    ) & ((closes + 1 == stops[quoted]) | (codes[closes + 1] == _COMMA))

    # 25 delimiters outside the quoted field: a line's delimiters are
    # its run of commas, less the run between its quotes.
    commas = np.flatnonzero(codes == _COMMA)
    first, per_line = _per_line(commas, starts, ends)
    held_at = np.full(count, len(commas))
    held = np.zeros(count, dtype=np.intp)
    held_at[quoted] = np.searchsorted(commas, opens)
    held[quoted] = np.searchsorted(commas, closes) - held_at[quoted]
    ok &= per_line - held == len(FIELDS) - 1

    rows = np.flatnonzero(ok)
    if not len(rows):
        return [0] * (count + 1), {}
    # Cell k of row r lies between edges[r, k] and edges[r, k + 1].
    edges = np.empty((len(rows), len(FIELDS) + 1), dtype=np.intp)
    edges[:, 0] = starts[rows] - 1
    edges[:, -1] = stops[rows]
    delimiters = edges[:, 1:-1]
    delimiters[:] = first[rows, None] + np.arange(len(FIELDS) - 1)
    is_quoted = np.zeros(count, dtype=bool)
    is_quoted[quoted] = True
    inner = np.flatnonzero(is_quoted[rows])  # rows with a quoted cell
    if len(inner):
        lines_in = rows[inner]
        delimiters[inner] += (delimiters[inner] >= held_at[lines_in, None]) \
            * held[lines_in, None]
        inner_cell = held_at[lines_in] - first[lines_in]
    delimiters[:] = commas[delimiters]
    del commas, quotes, delimiters

    def cells(fields: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Each row's ``text[lo:hi]`` bounds of *fields*, unquoted."""
        lo = edges[:, fields] + 1
        hi = edges[:, [field + 1 for field in fields]]
        if len(inner):
            held_row, held_cell = np.nonzero(
                inner_cell[:, None] == np.asarray(fields)
            )
            lo[inner[held_row], held_cell] += 1
            hi[inner[held_row], held_cell] -= 1
        return lo, hi

    epochs, proven = _timestamps(codes, *cells([_DATE, _TIME]))
    ints, fits = _integers(codes, *cells(_INT_CELLS))
    proven &= fits
    ok[rows[~proven]] = False

    epochs, ints = epochs[proven], ints[proven]
    text_names = sorted(
        (name for name in names if name in _TEXT_FIELD),
        key=_TEXT_FIELD.__getitem__,
    )
    strings = {}
    if text_names:
        lo, hi = cells([_TEXT_FIELD[name] for name in text_names])
        strings = dict(zip(text_names, _strings(text, codes, lo[proven],
                                                 hi[proven])))
    columns = {}
    for name in names:
        if name == "epoch":
            columns[name] = epochs
        elif name in _INT_SLOT:
            columns[name] = ints[:, _INT_SLOT[name]]
        else:
            columns[name] = strings[name]
    ranks = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(ok, out=ranks[1:])
    return ranks.tolist(), columns


def _strings(
    text: str, codes: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> list[np.ndarray]:
    """The cells ``text[lo:hi]``, one object column per column of *lo*
    and *hi*, whose cells must lie in text order row by row.

    The cells are cut out of the chunk with one mask, each with the
    byte after it turned into a NUL (a proven line holds none), and a
    single ``split`` makes the strings: per cell that costs a fraction
    of a slice call.  *codes* are the chunk's bytes when the text is
    ASCII; otherwise the cells come from the text's UTF-32 code units,
    which index like the text too.
    """
    rows, count = lo.shape
    if not text.isascii():
        codes = np.frombuffer(
            text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32
        )
    # Runs to drop and runs to keep alternate: each cell with the
    # byte after it, and everything between cells.
    bounds = np.empty(2 * lo.size + 2, dtype=np.intp)
    bounds[0], bounds[-1] = 0, len(codes)
    bounds[1:-1:2] = lo.ravel()
    bounds[2:-1:2] = hi.ravel() + 1
    keep = np.repeat(_ALTERNATE[:len(bounds) - 1], np.diff(bounds))
    units = codes[keep]
    units[np.cumsum(hi - lo + 1) - 1] = 0
    cells = units.tobytes().decode(
        "ascii" if units.itemsize == 1 else "utf-32-le", "surrogatepass"
    ).split("\x00")
    return [
        np.array(cells[column:rows * count:count], dtype=object)
        for column in range(count)
    ]


def _per_line(
    positions: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For sorted *positions*: the index of each line's first one, and
    how many each line holds."""
    first = np.searchsorted(positions, starts)
    return first, np.searchsorted(positions, ends) - first


def _integers(
    codes: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The integers in the cells ``codes[lo:hi]`` of each row (one
    column per integer field), and whether every cell of the row is 1
    to 18 ASCII digits that fit its field's :data:`INT_FIELD_BITS`
    width (the values are garbage where not).

    Each field's cells are read right-aligned at the field's widest
    width.  The last byte of *codes* must be a ``0``: a narrower cell
    reads it in place of its missing leading digits.
    """
    width = hi - lo
    fits = ((width >= 1) & (width <= _INT_DIGITS)).all(axis=1)
    spans = np.clip(width.max(axis=0, initial=1), 1, _INT_DIGITS)
    # Gather column j reads digit 10**power[j] of field cell[j].
    cell = np.repeat(np.arange(len(spans)), spans)
    power = np.concatenate([np.arange(span - 1, -1, -1) for span in spans])
    positions = hi[:, cell] - 1 - power
    positions[positions < lo[:, cell]] = len(codes) - 1
    digits = codes[positions] - np.uint8(48)  # non-digits wrap past 9
    if digits.max(initial=0) > 9:
        fits &= (digits <= 9).all(axis=1)
    values = np.add.reduceat(
        digits * _DIGIT_WEIGHTS[_INT_DIGITS - 1 - power],
        np.cumsum(spans) - spans, axis=1,
    )
    if (values.max(axis=0, initial=0) > _INT_MAX).any():
        fits &= (values <= _INT_MAX).all(axis=1)
    return values, fits


def _timestamps(
    codes: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's epoch from its date and time cells (columns 0 and 1
    of *lo* and *hi*), and whether they are ``YYYY-MM-DD`` and
    ``HH:MM:SS``, in range and accepted by :func:`date_time_to_epoch`
    (the epoch is garbage where not).

    Every row holds 24 delimiters after its time, so the ten bytes
    from a date's start and the eight from a time's start lie within
    *codes* whatever the cells' widths."""
    width = hi - lo
    fits = (width[:, 0] == 10) & (width[:, 1] == 8)
    dates = codes[lo[:, :1] + np.arange(10)].view("S10").ravel()
    days = np.zeros(len(dates), dtype=np.int64)
    # A chunk seldom spans more than one log day.
    single = (dates == dates[0]).all()
    for date in [dates[0]] if single else set(dates.tolist()):
        rows = slice(None) if single else dates == date
        try:
            if not _DATE_FORM.fullmatch(date):
                raise ValueError(date)
            days[rows] = date_time_to_epoch(date.decode(), "00:00:00")
        except ValueError:
            fits[rows] = False

    clock = codes[lo[:, 1:] + np.arange(8)] - np.uint8(48)
    if clock[:, _CLOCK_DIGITS].max(initial=0) > 9 \
            or (clock[:, _CLOCK_COLONS] != _COLON).any():
        fits &= (clock[:, _CLOCK_DIGITS] <= 9).all(axis=1) \
            & (clock[:, _CLOCK_COLONS] == _COLON).all(axis=1)
    pairs = clock[:, 0::3] * np.uint8(10) + clock[:, 1::3]
    fits &= (pairs < _CLOCK_LIMITS).all(axis=1)
    return days + pairs @ _CLOCK_SECONDS, fits


class _BatchBuilder:
    """Rows in stream order, cut into batches of *batch_size* data rows.

    A batch counts its data rows whether they are kept or skipped, as
    the scalar reader's chunks did, and settles its :class:`ReadStats`
    and counters when it is cut.  Its pieces are runs of proven rows
    (slices of a chunk's proof columns) and runs of records from
    ``LogRecord.from_row``.
    """

    def __init__(self, batch_size: int, lenient: bool,
                 stats: ReadStats | None,
                 columns: tuple[str, ...] | None):
        self.names = tuple(BATCH_COLUMNS) if columns is None else columns
        self._make = RecordBatch if columns is None else LogFrame
        self._batch_size = batch_size
        self._lenient = lenient
        self._stats = stats
        self._pieces: list = []
        self._rows = 0
        self._errors: list[str] = []
        self.kept = self.skipped = 0

    def add_proven(
        self, proof: dict[str, np.ndarray], start: int, stop: int
    ) -> Iterator[LogFrame]:
        """Add proven rows ``start:stop`` of *proof*."""
        while start < stop:
            take = min(stop - start, self._batch_size - self._rows)
            self._pieces.append((proof, start, start + take))
            self._rows += take
            start += take
            if self._rows == self._batch_size:
                yield from self._cut()

    def add_row(self, row: list[str]) -> Iterator[LogFrame]:
        """Add one data row through the scalar parser."""
        try:
            record = LogRecord.from_row(row)
        except (ValueError, IndexError) as error:
            if not self._lenient:
                # Its batch-mates are not yielded.
                self._pieces, self._rows = [], 0
                raise LogFormatError(f"malformed row: {error}") from error
            self._errors.append(str(error))
        else:
            if self._pieces and isinstance(self._pieces[-1], list):
                self._pieces[-1].append(record)
            else:
                self._pieces.append([record])
        self._rows += 1
        if self._rows == self._batch_size:
            yield from self._cut()

    def flush(self) -> Iterator[LogFrame]:
        """Cut the last, partial batch."""
        if self._rows:
            yield from self._cut()

    def _cut(self) -> Iterator[LogFrame]:
        pieces, errors = self._pieces, self._errors
        self._pieces, self._errors, self._rows = [], [], 0
        kept = sum(
            len(piece) if isinstance(piece, list) else piece[2] - piece[1]
            for piece in pieces
        )
        self.kept += kept
        self.skipped += len(errors)
        stats = self._stats
        if stats is not None:
            stats.records += kept
            stats.skipped += len(errors)
            if errors and stats.first_error is None:
                stats.first_error = errors[0]
        if kept:
            yield self._make({
                name: _join_pieces(pieces, name) for name in self.names
            })


def _join_pieces(pieces: list, name: str) -> np.ndarray:
    """Column *name* over a batch's pieces (a single proven run stays
    a view of its chunk's column)."""
    parts = [
        np.array([getattr(record, name) for record in piece],
                 dtype=BATCH_COLUMNS[name])
        if isinstance(piece, list)
        else piece[0][name][piece[1]:piece[2]]
        for piece in pieces
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def tail_batches(
    path: Path | str,
    *,
    offset: int = 0,
    stats: ReadStats | None = None,
) -> tuple[RecordBatch, int, LogFormatError | None]:
    """One tail-safe poll over a growing ELFF log (gzip-transparent).

    Reads the complete rows found at or after byte *offset* (for
    ``.gz`` paths an offset into the *uncompressed* stream, reached by
    re-inflating the prefix) with the lenient batch reader, and returns
    ``(batch, next_offset, refusal)``: the poll's records as one batch,
    the position the next poll should resume from, and the
    :class:`LogFormatError` that ended the poll early, if any.

    * a torn final line — a writer caught mid-flush, no terminator
      yet — is left unread, counted into ``stats.incomplete_tail``,
      and *next_offset* points at its first byte, so no record is ever
      dropped or double-read across polls; a record whose quoted field
      spans physical lines into the torn line, or is still open at the
      end of the input within csv's field size limit, is left unread
      whole the same way, with *next_offset* at its first line;
    * a stream that dies mid-read (a ``.gz`` member still being
      written, byte noise, a region the csv tokenizer refuses) is
      settled like a lenient :func:`read_log_batches` path read — the
      rows before the failure are returned, the corruption counted;
    * a line the reader refuses (a foreign ``#Fields`` directive) is
      settled the same way, and returned as *refusal* instead of
      raised.

    After a failure *next_offset* is just past the lines the reader
    consumed, the failing one included, so the next poll resumes
    after it.  On a file that has stopped growing, a poll from offset
    0 returns the records and :class:`ReadStats` counts of a lenient
    :func:`read_log_batches` path read — except when it stopped inside
    a quoted field that runs into a torn last line or is still open
    within csv's field size limit: that read parses the region as it
    stands (a skipped row), and the tail leaves it unread
    (``incomplete_tail``).
    """
    path = Path(path)
    batches: list[RecordBatch] = []
    refusal: LogFormatError | None = None
    fault_point("elff.read")
    with open_log_reader(path) as handle:
        sentry = _TailSentry(handle, count_bytes=True, base_offset=offset)
        try:
            # Seek the binary layer before the text layer reads
            # anything (for .gz this re-inflates the prefix, and can
            # itself hit the truncation of a member still being
            # written — settled below like any mid-read death).
            buffer = getattr(handle, "buffer", None)
            if offset and buffer is not None:
                buffer.seek(offset)
            # One by one: a refused line raises only after the rows
            # before it are yielded, and those rows stay in the poll.
            for batch in _read_batches(handle, BATCH_SIZE, True, stats,
                                       path, sentry=sentry, tail=True):
                batches.append(batch)
        except _STREAM_CORRUPTION as error:
            _settle_corruption(path, _stream_offset(handle), error, True,
                               stats)
        except LogFormatError as error:
            refusal = error
        if sentry.torn is not None:
            _settle_incomplete_tail(sentry, stats)
    return concat_batches(batches), sentry.consumed, refusal
