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
from pathlib import Path

import numpy as np

from repro.atomicio import AtomicTextFile
from repro.faults import fault_point
from repro.frame.batch import (
    BATCH_COLUMNS,
    RecordBatch,
    _day_strings,
    _time_strings,
)
from repro.logmodel.fields import FIELDS
from repro.logmodel.record import LogRecord, date_time_to_epoch
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
    handle,
    error: BaseException,
    lenient: bool,
    stats: ReadStats | None,
) -> None:
    """A log stream died mid-read: raise (strict) or count (lenient)."""
    offset = _stream_offset(handle)
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

    With ``count_bytes=True`` the offset is maintained as a running
    sum over the encoded lines actually yielded — exact even when the
    stream dies mid-read, which is what the tail poller needs.  The
    default derives it from the underlying binary layer's position at
    clean end-of-stream instead, costing nothing per line on the batch
    analyze hot path.
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
                if self._count_bytes:
                    self.consumed += len(line.encode(self._encoding))
                yield line
            else:
                self.torn = line

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
    there — see :func:`tail_records`.
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
                _settle_corruption(path, handle, error, lenient, stats)
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


#: Record attributes whose wire cells parse with ``int()``.
_NUMERIC_ATTRS = ("time_taken", "sc_status", "cs_uri_port", "sc_bytes",
                  "cs_bytes")

#: Position of every wire field in a 26-column row.
_FIELD_INDEX = {name: index for index, name in enumerate(FIELDS)}


def read_log_batches(
    source: Path | io.TextIOBase,
    batch_size: int,
    *,
    lenient: bool = False,
    stats: ReadStats | None = None,
) -> Iterator[RecordBatch]:
    """Stream an ELFF/CSV log as :class:`RecordBatch` columns.

    The batched counterpart of :func:`read_log`: whole chunks of lines
    are split straight into column arrays — the epoch derives from the
    distinct date strings plus a vectorized time-of-day parse, numeric
    columns convert wholesale — instead of building one
    :class:`LogRecord` per line.  Any *suspect* row (wrong column
    count, a cell the vectorized parse cannot prove well-formed) is
    re-parsed through ``LogRecord.from_row``, so malformed rows raise
    or skip-and-count with exactly the scalar reader's errors and
    :class:`ReadStats` bookkeeping.  The record stream recovered from
    the yielded batches is identical to :func:`read_log`'s, which the
    differential suite pins.

    Semantics mirror :func:`read_log`: ``lenient`` skips malformed
    rows, path reads survive corrupted streams (records batched before
    the corruption point are still yielded), and the same metrics
    counters and fault sites (``elff.read``, ``gzip.open``) fire.  The
    one intended difference: in strict mode a malformed row aborts the
    read before its chunk-mates are yielded, rather than after the
    rows preceding it — strict errors abort the whole read either way.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if isinstance(source, (str, Path)):
        path = Path(source)
        fault_point("elff.read")
        with open_log_reader(path) as handle:
            sentry = _TailSentry(handle) if lenient else None
            lines = iter(sentry) if sentry is not None else handle
            yield from _read_batches(lines, batch_size, lenient, stats,
                                     path, offset_handle=handle)
            if sentry is not None and sentry.torn is not None:
                _settle_incomplete_tail(sentry, stats)
        return
    yield from _read_batches(source, batch_size, lenient, stats, None)


def _read_batches(
    handle,
    batch_size: int,
    lenient: bool,
    stats: ReadStats | None,
    path: Path | None,
    offset_handle=None,
) -> Iterator[RecordBatch]:
    """The chunking loop behind :func:`read_log_batches`.

    Lines with no quoting in play split with a plain ``str.split(',')``
    — about twice as fast as the csv tokenizer.  A line carrying one
    quoted field (the common shape: a user-agent with embedded commas)
    goes through :func:`_split_quoted_line`, which handles exactly the
    cases it can prove equivalent to csv semantics.  Everything else —
    multiple quoted fields, quoted fields spanning physical lines,
    stray quotes, NULs, bare carriage returns — is handed to
    :func:`_referee_rows`, which gathers exactly the continuation
    lines the csv tokenizer would pull and lets a real ``csv.reader``
    rule on the region, so malformed input raises the same
    ``csv.Error`` and one physical line may yield several rows (or a
    row span several lines) exactly as in the scalar reader.
    """
    registry = current_registry()
    kept_total = skipped_total = 0
    corruption: BaseException | None = None
    rows: list[list[str]] = []
    try:
        try:
            for line in handle:
                if '"' in line or "\x00" in line:
                    parsed = (
                        None
                        if "\x00" in line
                        else _split_quoted_line(line.rstrip("\r\n"))
                    )
                    emitted = (
                        (parsed,)
                        if parsed is not None
                        else _referee_rows(line, handle)
                    )
                else:
                    stripped = line.rstrip("\r\n")
                    if not stripped:
                        continue
                    if stripped[0] == "#":
                        _check_directive(stripped.split(","))
                        continue
                    if "\r" in stripped:
                        # An interior CR (a StringIO source; file
                        # handles pre-split these) may terminate a row
                        # mid-line for the csv tokenizer: let it rule.
                        emitted = _referee_rows(line, handle)
                    else:
                        rows.append(stripped.split(","))
                        if len(rows) >= batch_size:
                            batch, kept, skipped = _rows_to_batch(
                                rows, lenient, stats
                            )
                            kept_total += kept
                            skipped_total += skipped
                            rows = []
                            if len(batch):
                                yield batch
                        continue
                for row in emitted:
                    if not row:
                        continue
                    if row[0].startswith(_DIRECTIVE_PREFIX):
                        _check_directive(row)
                        continue
                    rows.append(row)
                    if len(rows) >= batch_size:
                        batch, kept, skipped = _rows_to_batch(
                            rows, lenient, stats
                        )
                        kept_total += kept
                        skipped_total += skipped
                        rows = []
                        if len(batch):
                            yield batch
        except _STREAM_CORRUPTION as error:
            if path is None:
                raise
            corruption = error
        if rows:
            batch, kept, skipped = _rows_to_batch(rows, lenient, stats)
            kept_total += kept
            skipped_total += skipped
            if len(batch):
                yield batch
        if corruption is not None:
            _settle_corruption(
                path, offset_handle if offset_handle is not None else handle,
                corruption, lenient, stats,
            )
    finally:
        # Flushed on exhaustion *and* early close, matching read_log.
        if registry is not None and (kept_total or skipped_total):
            registry.inc("elff.read.records", kept_total)
            registry.inc("elff.read.skipped", skipped_total)


def _split_quoted_line(stripped: str) -> list[str] | None:
    """Split a physical line containing exactly one quoted field.

    Returns the row when the line provably parses the way the csv
    module would — one field that starts with ``"`` at a field
    boundary, ends with ``"`` before a delimiter (or end of line), and
    contains no quotes other than doubled ``\"\"`` escapes — or
    ``None`` for anything it cannot prove (several quoted fields,
    unterminated quotes, junk after the closing quote), which the
    caller hands to a real ``csv.reader``.  About 3x faster than
    spinning up a csv reader per line, and quoted lines are ~a quarter
    of real traffic: user-agent strings carry commas.
    """
    first = stripped.find('"')
    last = stripped.rfind('"')
    if last == first:
        return None  # a lone quote: opener without closer, or vice versa
    if first > 0 and stripped[first - 1] != ",":
        return None  # not at a field start: csv treats it as a literal
    cleaned = stripped[first + 1:last].replace('""', "\x00")
    if '"' in cleaned:
        return None  # stray quotes: several fields, or malformed
    tail = stripped[last + 1:]
    if tail and tail[0] != ",":
        return None  # junk between the closing quote and the delimiter
    row = stripped[: first - 1].split(",") if first else []
    row.append(cleaned.replace("\x00", '"'))
    if tail:
        row.extend(tail[1:].split(","))
    return row


def _referee_rows(line: str, handle) -> Iterator[list[str]]:
    """All rows the csv tokenizer derives from *line*, letting csv rule.

    A physical line the fast paths cannot prove safe may map to
    anything: one row, several rows (a bare ``\\r`` acts as a row
    terminator inside a ``StringIO`` source), or the *start* of a row
    whose quoted field spans further physical lines.  :func:`_quote_open`
    tracks the tokenizer's quoting state, so continuation lines are
    pulled from the live *handle* exactly while a quoted field is open
    — never further — and the gathered region is then drained through
    a real ``csv.reader``, preserving scalar row-splitting, quoting
    and error semantics.  A generator so that rows parsed before a
    mid-region ``csv.Error`` still reach the caller, as they would
    from the scalar reader's stream tokenizer.
    """
    region = [line]
    open_field = _quote_open(line, False)
    while open_field:
        more = next(handle, None)
        if more is None:
            break
        region.append(more)
        open_field = _quote_open(more, open_field)
    yield from csv.reader(region)


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


def _rows_to_batch(
    rows: list[list[str]],
    lenient: bool,
    stats: ReadStats | None,
) -> tuple[RecordBatch, int, int]:
    """Convert one chunk of data rows into a batch.

    Returns ``(batch, kept, skipped)``.  The vectorized path handles
    every row it can *prove* parses like ``LogRecord.from_row``; rows
    it cannot (wrong width, non-integer numeric cell, a date or time
    outside the canonical zero-padded in-range form) fall back to
    ``from_row`` itself, in stream order, so values, error messages,
    and skip decisions are identical to the scalar reader — including
    oddities the fast path refuses but ``strptime`` accepts.
    """
    total = len(rows)
    if not total:
        return RecordBatch.empty(), 0, 0
    width = len(FIELDS)
    suspects = {index for index, row in enumerate(rows) if len(row) != width}

    if len(suspects) < total:
        if suspects:
            candidate_index: list[int] | range = [
                index for index in range(total) if index not in suspects
            ]
            grid = np.array(
                [rows[index] for index in candidate_index], dtype=object
            )
        else:
            candidate_index = range(total)
            grid = np.array(rows, dtype=object)

        bad_positions: set[int] = set()
        numeric: dict[str, np.ndarray] = {}
        for attr in _NUMERIC_ATTRS:
            column = grid[:, _FIELD_INDEX[attr.replace("_", "-")]]
            try:
                numeric[attr] = column.astype(np.int64)
            except (ValueError, TypeError, OverflowError):
                values, bad = _salvage_ints(column)
                numeric[attr] = np.asarray(values, dtype=np.int64)
                bad_positions.update(bad)

        dates = grid[:, _FIELD_INDEX["date"]].tolist()
        distinct_dates = set(dates)
        day_base: dict[str, int] = {}
        for date in distinct_dates:
            try:
                day_base[date] = date_time_to_epoch(date, "00:00:00")
            except ValueError:
                bad_positions.update(
                    position for position, cell in enumerate(dates)
                    if cell == date
                )
        seconds, time_ok = _parse_times(grid[:, _FIELD_INDEX["time"]])
        bad_positions.update(np.nonzero(~time_ok)[0].tolist())
        if len(distinct_dates) == 1 and day_base:
            # One log-day per chunk is the overwhelmingly common case.
            epochs = seconds + next(iter(day_base.values()))
        else:
            epochs = np.fromiter(
                (day_base.get(date, 0) for date in dates),
                dtype=np.int64, count=len(dates),
            ) + seconds
        suspects.update(candidate_index[position] for position in bad_positions)
    else:
        candidate_index, bad_positions = [], set()
        grid = np.empty((0, width), dtype=object)
        numeric = {
            attr: np.empty(0, dtype=np.int64) for attr in _NUMERIC_ATTRS
        }
        epochs = np.empty(0, dtype=np.int64)

    # Resolve every suspect through the scalar parser, in stream order.
    fixed: dict[int, LogRecord] = {}
    dropped: set[int] = set()
    for index in sorted(suspects):
        try:
            fixed[index] = LogRecord.from_row(rows[index])
        except (ValueError, IndexError) as error:
            if not lenient:
                raise LogFormatError(f"malformed row: {error}") from error
            dropped.add(index)
            if stats is not None:
                stats.skipped += 1
                if stats.first_error is None:
                    stats.first_error = str(error)

    kept = total - len(dropped)
    if stats is not None:
        stats.records += kept
    if not kept:
        return RecordBatch.empty(), 0, len(dropped)

    if not fixed and not bad_positions:
        # Fast common path: every kept row came through vectorized.
        # Object columns stay views into the row grid — downstream
        # consumers never mutate batch columns in place.
        columns: dict[str, np.ndarray] = {"epoch": epochs}
        for attr, dtype in BATCH_COLUMNS.items():
            if attr == "epoch":
                continue
            if dtype == "int64":
                columns[attr] = numeric[attr]
            else:
                columns[attr] = grid[:, _FIELD_INDEX[attr.replace("_", "-")]]
        return RecordBatch(columns), kept, len(dropped)

    # Interleave vectorized rows with scalar-fixed rows in stream order.
    vector_positions = np.asarray(
        [
            position for position in range(len(candidate_index))
            if position not in bad_positions
        ],
        dtype=np.intp,
    )
    kept_index = [index for index in range(total) if index not in dropped]
    slot_of = {index: slot for slot, index in enumerate(kept_index)}
    vector_slots = np.asarray(
        [slot_of[candidate_index[position]] for position in vector_positions],
        dtype=np.intp,
    )
    fixed_order = sorted(fixed)
    fixed_slots = np.asarray(
        [slot_of[index] for index in fixed_order], dtype=np.intp
    )
    fixed_records = [fixed[index] for index in fixed_order]
    columns = {}
    for attr, dtype in BATCH_COLUMNS.items():
        out = np.empty(kept, dtype=dtype)
        if attr == "epoch":
            out[vector_slots] = epochs[vector_positions]
        elif dtype == "int64":
            out[vector_slots] = numeric[attr][vector_positions]
        else:
            column = grid[:, _FIELD_INDEX[attr.replace("_", "-")]]
            out[vector_slots] = column[vector_positions]
        out[fixed_slots] = [
            getattr(record, attr) for record in fixed_records
        ]
        columns[attr] = out
    return RecordBatch(columns), kept, len(dropped)


def _salvage_ints(column: np.ndarray) -> tuple[list[int], list[int]]:
    """Per-cell retry after a wholesale ``int()`` conversion failed:
    returns the values (0 placeholders at failures) and the failing
    positions."""
    values: list[int] = []
    bad: list[int] = []
    for position, cell in enumerate(column):
        try:
            values.append(int(cell))
        except ValueError:
            values.append(0)
            bad.append(position)
    return values, bad


def _parse_times(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``HH:MM:SS`` → seconds-of-day.

    Returns ``(seconds, ok)``; rows where ``ok`` is False (anything
    but the canonical zero-padded in-range form) carry garbage seconds
    and must go through the scalar parser instead.
    """
    arr = np.asarray(times, dtype="<U16")
    count = len(arr)
    ok = np.char.str_len(arr) == 8
    codes = arr.astype("<U8").view(np.uint32).reshape(count, 8)
    digits = codes.astype(np.int64) - ord("0")
    digit_ok = (
        ((digits >= 0) & (digits <= 9))[:, (0, 1, 3, 4, 6, 7)].all(axis=1)
    )
    colon_ok = (codes[:, (2, 5)] == ord(":")).all(axis=1)
    hours = digits[:, 0] * 10 + digits[:, 1]
    minutes = digits[:, 3] * 10 + digits[:, 4]
    seconds = digits[:, 6] * 10 + digits[:, 7]
    ok &= (
        digit_ok & colon_ok & (hours < 24) & (minutes < 60) & (seconds < 60)
    )
    return hours * 3600 + minutes * 60 + seconds, ok


def tail_records(
    path: Path | str,
    *,
    offset: int = 0,
    stats: ReadStats | None = None,
) -> tuple[list[LogRecord], int]:
    """One tail-safe poll over a growing ELFF log (gzip-transparent).

    Parses the complete records found at or after byte *offset* (for
    ``.gz`` paths an offset into the *uncompressed* stream, reached by
    re-inflating the prefix) and returns ``(records, next_offset)``,
    where *next_offset* is the position the next poll should resume
    from.  Reads are lenient and line-framed:

    * a torn final line — a writer caught mid-flush, no terminator
      yet — is left unread, counted into ``stats.incomplete_tail``,
      and *next_offset* points at its first byte, so no record is ever
      dropped or double-read across polls;
    * a stream that dies mid-read (a ``.gz`` member still being
      written, byte noise) is settled like :func:`read_log` lenient
      mode — the records on complete lines before the failure are
      returned, the corruption counted — and *next_offset* advances
      exactly past the lines that parsed.

    The one framing assumption is one record per physical line (quoted
    fields must not span lines), which holds for every SG-9000 field.
    """
    path = Path(path)
    if stats is None:
        stats = ReadStats()
    records: list[LogRecord] = []
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
            for record in read_log(iter(sentry), lenient=True, stats=stats):
                records.append(record)
        except _STREAM_CORRUPTION as error:
            _settle_corruption(path, handle, error, True, stats)
        if sentry.torn is not None:
            _settle_incomplete_tail(sentry, stats)
    return records, sentry.consumed


def read_log_rows(source: Path | io.TextIOBase) -> Iterator[list[str]]:
    """Stream raw CSV rows (no parsing into records).

    Used by the columnar loader, which converts straight to arrays and
    does not need per-row ``LogRecord`` objects.
    """
    if isinstance(source, (str, Path)):
        with open_log_reader(source) as handle:
            yield from read_log_rows(handle)
        return
    for row in csv.reader(source):
        if not row or row[0].startswith(_DIRECTIVE_PREFIX):
            continue
        if len(row) != len(FIELDS):
            raise LogFormatError(f"expected {len(FIELDS)} columns, got {len(row)}")
        yield row
