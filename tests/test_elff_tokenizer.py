"""Differential suite for the batch reader's array tokenizer.

``read_log_batches`` proves whole chunks of lines with array passes
and sends every line it cannot prove through the per-line path (the
csv referee, then ``LogRecord.from_row``).  Its contract is the scalar
reader's: the records :func:`read_log` yields, the same
:class:`ReadStats` and the same strict-mode error, from a path or a
stream, at every batch size, and every projected column equal to the
full read's.

The generated logs mix provable rows with every shape the tokenizer
must refuse: quotes it cannot prove (two quoted fields, a quote in
mid-field, a ``""`` escape, a lone quote, a quoted field spanning
lines over a line that looks like a whole row), NULs, a bare CR,
non-ASCII cells, integer cells ``int`` reads differently or that do
not fit their column, malformed dates and times, directives and blank
lines in mid-file, a line longer than csv's field size limit and a
torn last line.  The property runs at the reader's chunk size and at
chunks of a few lines, so that every shape also meets a chunk
boundary; fixed logs of more than one chunk check the same boundaries
at the real size, for path, stream and tail reads.
"""

from __future__ import annotations

import csv
import gzip
import io
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.streaming import StreamingAnalysis
from repro.frame.batch import BATCH_COLUMNS
from repro.frame.io import FRAME_COLUMNS
from repro.logmodel import elff
from repro.logmodel.elff import (
    LogFormatError,
    ReadStats,
    elff_header,
    read_log,
    read_log_batches,
    tail_batches,
)
from repro.logmodel.fields import FIELDS
from tests.helpers import DEFAULT_EPOCH, make_record

BATCH_SIZES = (1, 7, 64, 10_000)

#: The reader's chunk size, and chunks so small that the generated
#: logs cross several boundaries.
CHUNK_SIZES = (1, 2, 5, elff._CHUNK_LINES)

PROJECTIONS = (
    StreamingAnalysis.COLUMNS,
    tuple(FRAME_COLUMNS),
    tuple(BATCH_COLUMNS),
)

#: csv's field size limit while the property runs, so that a line
#: longer than it stays small.
FIELD_LIMIT = 300

#: Raw cells that replace a field of an otherwise good row: the ones
#: the tokenizer proves, and the ones it must leave to the referee and
#: ``from_row`` (which keep some and skip others).
ODD_CELLS = (
    ("cs-user-agent", '"UA, with commas"'),
    ("cs-user-agent", '""'),
    ("cs-user-agent", '"say ""hi"" again"'),
    ("cs-user-agent", "ab\"cd\""),
    ("cs-user-agent", 'ab"c,d"'),
    ("cs-user-agent", '"tail junk" x'),
    ("cs-user-agent", 'lone"'),
    ("cs-user-agent", '"lone'),
    ("s-supplier-name", '"last, quoted"'),
    ("cs-uri-path", '"/a,b"'),
    ("cs-host", "nul\x00byte"),
    ("cs-host", "a\rb"),
    ("cs-host", "é.example"),
    ("cs-user-agent", "بحث 😀"),
    ("cs-uri-query", '"q=é,ب"'),
    ("sc-bytes", "+5"),
    ("sc-bytes", "-5"),
    ("sc-bytes", " 5"),
    ("sc-bytes", "5 "),
    ("sc-bytes", "9" * 18),
    ("sc-bytes", "9" * 19),
    ("sc-bytes", "9" * 20),
    ("time-taken", ""),
    ("time-taken", "1_000"),
    ("time-taken", "٣"),
    ("time-taken", '"42"'),
    ("sc-status", "3000000000"),
    ("sc-status", "0000000000200"),
    ("cs-uri-port", "2147483647"),
    ("cs-uri-port", "2147483648"),
    ("time", "1:02:03"),
    ("time", "24:00:00"),
    ("time", "23:59:60"),
    ("time", "12:60:00"),
    ("time", "10:00:001"),
    ("time", "10:00:00 "),
    ("time", " 10:00:00"),
    ("date", "2011-8-01"),
    ("date", "2011-02-30"),
    ("date", "2011-08-011"),
    ("date", "20110801"),
    ("date", '"2011-08-01"'),
)


def _cells(**overrides) -> list[str]:
    return make_record(**overrides).to_row()


good_rows = st.builds(
    _cells,
    cs_host=st.sampled_from(["www.a.com", "b.com", "SUB.C.org", "d.net."]),
    x_exception_id=st.sampled_from(["-", "policy_denied", "tcp_error"]),
    sc_filter_result=st.sampled_from(["OBSERVED", "DENIED", "PROXIED"]),
    cs_user_agent=st.sampled_from(["-", "curl/7.19", "Mozilla/5.0 (X, Y)"]),
    epoch=st.integers(1_311_292_800, 1_312_675_199),
    sc_bytes=st.integers(0, 10**12),
)
terminators = st.sampled_from(["\r\n", "\n"])


@st.composite
def odd_rows(draw) -> str:
    """A good row with one or two raw cells replaced, or a field
    dropped or added."""
    cells = draw(good_rows)
    for field, raw in draw(st.lists(st.sampled_from(ODD_CELLS), min_size=1,
                                    max_size=2)):
        cells[FIELDS.index(field)] = raw
    width = draw(st.sampled_from([26, 26, 26, 25, 27]))
    cells = (cells + ["extra"])[:width]
    return ",".join(cells) + draw(terminators)


@st.composite
def spanning_rows(draw) -> str:
    """A user agent whose quoted field spans physical lines, one of
    which looks like a whole row."""
    cells = draw(good_rows)
    agent = FIELDS.index("cs-user-agent")
    inner = ",".join(draw(good_rows))
    head = ",".join(cells[:agent])
    tail = ",".join(cells[agent + 1:])
    return (f'{head},"multi{draw(terminators)}{inner}{draw(terminators)}'
            f'end",{tail}{draw(terminators)}')


@st.composite
def lines(draw) -> str:
    kind = draw(st.sampled_from(
        ["good"] * 6 + ["odd"] * 4 + ["span", "blank", "directive", "long"]
    ))
    if kind == "good":
        return ",".join(draw(good_rows)) + draw(terminators)
    if kind == "odd":
        return draw(odd_rows())
    if kind == "span":
        return draw(spanning_rows())
    if kind == "blank":
        return draw(terminators)
    if kind == "directive":
        return draw(st.sampled_from([
            "#Remark: a, b", "#Software: x", f"#Fields: {' '.join(FIELDS)}",
        ])) + draw(terminators)
    cells = draw(good_rows)
    # Longer than the field limit as a line; as one field only when
    # the path is.
    cells[FIELDS.index("cs-uri-path")] = "/" + "p" * draw(
        st.sampled_from([120, 2 * FIELD_LIMIT])
    )
    cells[FIELDS.index("cs-user-agent")] = "u" * 150
    return ",".join(cells) + draw(terminators)


@st.composite
def logs(draw) -> str:
    body = draw(st.permutations(
        draw(st.lists(lines(), max_size=16))
        + draw(st.lists(odd_rows(), min_size=3, max_size=10))
    ))
    if draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))),
                    "#Fields: date time foo bar\r\n")
    text = elff_header() + "".join(body)
    if draw(st.booleans()):
        text += ",".join(draw(good_rows))  # a torn last line
    return text


def _outcome(read) -> tuple:
    """``(records, stats)`` of ``read(stats)``, or the type and message
    of the exception it raises."""
    stats = ReadStats()
    try:
        return list(read(stats)), stats
    except Exception as error:
        return type(error), str(error)


def _columns(read, names) -> tuple:
    """``(columns, stats)`` of a batch read of columns *names*, with
    each batch's column names checked, or the read's exception."""
    stats = ReadStats()
    try:
        batches = list(read(stats))
    except Exception as error:
        return type(error), str(error)
    assert all(batch.column_names == list(names) for batch in batches)
    return {
        name: np.concatenate([
            np.empty(0, dtype=BATCH_COLUMNS[name]),
            *(batch.col(name) for batch in batches),
        ])
        for name in names
    }, stats


@contextmanager
def _field_limit(limit: int):
    previous = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(previous)


def _chunk_lines(count: int):
    """Read in chunks of *count* lines (at most the reader's own)."""
    return mock.patch.object(elff, "_CHUNK_LINES", count)


def _check_every_read(path, text=None) -> None:
    """Every batch read of *path* (and of a stream of *text*, when
    given), lenient and strict, at every batch size and projection,
    against :func:`read_log`."""
    sources = [lambda: path]
    if text is not None:
        sources.append(lambda: io.StringIO(text))
    for source in sources:
        for lenient in (True, False):
            reference = _outcome(lambda stats: read_log(
                source(), lenient=lenient, stats=stats
            ))
            for batch_size in BATCH_SIZES:
                _check(source, lenient, batch_size, reference)


def _check(source, lenient, batch_size, reference) -> None:
    def batches(stats, columns=None):
        for batch in read_log_batches(
            source(), batch_size, lenient=lenient, stats=stats,
            columns=columns,
        ):
            assert 0 < len(batch) <= batch_size
            yield batch

    full = _outcome(lambda stats: (
        record
        for batch in batches(stats)
        for record in batch.iter_records()
    ))
    assert full == reference
    whole = _columns(batches, tuple(BATCH_COLUMNS))
    for columns in PROJECTIONS:
        projected = _columns(
            lambda stats: batches(stats, columns), columns
        )
        if isinstance(whole[0], type):  # both raised
            assert projected == whole
            continue
        values, stats = projected
        assert stats == whole[1]
        for name in columns:
            assert values[name].dtype == BATCH_COLUMNS[name]
            assert values[name].tolist() == whole[0][name].tolist()


class TestTokenizerAgainstScalarReader:
    @pytest.mark.parametrize("chunk_lines", CHUNK_SIZES)
    @settings(max_examples=60, deadline=None)
    @given(text=logs())
    def test_every_read_equals_read_log(self, chunk_lines, text,
                                        tmp_path_factory):
        path = tmp_path_factory.mktemp("tokenizer") / "log.log"
        path.write_text(text, encoding="utf-8", newline="")
        with _field_limit(FIELD_LIMIT), _chunk_lines(chunk_lines):
            _check_every_read(path, text)

    @pytest.mark.parametrize("date, kept", [("2011-8-01", 3),
                                            ("2011-02-30", 0)])
    def test_a_chunk_whose_one_date_is_unproven(self, tmp_path, date,
                                                 kept):
        """Every row of the chunk carries the same date, one the
        tokenizer does not prove: the rows take the per-line path,
        where ``from_row`` keeps or skips them."""
        cells = make_record().to_row()
        cells[FIELDS.index("date")] = date
        text = elff_header() + (",".join(cells) + "\r\n") * 3
        path = tmp_path / "dates.log"
        path.write_text(text, newline="")
        _check_every_read(path, text)
        stats = ReadStats()
        list(read_log_batches(path, 8, lenient=True, stats=stats))
        assert (stats.records, stats.skipped) == (kept, 3 - kept)


def _row(i: int) -> str:
    return ",".join(make_record(
        epoch=DEFAULT_EPOCH + i, cs_host=f"h{i}.com"
    ).to_row()) + "\r\n"


def _rows(start: int, stop: int) -> str:
    return "".join(_row(i) for i in range(start, stop))


def _spanning_row(i: int, *continuations: str) -> str:
    """Row *i* with a quoted user agent that opens on its first line
    and closes on its last, with *continuations* between."""
    cells = make_record(epoch=DEFAULT_EPOCH + i, cs_host=f"s{i}.com").to_row()
    agent = FIELDS.index("cs-user-agent")
    return (",".join(cells[:agent]) + ',"multi\r\n'
            + "".join(continuations)
            + 'end",' + ",".join(cells[agent + 1:]) + "\r\n")


#: The header's three directive lines come first in the first chunk.
HEADER_LINES = 3


class TestChunkBoundaries:
    """Shapes that straddle the reader's chunks, at the real chunk
    size: the referee reading on into the next chunk, a source failure
    or a torn line gathered with the next chunk, and a tail poll
    handing back a record opened on a chunk's last line."""

    def test_a_quoted_field_across_a_chunk_boundary(self, tmp_path):
        """The user agent of the row on line 1,023 runs to line 1,026,
        over a line that looks like a whole row."""
        first = elff._CHUNK_LINES - 1 - HEADER_LINES
        text = (elff_header() + _rows(0, first)
                + _spanning_row(first, _row(9999), "more\n")
                + _rows(first + 1, first + 80))
        assert text.splitlines()[first + HEADER_LINES].endswith('"multi')
        path = tmp_path / "span.log"
        path.write_text(text, newline="")
        _check_every_read(path, text)
        stats = ReadStats()
        batch, offset, refusal = tail_batches(path, stats=stats)
        assert list(batch.iter_records()) == list(read_log(path))
        assert (offset, refusal) == (len(text), None)
        assert (stats.records, stats.skipped) == (first + 80, 0)

    def test_a_decode_error_in_the_next_chunk(self, tmp_path):
        """A field opened on a chunk's last line, and bytes that are
        not UTF-8 where the next chunk starts."""
        first = elff._CHUNK_LINES - 1 - HEADER_LINES
        data = (elff_header() + _rows(0, first + 1)).encode() \
            + _spanning_row(first + 1, "x\xff\n").encode("latin-1") \
            + _rows(first + 2, first + 40).encode()
        path = tmp_path / "bad.log"
        path.write_bytes(data)
        _check_every_read(path)

    def test_a_tail_poll_torn_after_a_whole_chunk(self, tmp_path):
        """A whole chunk, then a torn line gathered alone: the poll
        stops at the torn line, and the next reads it once."""
        rows = elff._CHUNK_LINES - HEADER_LINES
        whole = elff_header() + _rows(0, rows)
        finished = whole + _rows(rows, rows + 5)
        path = tmp_path / "torn.log"
        path.write_text(finished[:len(whole) + 30], newline="")
        stats = ReadStats()
        first, offset, _ = tail_batches(path, stats=stats)
        assert (len(first), offset) == (rows, len(whole))
        assert stats.incomplete_tail == 1
        path.write_text(finished, newline="")
        second, offset, _ = tail_batches(path, offset=offset, stats=stats)
        assert offset == len(finished)
        assert [*first.iter_records(), *second.iter_records()] \
            == list(read_log(path))

    @pytest.mark.parametrize("torn", [True, False])
    def test_a_tail_poll_hands_back_a_field_opened_on_a_chunk_end(
        self, tmp_path, torn
    ):
        """The quoted field opens on the first chunk's last line and is
        still open where the poll's input ends, in a torn line of the
        next chunk or at the boundary itself: the poll hands the record
        back whole, and the next poll reads it once."""
        rows = elff._CHUNK_LINES - 1 - HEADER_LINES
        before = elff_header() + _rows(0, rows)
        finished = before + _spanning_row(rows, "line\n") \
            + _rows(rows + 1, rows + 5)
        cut = len(before) + finished[len(before):].index("\n") + 1
        path = tmp_path / "open.log"
        path.write_text(finished[:cut + 2 * torn], newline="")
        stats = ReadStats()
        first, offset, _ = tail_batches(path, stats=stats)
        assert (len(first), offset) == (rows, len(before))
        assert stats.incomplete_tail == 1
        path.write_text(finished, newline="")
        second, offset, _ = tail_batches(path, offset=offset, stats=stats)
        assert offset == len(finished)
        assert [*first.iter_records(), *second.iter_records()] \
            == list(read_log(path))
        assert stats.skipped == 0


class TestRefusedLines:
    """A line csv refuses ends the batch read where it ends
    ``read_log``'s, although the batch reader has gathered further."""

    def test_the_read_stops_before_a_torn_line(self, tmp_path):
        """A quoted field opens, runs over a line too long for csv and
        on to a torn last line: the read stops at the long line, so it
        never reaches the torn one (no incomplete tail)."""
        cells = make_record().to_row()
        cells[FIELDS.index("cs-user-agent")] = '"open'
        text = (elff_header() + _rows(0, 3) + ",".join(cells) + "\r\n"
                + "p" * (2 * FIELD_LIMIT) + "\r\n" + _rows(3, 5)
                + _row(5)[:-12])
        path = tmp_path / "open.log"
        path.write_text(text, newline="")
        stats = ReadStats()
        with _field_limit(FIELD_LIMIT):
            _check_every_read(path, text)
            list(read_log_batches(path, 64, lenient=True, stats=stats))
        assert (stats.records, stats.corrupted, stats.incomplete_tail) \
            == (3, 1, 0)

    @pytest.mark.parametrize("name", ["log.log", "log.log.gz"])
    @pytest.mark.parametrize("chunk_lines", CHUNK_SIZES)
    def test_a_refused_field_names_read_logs_offset(self, tmp_path, name,
                                                    chunk_lines):
        """A field over csv's limit a hundred rows into a file of two
        thousand: the strict error names the byte offset ``read_log``
        names, although the batch reader has read further ahead."""
        cells = make_record().to_row()
        cells[FIELDS.index("cs-uri-path")] = "/" + "p" * (2 * FIELD_LIMIT)
        text = (elff_header() + _rows(0, 100) + ",".join(cells) + "\r\n"
                + _rows(100, 2000))
        path = tmp_path / name
        with (gzip.open(path, "wt", encoding="utf-8", newline="")
              if name.endswith(".gz") else open(path, "w", newline="")) \
                as handle:
            handle.write(text)
        with _field_limit(FIELD_LIMIT), _chunk_lines(chunk_lines):
            with pytest.raises(LogFormatError) as scalar:
                list(read_log(path))
            with pytest.raises(LogFormatError) as batched:
                list(read_log_batches(path, 64))
        assert "corrupted log stream at byte" in str(scalar.value)
        assert str(batched.value) == str(scalar.value)


class TestProjection:
    def test_projected_batches_hold_only_their_columns(self):
        text = elff_header() + "".join(
            ",".join(make_record(cs_host=f"h{i}.com").to_row()) + "\r\n"
            for i in range(5)
        )
        batches = list(read_log_batches(
            io.StringIO(text), 2, columns=StreamingAnalysis.COLUMNS
        ))
        assert [len(batch) for batch in batches] == [2, 2, 1]
        assert all(
            batch.column_names == list(StreamingAnalysis.COLUMNS)
            for batch in batches
        )
        hosts = np.concatenate([batch.col("cs_host") for batch in batches])
        assert hosts.tolist() == [f"h{i}.com" for i in range(5)]

    @pytest.mark.parametrize("columns", [(), ("date",), ("epoch", "epoch")])
    def test_rejects_a_bad_projection(self, columns):
        with pytest.raises(ValueError, match="distinct batch columns"):
            list(read_log_batches(io.StringIO(elff_header()), 8,
                                  columns=columns))
