"""The :class:`RecordBatch` columnar record container.

A :class:`RecordBatch` is the unit of the pipeline's column-batch
execution mode: one numpy array per
:class:`~repro.logmodel.record.LogRecord` field, all equal length,
carrying **every** wire field (not just the analysis subset in
:data:`~repro.frame.io.FRAME_COLUMNS`) so a batch can round-trip to
records and to ELFF rows byte-identically.

Batches are immutable in spirit: transforming operations
(:meth:`~RecordBatch.take`, :meth:`~RecordBatch.with_column`,
:func:`concat_batches`) return new batches sharing column arrays where
possible.  The laws the batched pipeline relies on — concat/slice
round-trips, ``from_records``/``to_records`` inversion — are
property-tested in ``tests/test_pipeline.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.logmodel.classify import classify_batch
from repro.logmodel.fields import FIELDS
from repro.logmodel.record import LogRecord, epoch_to_date_time

#: Batch columns in LogRecord attribute order, with their dtypes.
#: Numeric fields use int64; everything else is an object column of
#: Python strings (variable length, massively repetitive → internable).
BATCH_COLUMNS: dict[str, str] = {
    "epoch": "int64",
    "c_ip": "object",
    "s_ip": "object",
    "cs_host": "object",
    "cs_uri_scheme": "object",
    "cs_uri_port": "int64",
    "cs_uri_path": "object",
    "cs_uri_query": "object",
    "cs_uri_ext": "object",
    "cs_method": "object",
    "cs_user_agent": "object",
    "cs_referer": "object",
    "sc_filter_result": "object",
    "x_exception_id": "object",
    "cs_categories": "object",
    "sc_status": "int64",
    "s_action": "object",
    "rs_content_type": "object",
    "time_taken": "int64",
    "sc_bytes": "int64",
    "cs_bytes": "int64",
    "cs_username": "object",
    "cs_auth_group": "object",
    "x_virus_id": "object",
    "s_supplier_name": "object",
}

#: Wire field name → batch column name (``date``/``time`` fold into
#: ``epoch`` exactly as they do on :class:`LogRecord`).
_FIELD_TO_COLUMN = {name.replace("-", "_"): name for name in FIELDS}


class RecordBatch:
    """A column-oriented batch of log records.

    The pipeline's record currency: sources yield batches, stages
    transform them column-wise, and sinks fold them via ``add_batch``.
    ``iter_records``/``to_records`` recover the exact
    :class:`LogRecord` stream, which is what
    :class:`~repro.pipeline.RecordListSink` and the differential
    equivalence suite lean on.
    """

    __slots__ = ("_columns", "_length")

    def __init__(self, columns: dict[str, np.ndarray]):
        if set(columns) != set(BATCH_COLUMNS):
            missing = set(BATCH_COLUMNS) - set(columns)
            extra = set(columns) - set(BATCH_COLUMNS)
            raise ValueError(
                f"RecordBatch needs exactly the record columns "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        lengths = {len(array) for array in columns.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"column lengths differ: "
                f"{ {name: len(a) for name, a in columns.items()} }"
            )
        self._columns = {
            name: np.asarray(columns[name], dtype=BATCH_COLUMNS[name])
            for name in BATCH_COLUMNS
        }
        self._length = lengths.pop() if lengths else 0

    # -- construction ----------------------------------------------------

    @classmethod
    def empty(cls) -> "RecordBatch":
        """The zero-row batch (identity of :func:`concat_batches`)."""
        return cls(
            {
                name: np.empty(0, dtype=dtype)
                for name, dtype in BATCH_COLUMNS.items()
            }
        )

    @classmethod
    def from_records(cls, records: Iterable[LogRecord]) -> "RecordBatch":
        """Columnarize an iterable of records (order preserved)."""
        records = (
            records if isinstance(records, (list, tuple)) else list(records)
        )
        if not records:
            return cls.empty()
        return cls(
            {
                name: np.asarray(
                    [getattr(record, name) for record in records],
                    dtype=dtype,
                )
                for name, dtype in BATCH_COLUMNS.items()
            }
        )

    # -- basic protocol --------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def column_names(self) -> list[str]:
        """Column names, in LogRecord attribute order."""
        return list(self._columns)

    def col(self, name: str) -> np.ndarray:
        """The raw numpy array behind column *name*."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; have {sorted(self._columns)}"
            ) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordBatch):
            return NotImplemented
        if self._length != other._length:
            return False
        return all(
            (self._columns[name] == other._columns[name]).all()
            for name in BATCH_COLUMNS
        )

    def __repr__(self) -> str:
        return f"RecordBatch({self._length} records)"

    # -- transformation --------------------------------------------------

    def take(self, selector: np.ndarray | slice) -> "RecordBatch":
        """Row subset by boolean mask, integer indices, or slice."""
        if isinstance(selector, np.ndarray) and selector.dtype == bool:
            if len(selector) != self._length:
                raise ValueError("boolean mask length mismatch")
        return RecordBatch(
            {name: array[selector] for name, array in self._columns.items()}
        )

    def slice(self, start: int, stop: int | None = None) -> "RecordBatch":
        """Contiguous row range (shares the underlying arrays)."""
        return self.take(np.s_[start:stop])

    def split(self, batch_size: int) -> Iterator["RecordBatch"]:
        """Re-chunk into batches of at most *batch_size* rows."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        for start in range(0, self._length, batch_size):
            yield self.slice(start, start + batch_size)

    def with_column(
        self, name: str, values: np.ndarray | Sequence
    ) -> "RecordBatch":
        """A new batch with column *name* replaced."""
        if name not in BATCH_COLUMNS:
            raise KeyError(f"no column {name!r}")
        array = np.asarray(values, dtype=BATCH_COLUMNS[name])
        if len(array) != self._length:
            raise ValueError("replacement column length mismatch")
        columns = dict(self._columns)
        columns[name] = array
        return RecordBatch(columns)

    # -- record / wire views ---------------------------------------------

    def iter_records(self) -> Iterator[LogRecord]:
        """Yield the batch as :class:`LogRecord` objects, in order."""
        names = list(BATCH_COLUMNS)
        cells = [self._columns[name].tolist() for name in names]
        for row in zip(*cells):
            yield LogRecord(**dict(zip(names, row)))

    def to_records(self) -> list[LogRecord]:
        """The batch as a record list (inverse of :meth:`from_records`)."""
        return list(self.iter_records())

    def to_rows(self) -> list[tuple]:
        """The 26-column CSV rows, in schema order.

        The ``date``/``time`` strings are derived from ``epoch``
        vectorized over the distinct log days, and the numeric cells
        stay Python ints (``csv.writer`` stringifies them exactly like
        :meth:`LogRecord.to_row`'s ``str()`` calls), so serializing a
        batch is byte-identical to serializing its records one by one.
        """
        if not self._length:
            return []
        epochs = self._columns["epoch"]
        days = epochs // 86400
        seconds = epochs - days * 86400
        dates = _day_strings(days)
        times = _time_strings(seconds)
        wire = {"date": dates, "time": times}
        for name in BATCH_COLUMNS:
            if name == "epoch":
                continue
            wire[_FIELD_TO_COLUMN[name]] = self._columns[name].tolist()
        return list(zip(*(wire[field] for field in FIELDS)))

    def traffic_classes(self, proxied_separate: bool = False) -> np.ndarray:
        """Vectorized :attr:`LogRecord.traffic_class` for every row."""
        return classify_batch(
            self._columns["sc_filter_result"],
            self._columns["x_exception_id"],
            proxied_separate=proxied_separate,
        )


def _day_strings(days: np.ndarray) -> list[str]:
    """``YYYY-MM-DD`` per row, computed once per distinct log day."""
    uniques, inverse = np.unique(days, return_inverse=True)
    mapped = np.array(
        [epoch_to_date_time(int(day) * 86400)[0] for day in uniques],
        dtype=object,
    )
    return mapped[inverse].tolist()

_DIGIT_PAIRS = np.array([f"{i:02d}" for i in range(60)], dtype=object)


def _time_strings(seconds: np.ndarray) -> list[str]:
    """``HH:MM:SS`` per row from seconds-of-day, via zero-padded
    digit-pair lookup tables (no per-row formatting calls)."""
    hours = _DIGIT_PAIRS[seconds // 3600]
    minutes = _DIGIT_PAIRS[(seconds // 60) % 60]
    secs = _DIGIT_PAIRS[seconds % 60]
    colon = np.full(len(seconds), ":", dtype=object)
    return (hours + colon + minutes + colon + secs).tolist()


def concat_batches(batches: Iterable[RecordBatch]) -> RecordBatch:
    """Concatenate batches in order (empty input → the empty batch)."""
    batches = [batch for batch in batches if len(batch)]
    if not batches:
        return RecordBatch.empty()
    if len(batches) == 1:
        return batches[0]
    return RecordBatch(
        {
            name: np.concatenate([batch.col(name) for batch in batches])
            for name in BATCH_COLUMNS
        }
    )
