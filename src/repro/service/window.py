"""Sliding-window incremental analysis state.

The batch engine reduces one :class:`~repro.analysis.streaming.
StreamingAnalysis` per shard; the live service needs the same numbers
*per day*, over a window that slides as new log-days arrive.  The
monoid merge laws make that essentially free: a :class:`WindowStore`
keeps one accumulator per log-day, evicting a day is dropping its
accumulator, and any window's analysis is a fresh merge of the
retained day accumulators — no re-scan of records, ever.

:class:`WindowStore` is itself a pipeline :class:`~repro.pipeline.
Sink` (``add``/``add_batch``/``fresh``/``merge``), so the service's
fold path is the same contract every batch sink satisfies, and with
``retention_days=None`` it obeys the full monoid laws the engine's
reduce relies on.  With retention, the weaker *eviction-restriction*
law holds instead — the windowed analysis equals a fresh batch analyze
over exactly the retained days' records — which the property tests
pin.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.streaming import StreamingAnalysis
from repro.frame.batch import RecordBatch
from repro.logmodel.record import LogRecord
from repro.pipeline.core import Sink

#: Seconds per log-day; day ids are ``epoch // DAY_SECONDS``, matching
#: :attr:`StreamingAnalysis.day_volumes` keys.
DAY_SECONDS = 86_400


class WindowStore(Sink):
    """Per-day :class:`StreamingAnalysis` accumulators with windowing.

    ``retention_days=None`` retains every day seen (a true monoid
    sink).  With ``retention_days=N`` only the *newest* N distinct
    days survive: when a record opens day N+1, the oldest retained
    day's accumulator is dropped whole (``evicted_days``) — and a
    record older than the full retained window counts straight into
    ``evicted_records``, never resurrecting a closed day.  Both
    counters are the same however the stream is chunked.  Memory is
    bounded by N times the per-day distinct-domain footprint,
    independent of record count.
    """

    def __init__(self, retention_days: int | None = None) -> None:
        if retention_days is not None and retention_days < 1:
            raise ValueError(
                f"retention_days must be >= 1, got {retention_days}"
            )
        self.retention_days = retention_days
        self.days: dict[int, StreamingAnalysis] = {}
        self.evicted_days = 0
        self.evicted_records = 0

    # -- folding -----------------------------------------------------------

    def add(self, record: LogRecord) -> None:
        """Fold one record into its day's accumulator."""
        acc = self._accumulator(record.epoch // DAY_SECONDS, 1)
        if acc is not None:
            acc.add(record)

    def add_batch(self, batch: RecordBatch) -> None:
        """Fold one column batch as maximal runs of one day, in stream
        order — state- and counter-identical to adding its records one
        at a time, so every chunking of a stream ends in one state."""
        if not len(batch):
            return
        days = batch.col("epoch") // DAY_SECONDS
        bounds = [0, *(np.flatnonzero(np.diff(days)) + 1).tolist(), len(batch)]
        for start, stop in zip(bounds, bounds[1:]):
            acc = self._accumulator(int(days[start]), stop - start)
            if acc is not None:
                acc.add_batch(batch.slice(start, stop))

    def _accumulator(self, day: int, rows: int) -> StreamingAnalysis | None:
        """The accumulator a run of *rows* records of *day* folds into.

        A day older than every retained day, arriving while the window
        is full, was never retained: its rows go straight to
        ``evicted_records`` (None is returned) and no day is evicted.
        Opening a new day otherwise evicts the oldest beyond the
        retention.
        """
        acc = self.days.get(day)
        if acc is not None:
            return acc
        if (
            self.retention_days is not None
            and len(self.days) >= self.retention_days
            and day < min(self.days)
        ):
            self.evicted_records += rows
            return None
        acc = self.days[day] = StreamingAnalysis()
        if (
            self.retention_days is not None
            and len(self.days) > self.retention_days
        ):
            self._evict()
        return acc

    def _evict(self) -> None:
        """Drop the oldest day accumulators beyond the retention."""
        for day in sorted(self.days)[: len(self.days) - self.retention_days]:
            dropped = self.days.pop(day)
            self.evicted_days += 1
            self.evicted_records += dropped.total

    # -- the sink contract -------------------------------------------------

    def fresh(self) -> "WindowStore":
        return WindowStore(self.retention_days)

    def merge(self, other: "WindowStore") -> "WindowStore":
        """Fold another store's retained days in (day-wise accumulator
        merges), then re-apply eviction; returns self."""
        for day, acc in other.days.items():
            mine = self.days.get(day)
            if mine is None:
                self.days[day] = acc.copy()
            else:
                mine.merge(acc)
        self.evicted_days += other.evicted_days
        self.evicted_records += other.evicted_records
        if (
            self.retention_days is not None
            and len(self.days) > self.retention_days
        ):
            self._evict()
        return self

    def __len__(self) -> int:
        """Records folded in, including records since evicted."""
        return self.total + self.evicted_records

    def _state(self) -> tuple:
        return (self.retention_days, self.days)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowStore):
            return NotImplemented
        return self._state() == other._state()

    # -- the windowed view -------------------------------------------------

    @property
    def total(self) -> int:
        """Records currently retained across all days."""
        return sum(acc.total for acc in self.days.values())

    def retained_days(self) -> list[int]:
        """Retained day ids, oldest first."""
        return sorted(self.days)

    def window(self, days: int | None = None) -> StreamingAnalysis:
        """The merged analysis over the newest *days* retained days
        (all of them when ``None``) — a fresh merge of the day
        accumulators, identical to a batch analyze over exactly those
        days' records (the eviction-restriction law)."""
        retained = self.retained_days()
        if days is not None:
            if days < 1:
                raise ValueError(f"window must be >= 1 day, got {days}")
            retained = retained[-days:]
        merged = StreamingAnalysis()
        for day in retained:
            merged.merge(self.days[day])
        return merged
