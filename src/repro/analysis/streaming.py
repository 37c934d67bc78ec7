"""Streaming (single-pass, constant-memory) log analysis.

The real dataset was 600 GB — far beyond what loads into a frame.
This module provides accumulator-style analyses that consume records
one at a time: the Table 3 breakdown, per-domain Table 4 counters, and
per-day volumes, with byte-bounded memory (a counter per distinct
domain/exception, nothing per record).

Use with the streaming reader::

    acc = StreamingAnalysis()
    for path in paths:
        acc.consume(read_log(path, lenient=True))
    print(acc.breakdown().censored_pct)
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.analysis.common import percent
from repro.frame.logframe import LogFrame
from repro.logmodel.classify import CENSOR_EXCEPTIONS, NO_EXCEPTION, censor_mask
from repro.logmodel.record import LogRecord
from repro.metrics import current_registry
from repro.net.url import registered_domain, registered_domains


@dataclass(frozen=True)
class StreamingBreakdown:
    """Table 3 computed in one pass."""

    total: int
    allowed: int
    censored: int
    errors: int
    proxied: int

    @property
    def allowed_pct(self) -> float:
        """Allowed share (%)."""
        return percent(self.allowed, self.total)

    @property
    def censored_pct(self) -> float:
        """Censored share (%)."""
        return percent(self.censored, self.total)


class StreamingAnalysis:
    """Single-pass accumulator over log records.

    Tracks the headline classification counts, exception mix,
    per-domain allowed/censored counters (Table 4), and per-day
    volumes (Fig. 5's day-level view).  Memory is proportional to the
    number of *distinct* domains/exceptions/days, never to the record
    count.
    """

    #: The batch columns :meth:`add_batch` reads: a batch source may
    #: project its reads to these (``ElffSource(columns=...)``).
    COLUMNS = ("epoch", "sc_filter_result", "x_exception_id", "cs_host")

    def __init__(self) -> None:
        self.total = 0
        self.allowed = 0
        self.censored = 0
        self.errors = 0
        self.proxied = 0
        self.exceptions: Counter[str] = Counter()
        self.allowed_domains: Counter[str] = Counter()
        self.censored_domains: Counter[str] = Counter()
        self.day_volumes: Counter[int] = Counter()

    def add(self, record: LogRecord) -> None:
        """Fold one record into the accumulators."""
        self.total += 1
        self.day_volumes[record.epoch // 86400] += 1
        if record.sc_filter_result == "PROXIED":
            self.proxied += 1
        exception = record.x_exception_id
        domain = registered_domain(record.cs_host)
        if exception == NO_EXCEPTION:
            self.allowed += 1
            self.allowed_domains[domain] += 1
            return
        self.exceptions[exception] += 1
        if exception in CENSOR_EXCEPTIONS:
            self.censored += 1
            self.censored_domains[domain] += 1
        else:
            self.errors += 1

    def add_batch(self, batch: LogFrame) -> None:
        """Fold one column batch in — state-identical to calling
        :meth:`add` on every record of the batch, in order.  The batch
        needs only the :attr:`COLUMNS`.

        Counter updates run once per *distinct* key via ``np.unique``,
        and new keys are inserted in first-seen stream order (the
        ``return_index`` bookkeeping in :func:`_first_seen_counts`):
        ``Counter.most_common`` breaks ties by insertion order, so the
        reported top-domain tables — and therefore CLI output bytes —
        must not depend on whether records arrived singly or batched.
        """
        count = len(batch)
        if not count:
            return
        self.total += count
        for day, volume in _first_seen_counts(batch.col("epoch") // 86400):
            self.day_volumes[day] += volume
        self.proxied += int(
            (batch.col("sc_filter_result") == "PROXIED").sum()
        )
        exceptions = batch.col("x_exception_id")
        domains = registered_domains(batch.col("cs_host"))
        allowed = exceptions == NO_EXCEPTION
        self.allowed += int(allowed.sum())
        for domain, volume in _first_seen_counts(domains[allowed]):
            self.allowed_domains[domain] += volume
        denied = ~allowed
        for exception, volume in _first_seen_counts(exceptions[denied]):
            self.exceptions[exception] += volume
        censored = censor_mask(exceptions)
        self.censored += int(censored.sum())
        for domain, volume in _first_seen_counts(domains[censored]):
            self.censored_domains[domain] += volume
        self.errors += int(denied.sum()) - int(censored.sum())

    def consume_batches(
        self, batches: Iterable[LogFrame]
    ) -> "StreamingAnalysis":
        """Fold a stream of batches (timed like :meth:`consume`)."""
        registry = current_registry()
        if registry is None:
            for batch in batches:
                self.add_batch(batch)
            return self
        start = time.perf_counter()
        before = self.total
        for batch in batches:
            self.add_batch(batch)
        registry.inc("analysis.rows", self.total - before)
        registry.observe(
            "analysis.consume_seconds", time.perf_counter() - start
        )
        return self

    def consume(self, records: Iterable[LogRecord]) -> "StreamingAnalysis":
        """Fold a record stream; returns self for chaining.

        When a metrics registry is active, the pass is timed on the
        monotonic clock and the row count recorded, so merged metrics
        expose the analysis throughput (rows/sec).
        """
        registry = current_registry()
        if registry is None:
            for record in records:
                self.add(record)
            return self
        start = time.perf_counter()
        before = self.total
        for record in records:
            self.add(record)
        registry.inc("analysis.rows", self.total - before)
        registry.observe("analysis.consume_seconds", time.perf_counter() - start)
        return self

    def breakdown(self) -> StreamingBreakdown:
        """The Table 3 result so far."""
        return StreamingBreakdown(
            total=self.total,
            allowed=self.allowed,
            censored=self.censored,
            errors=self.errors,
            proxied=self.proxied,
        )

    def top_allowed(self, n: int = 10) -> list[tuple[str, int]]:
        """Table 4's allowed column so far."""
        return self.allowed_domains.most_common(n)

    def top_censored(self, n: int = 10) -> list[tuple[str, int]]:
        """Table 4's censored column so far."""
        return self.censored_domains.most_common(n)

    def merge(self, other: "StreamingAnalysis") -> "StreamingAnalysis":
        """Combine two accumulators (e.g. one per log file, processed
        in parallel); returns self.

        ``merge`` is the reduce operation of the sharded engine: it is
        associative and commutative, ``StreamingAnalysis()`` is its
        identity, and merging any split of a record stream equals
        consuming the stream in one pass (the merge laws pinned by
        the property tests).
        """
        self.total += other.total
        self.allowed += other.allowed
        self.censored += other.censored
        self.errors += other.errors
        self.proxied += other.proxied
        self.exceptions.update(other.exceptions)
        self.allowed_domains.update(other.allowed_domains)
        self.censored_domains.update(other.censored_domains)
        self.day_volumes.update(other.day_volumes)
        return self

    def copy(self) -> "StreamingAnalysis":
        """An independent accumulator with the same state."""
        return StreamingAnalysis().merge(self)

    def _state(self) -> tuple:
        return (
            self.total, self.allowed, self.censored, self.errors,
            self.proxied, self.exceptions, self.allowed_domains,
            self.censored_domains, self.day_volumes,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamingAnalysis):
            return NotImplemented
        return self._state() == other._state()

    def __iadd__(self, other: "StreamingAnalysis") -> "StreamingAnalysis":
        """``acc += part`` — in-place merge."""
        if not isinstance(other, StreamingAnalysis):
            return NotImplemented
        return self.merge(other)

    def __add__(self, other: "StreamingAnalysis") -> "StreamingAnalysis":
        """Non-mutating merge; with the empty-accumulator identity this
        makes ``sum(parts, StreamingAnalysis())`` work."""
        if not isinstance(other, StreamingAnalysis):
            return NotImplemented
        return self.copy().merge(other)

    @classmethod
    def merge_all(
        cls, parts: Iterable["StreamingAnalysis"]
    ) -> "StreamingAnalysis":
        """Reduce any number of per-shard accumulators into one."""
        merged = cls()
        for part in parts:
            merged.merge(part)
        return merged


def _first_seen_counts(keys: np.ndarray) -> Iterable[tuple]:
    """Distinct keys with their multiplicities, ordered by first
    occurrence in *keys*.

    The ordering matters: feeding these into a ``Counter`` must insert
    new keys exactly where record-at-a-time ``Counter[key] += 1`` would
    have, or ``most_common`` tie-breaking (insertion order) diverges
    between the scalar and batched paths.  ``Counter``'s C counting
    loop gives exactly that order (it is a dict, filled in stream
    order) — and beats both ``np.unique``, whose sort pays a Python
    string comparison per element on object columns, and a hand-rolled
    dict factorization.  Keys come back as native Python objects
    (``tolist``), never numpy scalars, so Counter keys and the JSON
    they serialize to stay identical.
    """
    return Counter(keys.tolist()).items()
