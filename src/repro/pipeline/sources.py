"""Record-stream sources: simulated traffic and ELFF log files."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from repro.faults import fault_point
from repro.frame.batch import RecordBatch
from repro.logmodel.elff import ReadStats, read_log, read_log_batches
from repro.logmodel.record import LogRecord
from repro.pipeline.core import Source


class RecordsSource(Source):
    """Wrap any in-memory iterable as a source."""

    def __init__(self, items: Iterable):
        self.items = items

    def __iter__(self) -> Iterator:
        return iter(self.items)


class DayTrafficSource(Source):
    """One simulated log-day of requests from a traffic generator.

    Yields the day as one :class:`~repro.traffic.RequestBatch`.  The
    generator's day pass is driven by the supplied *rng*, so the
    stream is a pure function of ``(config, day, rng state)`` — the
    property the sharded engine's byte-identity rests on.
    """

    def __init__(self, generator, day: str, rng: np.random.Generator):
        self.generator = generator
        self.day = day
        self.rng = rng

    def __iter__(self) -> Iterator:
        yield self.generator.generate_day(self.day, self.rng)


class ElffSource(Source):
    """Stream records from an ELFF log file (gzip-transparent).

    ``lenient=True`` skips malformed rows the way the Telecomix files
    require, counting them into *stats* when given; the default strict
    mode raises :class:`~repro.logmodel.elff.LogFormatError`.

    Iteration passes the ``elff.source`` fault site (and, underneath,
    the reader's ``elff.read``/``gzip.open`` sites), so an active
    :class:`~repro.faults.FaultPlan` can corrupt or fail file shards
    exactly where real disk trouble would surface.

    Both iteration paths are fully lazy: the fault site fires and the
    file is opened at the first ``next()``, never at construction or
    ``iter()``.  A source pre-built long before it is drained — the
    ingestion service builds sources for files that may not exist yet —
    fails at *read* time like every other site, inside whatever fault
    context and error handling surround the actual read.
    """

    def __init__(
        self,
        path: Path | str,
        *,
        lenient: bool = False,
        stats: ReadStats | None = None,
    ):
        self.path = Path(path)
        self.lenient = lenient
        self.stats = stats

    def __iter__(self) -> Iterator[LogRecord]:
        fault_point("elff.source")
        yield from read_log(self.path, lenient=self.lenient, stats=self.stats)

    def iter_batches(self, batch_size: int) -> Iterator[RecordBatch]:
        """The same record stream as :class:`RecordBatch` columns.

        Passes the identical fault sites in the identical order as
        record iteration, so a :class:`~repro.faults.FaultPlan` hits
        the pipeline exactly where it hits :func:`read_log`.
        """
        fault_point("elff.source")
        yield from read_log_batches(
            self.path, batch_size, lenient=self.lenient, stats=self.stats
        )
