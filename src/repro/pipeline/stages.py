"""Stream stages: the proxy-fleet verdict pass and anonymization."""

from __future__ import annotations

import time
from collections.abc import Iterator
from itertools import islice

import numpy as np

from repro.frame.batch import RecordBatch
from repro.logmodel.anonymize import hash_client_ip, zero_client_ip
from repro.logmodel.record import LogRecord
from repro.metrics import current_registry
from repro.pipeline.core import Stage


class FleetStage(Stage):
    """Map requests to log records through an appliance fleet.

    A fleet with ``process_batch`` (the Syrian
    :class:`~repro.proxy.ProxyFleet`) filters the request stream a chunk
    at a time — :data:`CHUNK` requests for the record-at-a-time
    :meth:`process`, ``batch_size`` for :meth:`batch_items` — and its
    stream layout makes every chunking draw the same *rng* values, so
    both paths emit the same records.  Each chunk's filtering time
    goes to the ``fleet.seconds`` metrics timer.  Any other fleet is
    called once per request in stream order.
    """

    #: Requests per fleet call on the record-at-a-time path.
    CHUNK = 1024

    def __init__(self, fleet, rng: np.random.Generator):
        self.fleet = fleet
        self.rng = rng

    def process(self, stream: Iterator) -> Iterator[LogRecord]:
        fleet, rng = self.fleet, self.rng
        if not hasattr(fleet, "process_batch"):
            for request in stream:
                yield fleet.process(request, rng)
            return
        for batch in self._filter_chunks(stream, self.CHUNK):
            yield from batch.iter_records()

    def batch_items(
        self, stream: Iterator, batch_size: int
    ) -> Iterator[RecordBatch]:
        if not hasattr(self.fleet, "process_batch"):
            return super().batch_items(stream, batch_size)
        return self._filter_chunks(stream, batch_size)

    def _filter_chunks(
        self, stream: Iterator, size: int
    ) -> Iterator[RecordBatch]:
        fleet, rng = self.fleet, self.rng
        while True:
            chunk = list(islice(stream, size))
            if not chunk:
                return
            started = time.perf_counter()
            batch = fleet.process_batch(chunk, rng)
            registry = current_registry()
            if registry is not None:
                registry.observe(
                    "fleet.seconds", time.perf_counter() - started
                )
            yield batch


class AnonymizeStage(Stage):
    """Apply the Telecomix release treatment to client addresses.

    Records with an epoch inside a user slice get keyed hashes, all
    others zeroed addresses.  Draws no randomness, so it can interleave
    with the fleet stage without perturbing any stream.
    """

    def __init__(self, user_spans: list[tuple[int, int]]):
        self.user_spans = list(user_spans)

    def anonymize(self, record: LogRecord) -> LogRecord:
        """Anonymize one record in place; returns it."""
        in_user_slice = any(
            start <= record.epoch < end for start, end in self.user_spans
        )
        if in_user_slice:
            record.c_ip = hash_client_ip(record.c_ip)
        else:
            record.c_ip = zero_client_ip(record.c_ip)
        return record

    def process(self, stream: Iterator) -> Iterator[LogRecord]:
        for record in stream:
            yield self.anonymize(record)

    def anonymize_batch(self, batch: RecordBatch) -> RecordBatch:
        """Anonymize a whole column batch.

        The keyed hash / zeroing runs once per *distinct* client
        address on each side of the user-slice split (client addresses
        repeat massively within a day), then broadcasts back — value
        for value what :meth:`anonymize` produces per record.
        """
        if not len(batch):
            return batch
        epochs = batch.col("epoch")
        in_user_slice = np.zeros(len(batch), dtype=bool)
        for start, end in self.user_spans:
            in_user_slice |= (epochs >= start) & (epochs < end)
        c_ips = batch.col("c_ip")
        anonymized = np.empty(len(batch), dtype=object)
        anonymized[in_user_slice] = _map_distinct(
            c_ips[in_user_slice], hash_client_ip
        )
        anonymized[~in_user_slice] = _map_distinct(
            c_ips[~in_user_slice], zero_client_ip
        )
        return batch.with_column("c_ip", anonymized)

    def process_batch(
        self, batches: Iterator[RecordBatch]
    ) -> Iterator[RecordBatch]:
        for batch in batches:
            yield self.anonymize_batch(batch)


def _map_distinct(values: np.ndarray, func) -> np.ndarray:
    """Apply *func* once per distinct value, broadcast to all rows."""
    if not len(values):
        return values
    uniques, inverse = np.unique(values, return_inverse=True)
    mapped = np.array(
        [func(value) for value in uniques.tolist()], dtype=object
    )
    return mapped[inverse]
