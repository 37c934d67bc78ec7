"""Stream stages: the proxy-fleet verdict pass and anonymization."""

from __future__ import annotations

import time
from collections.abc import Iterator

import numpy as np

from repro.frame.batch import RecordBatch
from repro.logmodel.anonymize import hash_client_ip, zero_client_ip
from repro.logmodel.record import LogRecord
from repro.metrics import current_registry
from repro.pipeline.core import Stage
from repro.traffic import RequestBatch


class FleetStage(Stage):
    """Map requests to log records through an appliance fleet.

    The fleet's only entry point is :meth:`batch_items`: the stream is
    one or more :class:`~repro.traffic.RequestBatch` (a day each), and
    it filters them ``batch_size`` requests at a time into log columns.
    A fleet with ``process_batch`` (the Syrian
    :class:`~repro.proxy.ProxyFleet`) filters each chunk in one call,
    and its stream layout makes every chunking draw the same *rng*
    values; any other fleet gets the chunk's
    :class:`~repro.traffic.Request` rows one at a time, in stream
    order.  Each chunk's filtering time goes to the ``fleet.seconds``
    metrics timer.
    """

    def __init__(self, fleet, rng: np.random.Generator):
        self.fleet = fleet
        self.rng = rng

    def batch_items(
        self, stream: Iterator[RequestBatch], batch_size: int
    ) -> Iterator[RecordBatch]:
        fleet, rng = self.fleet, self.rng
        for requests in stream:
            for start in range(0, len(requests), batch_size):
                chunk = requests[start:start + batch_size]
                started = time.perf_counter()
                if hasattr(fleet, "process_batch"):
                    batch = fleet.process_batch(chunk, rng)
                else:
                    batch = RecordBatch.from_records(
                        [fleet.process(request, rng) for request in chunk]
                    )
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
