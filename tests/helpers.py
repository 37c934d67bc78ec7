"""Shared test helpers: compact frame/record construction, and the
engine's simulated days as record lists and request batches."""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.engine import child_seed, plan_shards, simulate_into
from repro.frame import LogFrame, frame_from_records
from repro.logmodel.record import LogRecord
from repro.pipeline import RecordListSink
from repro.timeline import day_epoch
from repro.traffic import Request, RequestBatch
from repro.workload import ScenarioConfig, TrafficGenerator

DEFAULT_EPOCH = day_epoch("2011-08-03") + 10 * 3600


def make_record(**overrides) -> LogRecord:
    """A LogRecord with sensible defaults, overridable per field."""
    values = dict(
        epoch=DEFAULT_EPOCH,
        c_ip="0.0.0.0",
        s_ip="82.137.200.42",
        cs_host="www.example.com",
        cs_uri_path="/",
        cs_uri_query="",
        sc_filter_result="OBSERVED",
        x_exception_id="-",
    )
    values.update(overrides)
    return LogRecord(**values)


def make_frame(rows: list[dict]) -> LogFrame:
    """Build a LogFrame from partial row dicts (record defaults)."""
    return frame_from_records([make_record(**row) for row in rows])


def censored_row(**overrides) -> dict:
    row = dict(sc_filter_result="DENIED", x_exception_id="policy_denied")
    row.update(overrides)
    return row


def allowed_row(**overrides) -> dict:
    row = dict(sc_filter_result="OBSERVED", x_exception_id="-")
    row.update(overrides)
    return row


def error_row(exception: str = "tcp_error", **overrides) -> dict:
    row = dict(sc_filter_result="DENIED", x_exception_id=exception)
    row.update(overrides)
    return row


def proxied_row(**overrides) -> dict:
    row = dict(sc_filter_result="PROXIED", x_exception_id="-")
    row.update(overrides)
    return row


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def tunnel_request(host: str = "www.example.com", **overrides) -> Request:
    """An HTTPS CONNECT request: only the host and port are visible."""
    fields = dict(
        epoch=day_epoch("2011-08-03"), c_ip="31.9.1.2", user_agent="UA",
        host=host, path="", query="", scheme="tcp", port=443,
        method="CONNECT", content_type="-",
    )
    fields.update(overrides)
    return Request(**fields)


def day_records(
    config: ScenarioConfig, **options
) -> dict[str, list[LogRecord]]:
    """Every simulated log-day as a record list, in day order.

    The engine run into a :class:`~repro.pipeline.RecordListSink`;
    *options* pass through to :func:`repro.engine.simulate_into`, and a
    quarantined day is absent from the mapping.
    """
    sink, by_day = simulate_into(config, RecordListSink(), **options)
    records = iter(sink.records)
    return {day: list(islice(records, count)) for day, count in by_day.items()}


def day_streams(
    generator: TrafficGenerator,
) -> list[tuple[str, RequestBatch]]:
    """``(day, requests)`` for every configured day, each day drawn from
    its engine shard's generation stream."""
    return [
        (shard.day, generator.generate_day(
            shard.day, np.random.default_rng(child_seed(shard.seed, 0))
        ))
        for shard in plan_shards(generator.config).shards
    ]
