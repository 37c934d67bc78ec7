"""Shared test helpers: compact frame/record construction."""

from __future__ import annotations

import numpy as np

from repro.frame import LogFrame, frame_from_records
from repro.logmodel.record import LogRecord
from repro.timeline import day_epoch
from repro.traffic import Request

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
