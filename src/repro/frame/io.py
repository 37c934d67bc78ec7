"""Loading log records into analysis frames."""

from __future__ import annotations

import sys
from collections.abc import Iterable

import numpy as np

from repro.frame.logframe import LogFrame
from repro.logmodel.record import LogRecord

# Columns carried into analysis frames, with their dtypes.  This is the
# subset of the 26 log fields the paper's analyses actually touch
# (Table 2 of the paper), plus the epoch timestamp.
FRAME_COLUMNS: dict[str, str] = {
    "epoch": "int64",
    "c_ip": "object",
    "s_ip": "object",
    "cs_host": "object",
    "cs_uri_scheme": "object",
    "cs_uri_port": "int32",
    "cs_uri_path": "object",
    "cs_uri_query": "object",
    "cs_uri_ext": "object",
    "cs_method": "object",
    "cs_user_agent": "object",
    "sc_filter_result": "object",
    "x_exception_id": "object",
    "cs_categories": "object",
    "sc_status": "int32",
    "s_action": "object",
}


def new_record_buffers() -> dict[str, list]:
    """Fresh per-column append buffers for the standard frame columns."""
    return {name: [] for name in FRAME_COLUMNS}


def append_record(buffers: dict[str, list], record: LogRecord) -> None:
    """Fold one record into column *buffers* (strings interned)."""
    intern = sys.intern
    buffers["epoch"].append(record.epoch)
    buffers["c_ip"].append(intern(record.c_ip))
    buffers["s_ip"].append(intern(record.s_ip))
    buffers["cs_host"].append(intern(record.cs_host))
    buffers["cs_uri_scheme"].append(intern(record.cs_uri_scheme))
    buffers["cs_uri_port"].append(record.cs_uri_port)
    buffers["cs_uri_path"].append(intern(record.cs_uri_path))
    buffers["cs_uri_query"].append(intern(record.cs_uri_query))
    buffers["cs_uri_ext"].append(intern(record.cs_uri_ext))
    buffers["cs_method"].append(intern(record.cs_method))
    buffers["cs_user_agent"].append(intern(record.cs_user_agent))
    buffers["sc_filter_result"].append(intern(record.sc_filter_result))
    buffers["x_exception_id"].append(intern(record.x_exception_id))
    buffers["cs_categories"].append(intern(record.cs_categories))
    buffers["sc_status"].append(record.sc_status)
    buffers["s_action"].append(intern(record.s_action))


def buffers_to_columns(buffers: dict[str, list]) -> dict[str, np.ndarray]:
    """Append buffers as arrays of the frame dtypes; an int outside its
    column's dtype raises ``OverflowError``."""
    return {
        name: np.asarray(values, dtype=FRAME_COLUMNS[name])
        for name, values in buffers.items()
    }


def buffers_to_frame(buffers: dict[str, list]) -> LogFrame:
    """Materialize append buffers into a :class:`LogFrame`."""
    if not buffers["epoch"]:
        return empty_frame()
    return LogFrame(buffers_to_columns(buffers))


def frame_from_records(records: Iterable[LogRecord]) -> LogFrame:
    """Build a :class:`LogFrame` from an iterable of log records.

    String values are interned: log columns are highly repetitive
    (a handful of exception ids, proxies, hosts), so interning collapses
    memory to one object per distinct value.
    """
    buffers = new_record_buffers()
    for record in records:
        append_record(buffers, record)
    return buffers_to_frame(buffers)


def empty_frame() -> LogFrame:
    """A zero-row frame with the standard analysis columns."""
    return LogFrame(
        {name: np.empty(0, dtype=dtype) for name, dtype in FRAME_COLUMNS.items()}
    )
