"""The pre-policy request abstraction.

The workload generator emits a day of requests as a
:class:`RequestBatch` — a :class:`~repro.frame.LogFrame` with one
column per :class:`Request` field as its fixed schema — and every
appliance fleet filters it column-wise; a :class:`Request` is one row
of it, for building small batches and reading them back.  The
``component`` tag is simulation ground truth (which traffic model
produced the request) and never reaches the logs.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import starmap
from operator import attrgetter

import numpy as np

from repro.frame.logframe import LogFrame


@dataclass(slots=True)
class Request:
    """One client request as it arrives at the filtering proxy.

    A ``CONNECT`` request (HTTPS or a tunnel) carries only the host and
    port the proxy sees: per Section 4 of the paper, path, query and
    extension are absent from HTTPS log entries.
    """

    epoch: int
    c_ip: str
    user_agent: str
    host: str
    path: str = "/"
    query: str = ""
    scheme: str = "http"
    port: int = 80
    method: str = "GET"
    content_type: str = "text/html"
    referer: str = "-"
    component: str = "browsing"


#: :class:`RequestBatch` columns, in :class:`Request` field order.
REQUEST_COLUMNS: tuple[str, ...] = tuple(
    field.name for field in dataclasses.fields(Request)
)

#: The int64 columns; every other column holds Python strings.
INT_COLUMNS = frozenset({"epoch", "port"})


#: The fields a ``CONNECT`` request (HTTPS or a tunnel) carries in
#: place of the :class:`Request` defaults.
CONNECT_FIELDS = {
    "path": "", "query": "", "scheme": "tcp", "method": "CONNECT",
    "content_type": "-",
}

_DEFAULTS = {
    field.name: field.default
    for field in dataclasses.fields(Request)
    if field.default is not dataclasses.MISSING
}


def request_defaults(count: int, **columns: np.ndarray) -> dict[str, np.ndarray]:
    """Columns for *count* requests: *columns*, and a column holding
    the :class:`Request` default of every field not among them."""
    for name, default in _DEFAULTS.items():
        if name not in columns:
            columns[name] = (
                np.full(count, default, dtype=np.int64)
                if name in INT_COLUMNS else constant_column(default, count)
            )
    return columns


def connect_rows(columns: dict[str, np.ndarray], rows) -> None:
    """Turn *rows* of *columns* into ``CONNECT`` requests in place (the
    port stays the caller's)."""
    for name, value in CONNECT_FIELDS.items():
        columns[name][rows] = value


def constant_column(value, count: int) -> np.ndarray:
    """*count* references to one *value* in an object column.

    ``np.full(count, "http", dtype=object)`` would store a fresh copy
    of the string per row (numpy casts it through a ``<U`` array);
    ``fill`` shares the one object.
    """
    column = np.empty(count, dtype=object)
    column.fill(value)
    return column


class RequestBatch(LogFrame):
    """A column-oriented chunk of requests, in stream order.

    A :class:`~repro.frame.LogFrame` whose schema is the
    :class:`Request` fields (:data:`REQUEST_COLUMNS`): ``len()`` is the
    number of requests, ``batch[rows]`` a batch of column views, and
    iteration yields :class:`Request` rows.
    """

    SCHEMA = {
        name: "int64" if name in INT_COLUMNS else "object"
        for name in REQUEST_COLUMNS
    }

    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> "RequestBatch":
        """Columnarize *requests* (order preserved)."""
        rows = list(map(attrgetter(*REQUEST_COLUMNS), requests))
        columns = list(zip(*rows)) if rows else [()] * len(REQUEST_COLUMNS)
        return cls({
            name: np.array(values, dtype=cls.SCHEMA[name])
            for name, values in zip(REQUEST_COLUMNS, columns)
        })

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The batch's own column dict, in :data:`REQUEST_COLUMNS` order.

        The workload's concatenations pop each column from it as they
        copy, so a day's parts are freed while the day is assembled;
        the batch is not used after that.
        """
        return self._columns

    def __iter__(self) -> Iterator[Request]:
        columns = (column.tolist() for column in self.columns.values())
        return starmap(Request, zip(*columns))
