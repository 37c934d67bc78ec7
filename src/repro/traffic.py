"""The pre-policy request abstraction.

The workload generator emits a day of requests as a
:class:`RequestBatch` — one numpy column per :class:`Request` field —
and the batch fleets filter it column-wise; a :class:`Request` is one
row of it, the reference form the per-record fleets take.  The
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

from repro.net.url import extension_of


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

    @property
    def ext(self) -> str:
        """The ``cs-uri-ext`` field derived from the path."""
        if self.method == "CONNECT":
            return ""
        return extension_of(self.path)


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


class RequestBatch:
    """A column-oriented chunk of requests, in stream order.

    ``len()`` is the number of requests; slicing returns a batch of
    views; iteration yields :class:`Request` rows.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, np.ndarray]):
        if set(columns) != set(REQUEST_COLUMNS):
            raise ValueError(
                f"RequestBatch needs exactly the columns {REQUEST_COLUMNS}; "
                f"got {sorted(columns)}"
            )
        if len({len(column) for column in columns.values()}) > 1:
            raise ValueError("request columns differ in length")
        self.columns = {name: columns[name] for name in REQUEST_COLUMNS}

    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> "RequestBatch":
        """Columnarize *requests* (order preserved)."""
        rows = list(map(attrgetter(*REQUEST_COLUMNS), requests))
        columns = list(zip(*rows)) if rows else [()] * len(REQUEST_COLUMNS)
        return cls({
            name: np.array(
                values, dtype=np.int64 if name in INT_COLUMNS else object
            )
            for name, values in zip(REQUEST_COLUMNS, columns)
        })

    def __len__(self) -> int:
        return len(self.columns["epoch"])

    def col(self, name: str) -> np.ndarray:
        """The column *name*."""
        return self.columns[name]

    def __getitem__(self, rows: slice) -> "RequestBatch":
        """The requests in *rows*, as a batch of column views."""
        return RequestBatch(
            {name: column[rows] for name, column in self.columns.items()}
        )

    def __iter__(self) -> Iterator[Request]:
        columns = (column.tolist() for column in self.columns.values())
        return starmap(Request, zip(*columns))
