"""The in-memory log record type.

A :class:`LogRecord` carries one line of an SG-9000 access log.  The
simulator produces records, :mod:`repro.logmodel.elff` round-trips them
through the leaked CSV format, and :mod:`repro.frame` loads batches of
them into columnar form for analysis.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

from repro.logmodel.classify import NO_EXCEPTION, TrafficClass, classify
from repro.logmodel.fields import FIELDS

_EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)


def epoch_to_date_time(epoch: int) -> tuple[str, str]:
    """Split an epoch timestamp into the log's (date, time) strings."""
    stamp = _EPOCH + dt.timedelta(seconds=int(epoch))
    return stamp.strftime("%Y-%m-%d"), stamp.strftime("%H:%M:%S")


def date_time_to_epoch(date: str, time: str) -> int:
    """Inverse of :func:`epoch_to_date_time`."""
    stamp = dt.datetime.strptime(f"{date} {time}", "%Y-%m-%d %H:%M:%S")
    return int((stamp.replace(tzinfo=dt.timezone.utc) - _EPOCH).total_seconds())


#: The integer wire fields and the bit width of the column that stores
#: each: analysis frames keep the status and the port as int32
#: (:data:`repro.frame.io.FRAME_COLUMNS`), batches keep every integer
#: as int64.  A cell beyond its width is as malformed as a non-integer.
INT_FIELD_BITS = {
    "time-taken": 64,
    "sc-status": 32,
    "cs-uri-port": 32,
    "sc-bytes": 64,
    "cs-bytes": 64,
}


def _int_cell(values: dict[str, str], field: str) -> int:
    """The integer in *field*'s cell; ValueError beyond its width."""
    value = int(values[field])
    bits = INT_FIELD_BITS[field]
    if not -(1 << (bits - 1)) <= value < 1 << (bits - 1):
        raise ValueError(f"{field} {value} does not fit int{bits}")
    return value


@dataclass(slots=True)
class LogRecord:
    """One access-log line.

    Timestamps are held as integer epoch seconds (``epoch``); the
    ``date``/``time`` strings of the wire format are derived on
    serialization.  All other attributes map 1:1 to schema fields, with
    dashes in attribute names replaced by underscores.
    """

    epoch: int
    c_ip: str
    s_ip: str
    cs_host: str
    cs_uri_scheme: str = "http"
    cs_uri_port: int = 80
    cs_uri_path: str = "/"
    cs_uri_query: str = ""
    cs_uri_ext: str = ""
    cs_method: str = "GET"
    cs_user_agent: str = "-"
    cs_referer: str = "-"
    sc_filter_result: str = "OBSERVED"
    x_exception_id: str = NO_EXCEPTION
    cs_categories: str = "unavailable"
    sc_status: int = 200
    s_action: str = "TCP_NC_MISS"
    rs_content_type: str = "text/html"
    time_taken: int = 100
    sc_bytes: int = 0
    cs_bytes: int = 0
    cs_username: str = "-"
    cs_auth_group: str = "-"
    x_virus_id: str = "-"
    s_supplier_name: str = "-"

    @property
    def traffic_class(self) -> TrafficClass:
        """The paper's headline classification of this request."""
        return classify(self.sc_filter_result, self.x_exception_id)

    def matchable_text(self) -> str:
        """Text scanned by the keyword-filtering engine (Section 5.4)."""
        return f"{self.cs_host}{self.cs_uri_path}?{self.cs_uri_query}"

    def to_row(self) -> list[str]:
        """Serialize to the 26-column CSV row, in schema order."""
        date, time = epoch_to_date_time(self.epoch)
        values = {
            "date": date,
            "time": time,
            "time-taken": str(self.time_taken),
            "c-ip": self.c_ip,
            "cs-username": self.cs_username,
            "cs-auth-group": self.cs_auth_group,
            "x-exception-id": self.x_exception_id,
            "sc-filter-result": self.sc_filter_result,
            "cs-categories": self.cs_categories,
            "cs-referer": self.cs_referer,
            "sc-status": str(self.sc_status),
            "s-action": self.s_action,
            "cs-method": self.cs_method,
            "rs-content-type": self.rs_content_type,
            "cs-uri-scheme": self.cs_uri_scheme,
            "cs-host": self.cs_host,
            "cs-uri-port": str(self.cs_uri_port),
            "cs-uri-path": self.cs_uri_path,
            "cs-uri-query": self.cs_uri_query,
            "cs-uri-ext": self.cs_uri_ext,
            "cs-user-agent": self.cs_user_agent,
            "s-ip": self.s_ip,
            "sc-bytes": str(self.sc_bytes),
            "cs-bytes": str(self.cs_bytes),
            "x-virus-id": self.x_virus_id,
            "s-supplier-name": self.s_supplier_name,
        }
        return [values[name] for name in FIELDS]

    @classmethod
    def from_row(cls, row: list[str]) -> "LogRecord":
        """Parse a 26-column CSV row (inverse of :meth:`to_row`).

        Raises ValueError on a wrong width, a bad date or time, or an
        integer cell that is not an integer or does not fit its
        column (:data:`INT_FIELD_BITS`).
        """
        if len(row) != len(FIELDS):
            raise ValueError(f"expected {len(FIELDS)} columns, got {len(row)}")
        values = dict(zip(FIELDS, row))
        return cls(
            epoch=date_time_to_epoch(values["date"], values["time"]),
            time_taken=_int_cell(values, "time-taken"),
            c_ip=values["c-ip"],
            cs_username=values["cs-username"],
            cs_auth_group=values["cs-auth-group"],
            x_exception_id=values["x-exception-id"],
            sc_filter_result=values["sc-filter-result"],
            cs_categories=values["cs-categories"],
            cs_referer=values["cs-referer"],
            sc_status=_int_cell(values, "sc-status"),
            s_action=values["s-action"],
            cs_method=values["cs-method"],
            rs_content_type=values["rs-content-type"],
            cs_uri_scheme=values["cs-uri-scheme"],
            cs_host=values["cs-host"],
            cs_uri_port=_int_cell(values, "cs-uri-port"),
            cs_uri_path=values["cs-uri-path"],
            cs_uri_query=values["cs-uri-query"],
            cs_uri_ext=values["cs-uri-ext"],
            cs_user_agent=values["cs-user-agent"],
            s_ip=values["s-ip"],
            sc_bytes=_int_cell(values, "sc-bytes"),
            cs_bytes=_int_cell(values, "cs-bytes"),
            x_virus_id=values["x-virus-id"],
            s_supplier_name=values["s-supplier-name"],
        )
