"""Blue Coat SG-9000 access-log model.

This package defines the log schema the leaked Syrian logs used
(Section 3 of the paper): the 26 ELFF fields, a record type, the
request-classification rules of Section 3.3, the CSV/ELFF wire format,
and the Telecomix-style anonymization applied before release.
"""

from repro.logmodel.classify import (
    CENSOR_EXCEPTIONS,
    ERROR_EXCEPTIONS,
    NO_EXCEPTION,
    TrafficClass,
    classify,
    classify_exception,
)
from repro.logmodel.fields import FIELDS
from repro.logmodel.record import LogRecord

__all__ = [
    "FIELDS",
    "LogRecord",
    "TrafficClass",
    "classify",
    "classify_exception",
    "NO_EXCEPTION",
    "CENSOR_EXCEPTIONS",
    "ERROR_EXCEPTIONS",
]
