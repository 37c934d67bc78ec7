"""Request classification (Section 3.3 of the paper).

The paper classifies every logged request from two fields:

* ``sc-filter-result`` — OBSERVED / PROXIED / DENIED;
* ``x-exception-id`` — '-' when no exception was raised.

Classification rules:

* **Allowed** — ``x-exception-id == '-'``;
* **Denied** — any exception; further split into
  **Censored** (``policy_denied`` / ``policy_redirect``) and
  **Error** (every other exception);
* **Proxied** — ``sc-filter-result == PROXIED``; the paper treats these
  like the rest of the traffic (classified by exception id) but reports
  them separately where relevant, which :func:`classify` supports via
  ``proxied_separate``.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

NO_EXCEPTION = "-"

#: Exception ids that mean "denied by censorship policy".  The first
#: two are the Blue Coat vocabulary the paper observes in Syria; the
#: rest are the verdict signatures of the other registered regime
#: profiles (:mod:`repro.regimes`): Pakistan's injected DNS answers
#: and HTTP block pages, Turkmenistan's DPI RST teardowns.  Adding an
#: id here threads it through every mask, breakdown, and streaming
#: accumulator without touching them.
CENSOR_EXCEPTIONS = frozenset(
    {
        "policy_denied",
        "policy_redirect",
        "dns_injected_nxdomain",
        "http_blockpage",
        "dpi_rst_teardown",
    }
)

# Exception ids that indicate a network/protocol failure rather than a
# policy decision, with the paper's Table 3 vocabulary.
ERROR_EXCEPTIONS = frozenset(
    {
        "tcp_error",
        "internal_error",
        "invalid_request",
        "unsupported_protocol",
        "dns_unresolved_hostname",
        "dns_server_failure",
        "unsupported_encoding",
        "invalid_response",
    }
)

KNOWN_EXCEPTIONS = CENSOR_EXCEPTIONS | ERROR_EXCEPTIONS | {NO_EXCEPTION}


class TrafficClass(str, Enum):
    """Classes of traffic used throughout the paper."""

    ALLOWED = "allowed"
    CENSORED = "censored"
    ERROR = "error"
    PROXIED = "proxied"

    def __str__(self) -> str:
        return self.value


def classify_exception(exception_id: str) -> TrafficClass:
    """Classify from the exception id alone (PROXIED treated inline)."""
    if exception_id == NO_EXCEPTION:
        return TrafficClass.ALLOWED
    if exception_id in CENSOR_EXCEPTIONS:
        return TrafficClass.CENSORED
    return TrafficClass.ERROR


def classify(
    filter_result: str,
    exception_id: str,
    proxied_separate: bool = False,
) -> TrafficClass:
    """Classify a request.

    With ``proxied_separate=True``, PROXIED requests are reported as
    their own class (used by Tables 8, 10, 13, 15, where the paper
    tabulates Censored / Allowed / Proxied side by side); otherwise
    they are folded into the exception-id classification, matching the
    paper's headline statistics.
    """
    if proxied_separate and filter_result == "PROXIED":
        return TrafficClass.PROXIED
    return classify_exception(exception_id)


def censor_mask(exception_ids: np.ndarray) -> np.ndarray:
    """Boolean mask of rows denied by censorship policy
    (vectorized :func:`is_censored`)."""
    exception_ids = np.asarray(exception_ids, dtype=object)
    mask = np.zeros(len(exception_ids), dtype=bool)
    for exception in CENSOR_EXCEPTIONS:
        mask |= exception_ids == exception
    return mask


def is_denied(exception_id: str) -> bool:
    """True when the request was not served (censored or errored)."""
    return exception_id != NO_EXCEPTION


def is_censored(exception_id: str) -> bool:
    """True when the request was denied by censorship policy."""
    return exception_id in CENSOR_EXCEPTIONS
