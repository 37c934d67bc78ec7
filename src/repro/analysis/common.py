"""Shared building blocks for the analyses."""

from __future__ import annotations

import numpy as np

from repro.frame import LogFrame
from repro.logmodel.classify import CENSOR_EXCEPTIONS, NO_EXCEPTION
from repro.net.url import is_ip_like, registered_domain

_CENSOR_LIST = sorted(CENSOR_EXCEPTIONS)


def censored_mask(frame: LogFrame) -> np.ndarray:
    """Requests denied by policy (policy_denied / policy_redirect)."""
    return np.isin(frame.col("x_exception_id"), _CENSOR_LIST)


def allowed_mask(frame: LogFrame) -> np.ndarray:
    """Requests with no exception."""
    return frame.col("x_exception_id") == NO_EXCEPTION


def denied_mask(frame: LogFrame) -> np.ndarray:
    """Requests with any exception (censored or error)."""
    return frame.col("x_exception_id") != NO_EXCEPTION


def error_mask(frame: LogFrame) -> np.ndarray:
    """Requests denied by a network error."""
    return denied_mask(frame) & ~censored_mask(frame)


def proxied_mask(frame: LogFrame) -> np.ndarray:
    """Requests answered from the proxy cache."""
    return frame.col("sc_filter_result") == "PROXIED"


def observed_allowed_mask(frame: LogFrame) -> np.ndarray:
    """Allowed *and* OBSERVED — the conservative allowed set the
    paper's string-recovery uses (PROXIED rows are excluded because a
    missing exception there does not prove the URL is allowed)."""
    return allowed_mask(frame) & (frame.col("sc_filter_result") == "OBSERVED")


def domain_column(frame: LogFrame) -> np.ndarray:
    """Registered domain of every row's ``cs_host``.

    IP-address hosts map to themselves.  Computed via the distinct
    hosts (cheap: hosts repeat massively).
    """
    hosts = frame.col("cs_host")
    unique_hosts, inverse = np.unique(hosts, return_inverse=True)
    mapped = np.array(
        [registered_domain(host) for host in unique_hosts], dtype=object
    )
    return mapped[inverse]


def ip_host_mask(frame: LogFrame) -> np.ndarray:
    """Rows whose ``cs_host`` is a raw IPv4 address (the D_IPv4 set)."""
    hosts = frame.col("cs_host")
    unique_hosts, inverse = np.unique(hosts, return_inverse=True)
    flags = np.array([is_ip_like(host) for host in unique_hosts], dtype=bool)
    return flags[inverse]


def https_mask(frame: LogFrame) -> np.ndarray:
    """CONNECT/443 traffic (the paper's HTTPS slice)."""
    return (frame.col("cs_method") == "CONNECT") | (
        frame.col("cs_uri_port") == 443
    )


def percent(part: int | float, whole: int | float) -> float:
    """Percentage helper that tolerates empty denominators."""
    return 100.0 * part / whole if whole else 0.0
