"""Shared building blocks for the analyses.

Call-site rule: an analysis counts, groups and masks on the frame's
cached column codes (:meth:`~repro.frame.LogFrame.factorize`) or on
:func:`domain_codes`, never with ``np.unique``/``np.isin`` over a frame
string column, a masked slice of one, or :func:`domain_column`.  Each
such call sorts every row again with a Python comparison per step.
Values derived from several columns and read by several tables (the
domain codes here, the matchable texts of
:mod:`repro.analysis.stringfilter`) are built once per frame
(:meth:`~repro.frame.LogFrame.derived`).
"""

from __future__ import annotations

import numpy as np

from repro.frame import LogFrame, factorize
from repro.logmodel.classify import CENSOR_EXCEPTIONS, NO_EXCEPTION
from repro.net.url import is_ip_like, registered_domain

_CENSOR_LIST = sorted(CENSOR_EXCEPTIONS)

#: Rows, or distinct values, per piece of a pass that builds its
#: result a piece at a time, so that its short-lived memory is a
#: piece's rather than the frame's.
PIECE_ROWS = 1 << 12


def isin_column(frame: LogFrame, name: str, values) -> np.ndarray:
    """``np.isin(frame.col(name), values)``, tested once per distinct
    value of the column and broadcast through its codes."""
    uniques, codes = frame.factorize(name)
    return np.isin(uniques, values)[codes]


def equals_column(frame: LogFrame, name: str, value) -> np.ndarray:
    """``frame.col(name) == value``, compared once per distinct value
    of the column and broadcast through its codes."""
    uniques, codes = frame.factorize(name)
    return (uniques == value)[codes]


def censored_mask(frame: LogFrame) -> np.ndarray:
    """Requests denied by policy (policy_denied / policy_redirect)."""
    return isin_column(frame, "x_exception_id", _CENSOR_LIST)


def allowed_mask(frame: LogFrame) -> np.ndarray:
    """Requests with no exception."""
    return equals_column(frame, "x_exception_id", NO_EXCEPTION)


def denied_mask(frame: LogFrame) -> np.ndarray:
    """Requests with any exception (censored or error)."""
    return ~allowed_mask(frame)


def error_mask(frame: LogFrame) -> np.ndarray:
    """Requests denied by a network error."""
    return denied_mask(frame) & ~censored_mask(frame)


def proxied_mask(frame: LogFrame) -> np.ndarray:
    """Requests answered from the proxy cache."""
    return equals_column(frame, "sc_filter_result", "PROXIED")


def observed_allowed_mask(frame: LogFrame) -> np.ndarray:
    """Allowed *and* OBSERVED — the conservative allowed set the
    paper's string-recovery uses (PROXIED rows are excluded because a
    missing exception there does not prove the URL is allowed)."""
    return allowed_mask(frame) & equals_column(
        frame, "sc_filter_result", "OBSERVED"
    )


def domain_codes(frame: LogFrame) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(domain_column(frame), return_inverse=True)``, built
    once per frame; both arrays are read-only."""
    return frame.derived(_domain_codes)


def _domain_codes(frame: LogFrame) -> tuple[np.ndarray, np.ndarray]:
    """Built from the host factorization: one :func:`registered_domain`
    call per distinct host, then the distinct hosts' domains are
    factorized and every row's host code is remapped."""
    hosts, host_codes = frame.factorize("cs_host")
    domains, domain_of_host = factorize(np.array(
        [registered_domain(host) for host in hosts.tolist()], dtype=object
    ))
    codes = domain_of_host[host_codes]
    domains.flags.writeable = False
    codes.flags.writeable = False
    return domains, codes


def domain_column(frame: LogFrame) -> np.ndarray:
    """Registered domain of every row's ``cs_host``.

    IP-address hosts map to themselves.
    """
    domains, codes = domain_codes(frame)
    return domains[codes]


def ip_host_mask(frame: LogFrame) -> np.ndarray:
    """Rows whose ``cs_host`` is a raw IPv4 address (the D_IPv4 set)."""
    unique_hosts, inverse = frame.factorize("cs_host")
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
