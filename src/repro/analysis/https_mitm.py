"""The paper's HTTPS man-in-the-middle check (Section 4).

The EFF reported MITM attacks against the HTTPS version of Facebook in
Syria.  Blue Coat appliances can intercept TLS, in which case the
decrypted request's path/query/extension would appear in the logs.
The paper looks for exactly that signal — HTTPS log lines carrying URL
fields that only interception could reveal — and finds none.

This module implements the same check, plus the paper's caveat: SGOS
logs intercepted SSL traffic to a *separate* log facility by default,
so absence of evidence in the main logs is not conclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.common import https_mask, isin_column
from repro.frame import LogFrame

_ABSENT_VALUES = ("", "-")


@dataclass(frozen=True)
class MitmCheck:
    """Result of the interception scan."""

    https_requests: int
    #: HTTPS rows whose path or query carries real (decrypted) content.
    suspicious_rows: int
    #: Hosts behind the suspicious rows (for investigation).
    suspicious_hosts: tuple[str, ...]

    @property
    def interception_evidence(self) -> bool:
        """True when any HTTPS row carries decrypted URL fields."""
        return self.suspicious_rows > 0


def https_mitm_check(frame: LogFrame) -> MitmCheck:
    """Scan HTTPS traffic for decrypted-content fields.

    A CONNECT tunnel only exposes host and port; any HTTPS row whose
    ``cs_uri_path``/``cs_uri_query``/``cs_uri_ext`` carries content is
    evidence the proxy saw inside the TLS stream.
    """
    https = https_mask(frame) & (frame.col("cs_method") == "CONNECT")
    if not https.any():
        return MitmCheck(0, 0, ())
    tunnels = frame.where(https)
    has_content = ~(
        isin_column(tunnels, "cs_uri_path", _ABSENT_VALUES)
        & isin_column(tunnels, "cs_uri_query", _ABSENT_VALUES)
        & isin_column(tunnels, "cs_uri_ext", _ABSENT_VALUES)
    )
    hosts = tuple(sorted(set(tunnels.col("cs_host")[has_content].tolist())))
    return MitmCheck(
        https_requests=len(tunnels),
        suspicious_rows=int(has_content.sum()),
        suspicious_hosts=hosts,
    )
