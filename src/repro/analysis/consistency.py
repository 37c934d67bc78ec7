"""The PROXIED-inconsistency analysis (Section 3.3 of the paper).

The paper observes that requests logged PROXIED with no exception are
unreliable: "when looking at requests similar to those that are
PROXIED (e.g., other requests from the same user accessing the same
URL), some are consistently denied, while others are sometimes or
always allowed."  This motivated treating PROXIED rows separately in
the string-recovery step.

This module makes the observation measurable: for every URL that
appears as an exception-free PROXIED row, compare against the
OBSERVED outcomes of the same URL and classify the cached row as
consistent (URL otherwise allowed), contradictory (URL otherwise
always censored — the stale-decision case), or undetermined (no
OBSERVED sibling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import (
    censored_mask,
    domain_codes,
    observed_allowed_mask,
    percent,
)
from repro.frame import LogFrame


@dataclass(frozen=True)
class ProxiedConsistency:
    """Classification of exception-free PROXIED rows."""

    proxied_rows: int
    clean_proxied_rows: int  # PROXIED with x-exception-id == '-'
    consistent: int  # URL otherwise allowed
    contradictory: int  # URL otherwise always censored
    undetermined: int  # URL never OBSERVED

    @property
    def contradictory_pct(self) -> float:
        """Share of clean PROXIED rows contradicted by OBSERVED rows —
        the paper's reason to distrust PROXIED evidence."""
        return percent(self.contradictory, self.clean_proxied_rows)

    @property
    def inconsistency_found(self) -> bool:
        """True when at least one cached row hides a censored URL."""
        return self.contradictory > 0


def _url_keys(frame: LogFrame, mask: np.ndarray) -> list[str]:
    hosts = frame.col("cs_host")[mask]
    paths = frame.col("cs_uri_path")[mask]
    queries = frame.col("cs_uri_query")[mask]
    return [f"{h}{p}?{q}" for h, p, q in zip(hosts, paths, queries)]


def proxied_consistency(frame: LogFrame) -> ProxiedConsistency:
    """Classify every exception-free PROXIED row against its URL's
    OBSERVED outcomes.

    Comparison is at the exact-URL level, like the paper's "same user
    accessing the same URL" check (our released logs have zeroed
    clients on most days, so the URL is the join key).
    """
    filter_results = frame.col("sc_filter_result")
    proxied = filter_results == "PROXIED"
    clean_proxied = proxied & (frame.col("x_exception_id") == "-")
    observed = filter_results == "OBSERVED"
    censored = censored_mask(frame)

    if not clean_proxied.any():
        return ProxiedConsistency(int(proxied.sum()), 0, 0, 0, 0)

    observed_allowed_urls = set(_url_keys(frame, observed & ~censored))
    observed_censored_urls = set(_url_keys(frame, observed & censored))
    # Denied (non-PROXIED) censored rows also witness the URL's fate.
    denied_censored_urls = set(
        _url_keys(frame, censored & ~proxied)
    ) | observed_censored_urls

    consistent = contradictory = undetermined = 0
    for url in _url_keys(frame, clean_proxied):
        ever_allowed = url in observed_allowed_urls
        ever_censored = url in denied_censored_urls
        if ever_censored and not ever_allowed:
            contradictory += 1
        elif ever_allowed:
            consistent += 1
        else:
            undetermined += 1
    return ProxiedConsistency(
        proxied_rows=int(proxied.sum()),
        clean_proxied_rows=int(clean_proxied.sum()),
        consistent=consistent,
        contradictory=contradictory,
        undetermined=undetermined,
    )


def proxied_consistency_by_domain(frame: LogFrame) -> ProxiedConsistency:
    """Same classification at registered-domain granularity.

    Exact-URL joins miss most cached rows (queries carry unique ids);
    the domain-level view is what Table 8's "Proxied" column reflects:
    metacafe.com shows 1,164 clean PROXIED rows against 1.28 M
    censored and zero allowed requests.
    """
    filter_results = frame.col("sc_filter_result")
    proxied = filter_results == "PROXIED"
    clean_proxied = proxied & (frame.col("x_exception_id") == "-")
    if not clean_proxied.any():
        return ProxiedConsistency(int(proxied.sum()), 0, 0, 0, 0)

    domains, codes = domain_codes(frame)
    censored = censored_mask(frame)
    allowed = observed_allowed_mask(frame)
    n = len(domains)
    # Per clean PROXIED row: was its domain ever allowed / censored?
    clean_codes = codes[clean_proxied]
    ever_allowed = (np.bincount(codes[allowed], minlength=n) > 0)[clean_codes]
    ever_censored = (
        np.bincount(codes[censored & ~proxied], minlength=n) > 0
    )[clean_codes]
    consistent = int(ever_allowed.sum())
    contradictory = int((ever_censored & ~ever_allowed).sum())
    return ProxiedConsistency(
        proxied_rows=int(proxied.sum()),
        clean_proxied_rows=int(clean_proxied.sum()),
        consistent=consistent,
        contradictory=contradictory,
        undetermined=len(clean_codes) - consistent - contradictory,
    )
