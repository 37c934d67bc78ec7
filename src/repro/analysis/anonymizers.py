"""Section 7.2: web proxies and VPNs.

Identifies "Anonymizer"-categorized hosts in the traffic, measures the
never-filtered share, and builds the two CDFs of Fig. 10: requests per
allowed anonymizer host, and the allowed/censored ratio of the
partially-filtered hosts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import (
    censored_mask,
    observed_allowed_mask,
    percent,
)
from repro.categorizer import TrustedSourceCategorizer
from repro.frame import LogFrame


@dataclass(frozen=True)
class AnonymizerAnalysis:
    """Section 7.2's numbers plus Fig. 10 data."""

    hosts: int
    requests: int
    requests_share_pct: float  # of all traffic
    never_filtered_hosts: int
    never_filtered_hosts_pct: float
    never_filtered_requests_pct: float  # share of anonymizer requests
    partially_filtered_hosts: int
    #: Fig. 10(a): CDF of requests per never-filtered host.
    allowed_requests_cdf: tuple[tuple[float, float], ...]
    #: Fig. 10(b): CDF of allowed/censored ratio per filtered host.
    ratio_cdf: tuple[tuple[float, float], ...]
    majority_allowed_pct: float  # filtered hosts with ratio > 1


def anonymizer_analysis(
    frame: LogFrame, categorizer: TrustedSourceCategorizer
) -> AnonymizerAnalysis:
    """Compute Section 7.2 over one dataset (the paper uses D_sample
    for host discovery and D_full/D_denied for the ratio)."""
    from repro.stats.distributions import cdf_points

    unique_hosts, inverse = frame.factorize("cs_host")
    is_anonymizer_host = np.array(
        [categorizer.is_anonymizer(str(h)) for h in unique_hosts]
    )
    row_is_anonymizer = is_anonymizer_host[inverse]
    anonymizer_rows = int(row_is_anonymizer.sum())

    censored = censored_mask(frame)
    allowed = observed_allowed_mask(frame)
    n = len(unique_hosts)
    censored_per_host = np.bincount(
        inverse, weights=censored, minlength=n
    ).astype(int)
    allowed_per_host = np.bincount(
        inverse, weights=allowed, minlength=n
    ).astype(int)
    total_per_host = np.bincount(inverse, minlength=n)

    anonymizer_indices = np.flatnonzero(is_anonymizer_host)
    never_filtered = [
        i for i in anonymizer_indices if censored_per_host[i] == 0
    ]
    filtered = [i for i in anonymizer_indices if censored_per_host[i] > 0]

    never_requests = int(sum(total_per_host[i] for i in never_filtered))

    ratios = np.array(
        [
            allowed_per_host[i] / censored_per_host[i]
            for i in filtered
        ],
        dtype=float,
    )
    return AnonymizerAnalysis(
        hosts=len(anonymizer_indices),
        requests=anonymizer_rows,
        requests_share_pct=percent(anonymizer_rows, len(frame)),
        never_filtered_hosts=len(never_filtered),
        never_filtered_hosts_pct=percent(
            len(never_filtered), max(len(anonymizer_indices), 1)
        ),
        never_filtered_requests_pct=percent(
            never_requests, max(anonymizer_rows, 1)
        ),
        partially_filtered_hosts=len(filtered),
        allowed_requests_cdf=tuple(
            cdf_points(np.array([total_per_host[i] for i in never_filtered]))
        ),
        ratio_cdf=tuple(cdf_points(ratios)),
        majority_allowed_pct=percent(
            int((ratios > 1.0).sum()), max(len(ratios), 1)
        ),
    )
