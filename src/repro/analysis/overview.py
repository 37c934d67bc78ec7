"""Section 4 of the paper: the statistical overview.

Covers Table 1 (dataset inventory), Table 3 (decision/exception
breakdown per dataset), Table 4 (top allowed/censored domains), Fig. 1
(destination-port distribution), Fig. 2 (requests-per-domain power
law) and the HTTPS paragraph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.common import (
    allowed_mask,
    censored_mask,
    denied_mask,
    domain_codes,
    https_mask,
    ip_host_mask,
    percent,
    proxied_mask,
)
from repro.frame import LogFrame, top_counts
from repro.logmodel.classify import CENSOR_EXCEPTIONS, NO_EXCEPTION
from repro.stats.powerlaw import requests_per_domain_histogram
from repro.timeline import epoch_day


@dataclass(frozen=True)
class DatasetInventory:
    """Table 1: one row per dataset."""

    name: str
    requests: int
    days: tuple[str, ...]
    proxies: int


def dataset_inventory(datasets: dict[str, LogFrame]) -> list[DatasetInventory]:
    """Build Table 1 from named datasets."""
    rows = []
    for name, frame in datasets.items():
        if len(frame) == 0:
            rows.append(DatasetInventory(name, 0, (), 0))
            continue
        day_keys = frame.col("epoch") // 86400
        first_day = int(day_keys.min())
        # Distinct days by bincount: a plain np.unique imports numpy.ma.
        days = tuple(sorted({
            epoch_day((first_day + offset) * 86400)
            for offset in np.flatnonzero(np.bincount(day_keys - first_day)).tolist()
        }))
        proxies = frame.nunique("s_ip")
        rows.append(DatasetInventory(name, len(frame), days, proxies))
    return rows


@dataclass(frozen=True)
class ExceptionRow:
    """One Table 3 row: an exception id with count and share."""

    exception_id: str
    count: int
    share_pct: float


@dataclass(frozen=True)
class TrafficBreakdown:
    """Table 3 for one dataset: class totals plus per-exception rows."""

    total: int
    allowed: int
    proxied: int
    denied: int
    censored: int
    errors: int
    exception_rows: tuple[ExceptionRow, ...]

    @property
    def allowed_pct(self) -> float:
        """Allowed share of the dataset (%)."""
        return percent(self.allowed, self.total)

    @property
    def censored_pct(self) -> float:
        """Censored share of the dataset (%)."""
        return percent(self.censored, self.total)

    @property
    def denied_pct(self) -> float:
        """Denied (censored + errors) share of the dataset (%)."""
        return percent(self.denied, self.total)

    @property
    def proxied_pct(self) -> float:
        """PROXIED share of the dataset (%)."""
        return percent(self.proxied, self.total)


def traffic_breakdown(frame: LogFrame) -> TrafficBreakdown:
    """Compute Table 3 for one dataset."""
    total = len(frame)
    censored = int(censored_mask(frame).sum())
    denied = int(denied_mask(frame).sum())
    rows = []
    for exception_id, count in frame.value_counts("x_exception_id"):
        if exception_id == NO_EXCEPTION:
            continue
        rows.append(ExceptionRow(str(exception_id), count, percent(count, total)))
    rows.sort(key=lambda row: (-row.count, row.exception_id))
    return TrafficBreakdown(
        total=total,
        allowed=int(allowed_mask(frame).sum()),
        proxied=int(proxied_mask(frame).sum()),
        denied=denied,
        censored=censored,
        errors=denied - censored,
        exception_rows=tuple(rows),
    )


@dataclass(frozen=True)
class DomainRow:
    """One Table 4 row."""

    domain: str
    requests: int
    share_pct: float


@dataclass(frozen=True)
class TopDomains:
    """Table 4: top allowed and censored domains."""

    allowed: tuple[DomainRow, ...]
    censored: tuple[DomainRow, ...]


def top_domains(frame: LogFrame, n: int = 10) -> TopDomains:
    """Compute Table 4."""
    domains, codes = domain_codes(frame)

    def rows_for(mask: np.ndarray) -> tuple[DomainRow, ...]:
        total = int(mask.sum())
        return tuple(
            DomainRow(str(domain), count, percent(count, total))
            for domain, count in top_counts(domains, codes[mask], n)
        )

    return TopDomains(
        allowed=rows_for(allowed_mask(frame)),
        censored=rows_for(censored_mask(frame)),
    )


@dataclass(frozen=True)
class PortDistribution:
    """Fig. 1: per-port request counts for allowed and censored."""

    allowed: tuple[tuple[int, int], ...]  # (port, count), descending
    censored: tuple[tuple[int, int], ...]


def port_distribution(frame: LogFrame, top: int = 12) -> PortDistribution:
    """Compute Fig. 1's two distributions."""
    ports = frame.col("cs_uri_port")

    def rows_for(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
        values, counts = np.unique(ports[mask], return_counts=True)
        order = np.argsort(-counts)[:top]
        return tuple((int(values[i]), int(counts[i])) for i in order)

    return PortDistribution(
        allowed=rows_for(allowed_mask(frame)),
        censored=rows_for(censored_mask(frame)),
    )


@dataclass(frozen=True)
class DomainRequestDistribution:
    """Fig. 2: (requests, #domains) histogram per traffic class."""

    allowed: tuple[tuple[int, int], ...]
    denied: tuple[tuple[int, int], ...]
    censored: tuple[tuple[int, int], ...]
    per_domain_counts: dict[str, np.ndarray] = field(repr=False, default_factory=dict)


def domain_request_distribution(frame: LogFrame) -> DomainRequestDistribution:
    """Compute Fig. 2's three curves."""
    domains, codes = domain_codes(frame)

    def counts_for(mask: np.ndarray) -> np.ndarray:
        counts = np.bincount(codes[mask], minlength=len(domains))
        return counts[counts > 0]

    allowed_counts = counts_for(allowed_mask(frame))
    denied_counts = counts_for(denied_mask(frame))
    censored_counts = counts_for(censored_mask(frame))
    return DomainRequestDistribution(
        allowed=tuple(requests_per_domain_histogram(allowed_counts)),
        denied=tuple(requests_per_domain_histogram(denied_counts)),
        censored=tuple(requests_per_domain_histogram(censored_counts)),
        per_domain_counts={
            "allowed": allowed_counts,
            "denied": denied_counts,
            "censored": censored_counts,
        },
    )


@dataclass(frozen=True)
class HttpsBreakdown:
    """Section 4's HTTPS paragraph."""

    https_requests: int
    https_share_pct: float  # of all traffic
    censored_https: int
    censored_share_pct: float  # of HTTPS traffic
    censored_to_ip: int
    censored_to_ip_pct: float  # of censored HTTPS


def https_breakdown(frame: LogFrame) -> HttpsBreakdown:
    """Compute the HTTPS statistics of Section 4."""
    https = https_mask(frame)
    censored = censored_mask(frame)
    censored_https = https & censored
    to_ip = censored_https & ip_host_mask(frame)
    n_https = int(https.sum())
    n_censored_https = int(censored_https.sum())
    return HttpsBreakdown(
        https_requests=n_https,
        https_share_pct=percent(n_https, len(frame)),
        censored_https=n_censored_https,
        censored_share_pct=percent(n_censored_https, n_https),
        censored_to_ip=int(to_ip.sum()),
        censored_to_ip_pct=percent(int(to_ip.sum()), n_censored_https),
    )
