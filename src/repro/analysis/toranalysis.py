"""Section 7.1: Tor.

Identifies Tor traffic by matching (cs-host, cs-uri-port) against the
relay directory — exactly the paper's triplet matching — splits it into
Tor_http (directory protocol) and Tor_onion (OR connections), and
computes Fig. 8 (volume per hour, SG-44's censoring) and Fig. 9 (the
R_filter re-censoring ratio showing inconsistent blocking).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import censored_mask, error_mask, percent
from repro.analysis.proxies import proxy_names_column
from repro.frame import LogFrame, factorize
from repro.tornet import TorDirectory


@dataclass(frozen=True)
class TorTraffic:
    """The identified Tor slice plus its classification masks."""

    frame: LogFrame
    http_mask: np.ndarray  # Tor_http rows within `frame`
    onion_mask: np.ndarray  # Tor_onion rows

    @property
    def total(self) -> int:
        """Number of identified Tor requests."""
        return len(self.frame)

    @property
    def http_share_pct(self) -> float:
        """Directory-protocol share of Tor traffic (%)."""
        return percent(int(self.http_mask.sum()), self.total)


def identify_tor_traffic(frame: LogFrame, directory: TorDirectory) -> TorTraffic:
    """Match log rows against the relay directory's endpoints."""
    hosts = frame.col("cs_host")
    ports = frame.col("cs_uri_port")
    or_endpoints = directory.or_endpoints()
    dir_endpoints = directory.dir_endpoints()
    unique_hosts, inverse = frame.factorize("cs_host")
    relay_ips = directory.relay_ips()
    host_is_relay = np.array([h in relay_ips for h in unique_hosts], dtype=bool)
    candidate = host_is_relay[inverse]

    onion = np.zeros(len(frame), dtype=bool)
    http = np.zeros(len(frame), dtype=bool)
    for i in np.flatnonzero(candidate):
        endpoint = (hosts[i], int(ports[i]))
        if endpoint in or_endpoints:
            onion[i] = True
        elif endpoint in dir_endpoints:
            http[i] = True
    tor_mask = onion | http
    tor_frame = frame.where(tor_mask)
    return TorTraffic(
        frame=tor_frame,
        http_mask=http[tor_mask],
        onion_mask=onion[tor_mask],
    )


@dataclass(frozen=True)
class TorOverview:
    """The headline Tor statistics of Section 7.1."""

    total_requests: int
    distinct_relays: int
    http_share_pct: float
    censored: int
    censored_pct: float
    tcp_error_pct: float
    censored_by_proxy: dict[str, int]
    onion_censored: int
    http_censored: int


def tor_overview(tor: TorTraffic) -> TorOverview:
    """Compute the paper's headline Tor numbers."""
    frame = tor.frame
    censored = censored_mask(frame)
    errors = error_mask(frame) & (
        frame.col("x_exception_id") == "tcp_error"
    )
    by_proxy: dict[str, int] = {}
    if len(frame):
        names, codes = factorize(proxy_names_column(frame)[censored])
        counts = np.bincount(codes, minlength=len(names))
        by_proxy = {str(n): int(c) for n, c in zip(names, counts)}
    return TorOverview(
        total_requests=len(frame),
        distinct_relays=frame.nunique("cs_host") if len(frame) else 0,
        http_share_pct=tor.http_share_pct,
        censored=int(censored.sum()),
        censored_pct=percent(int(censored.sum()), len(frame)),
        tcp_error_pct=percent(int(errors.sum()), len(frame)),
        censored_by_proxy=by_proxy,
        onion_censored=int((censored & tor.onion_mask).sum()),
        http_censored=int((censored & tor.http_mask).sum()),
    )


@dataclass(frozen=True)
class HourlySeries:
    """Fig. 8(a): Tor requests per hour."""

    hour_epochs: np.ndarray
    counts: np.ndarray


def tor_hourly_series(
    tor: TorTraffic, start_epoch: int, end_epoch: int
) -> HourlySeries:
    """Compute Fig. 8(a)."""
    bins = np.arange(start_epoch, end_epoch + 3600, 3600)
    counts, _ = np.histogram(tor.frame.col("epoch"), bins=bins)
    return HourlySeries(hour_epochs=bins[:-1], counts=counts)


@dataclass(frozen=True)
class ProxyCensoredShare:
    """Fig. 8(b): one proxy's censored traffic — all vs Tor — per hour."""

    hour_epochs: np.ndarray
    all_censored_pct: np.ndarray  # share of the proxy's censored total
    tor_censored_pct: np.ndarray


def proxy_censored_comparison(
    frame: LogFrame,
    tor: TorTraffic,
    proxy: str,
    start_epoch: int,
    end_epoch: int,
) -> ProxyCensoredShare:
    """Compute Fig. 8(b) for one proxy (the paper uses SG-44)."""
    bins = np.arange(start_epoch, end_epoch + 3600, 3600)
    names = proxy_names_column(frame)
    censored = censored_mask(frame) & (names == proxy)
    all_counts, _ = np.histogram(frame.col("epoch")[censored], bins=bins)

    tor_names = proxy_names_column(tor.frame) if len(tor.frame) else np.empty(0, dtype=object)
    tor_censored = (
        censored_mask(tor.frame) & (tor_names == proxy)
        if len(tor.frame)
        else np.zeros(0, dtype=bool)
    )
    tor_counts, _ = np.histogram(tor.frame.col("epoch")[tor_censored], bins=bins)

    def normalize(counts: np.ndarray) -> np.ndarray:
        total = counts.sum()
        return 100.0 * counts / total if total else counts.astype(float)

    return ProxyCensoredShare(
        hour_epochs=bins[:-1],
        all_censored_pct=normalize(all_counts),
        tor_censored_pct=normalize(tor_counts),
    )


@dataclass(frozen=True)
class RefilterSeries:
    """Fig. 9: R_filter(k) per time bin."""

    bin_epochs: np.ndarray
    rfilter: np.ndarray  # NaN when the bin has no allowed Tor traffic


def refilter_ratio(tor: TorTraffic, bin_seconds: int = 3600) -> RefilterSeries:
    """Compute Fig. 9's R_filter.

    ``Censored-IPs`` is the set of relay addresses ever censored;
    R_filter(k) = 1 − |Censored-IPs ∩ Allowed-IPs(k)| / |Censored-IPs|.
    High variance across bins is the paper's evidence that Tor blocking
    was inconsistent.
    """
    frame = tor.frame
    if len(frame) == 0:
        return RefilterSeries(np.empty(0, dtype=np.int64), np.empty(0))
    censored = censored_mask(frame)
    allowed = frame.col("x_exception_id") == "-"
    hosts = frame.col("cs_host")
    censored_ips = set(hosts[censored].tolist())
    epochs = frame.col("epoch")
    start = int(epochs.min()) // bin_seconds * bin_seconds
    end = int(epochs.max()) + bin_seconds
    bins = np.arange(start, end, bin_seconds)
    values = np.full(len(bins), np.nan)
    if not censored_ips:
        return RefilterSeries(bins, values)
    for k, bin_start in enumerate(bins):
        in_bin = (epochs >= bin_start) & (epochs < bin_start + bin_seconds)
        allowed_ips = set(hosts[in_bin & allowed].tolist())
        if not in_bin.any():
            continue
        overlap = len(censored_ips & allowed_ips)
        values[k] = 1.0 - overlap / len(censored_ips)
    return RefilterSeries(bins, values)
