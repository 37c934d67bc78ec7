"""Section 5.1: temporal analysis.

Fig. 5 — censored/allowed volume over the August days (absolute and
normalized); Fig. 6 — Relative Censored traffic Volume (RCV) over one
day at 5-minute granularity; Table 5 — top censored domains in the
morning windows of the protest day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import (
    allowed_mask,
    censored_mask,
    domain_codes,
    percent,
)
from repro.frame import LogFrame, top_counts
from repro.timeline import day_span

BIN_SECONDS = 300  # the paper's 5-minute granularity


@dataclass(frozen=True)
class TrafficTimeseries:
    """Fig. 5: per-bin counts plus normalized curves."""

    bin_epochs: np.ndarray
    allowed_counts: np.ndarray
    censored_counts: np.ndarray

    @property
    def allowed_normalized(self) -> np.ndarray:
        """Allowed counts normalized to sum to one (Fig. 5b)."""
        total = self.allowed_counts.sum()
        return self.allowed_counts / total if total else self.allowed_counts

    @property
    def censored_normalized(self) -> np.ndarray:
        """Censored counts normalized to sum to one (Fig. 5b)."""
        total = self.censored_counts.sum()
        return self.censored_counts / total if total else self.censored_counts


def traffic_timeseries(
    frame: LogFrame,
    start_epoch: int,
    end_epoch: int,
    bin_seconds: int = BIN_SECONDS,
) -> TrafficTimeseries:
    """Compute Fig. 5 over [start, end)."""
    if end_epoch <= start_epoch:
        raise ValueError("empty time range")
    epochs = frame.col("epoch")
    in_range = (epochs >= start_epoch) & (epochs < end_epoch)
    bins = np.arange(start_epoch, end_epoch + bin_seconds, bin_seconds)
    allowed = allowed_mask(frame) & in_range
    censored = censored_mask(frame) & in_range
    allowed_counts, _ = np.histogram(epochs[allowed], bins=bins)
    censored_counts, _ = np.histogram(epochs[censored], bins=bins)
    return TrafficTimeseries(
        bin_epochs=bins[:-1],
        allowed_counts=allowed_counts,
        censored_counts=censored_counts,
    )


@dataclass(frozen=True)
class RcvSeries:
    """Fig. 6: RCV per 5-minute bin of one day."""

    bin_epochs: np.ndarray
    rcv: np.ndarray  # censored / total per bin; NaN for empty bins

    def peak_bins(self, threshold: float) -> list[int]:
        """Epochs of bins whose RCV exceeds *threshold*."""
        valid = ~np.isnan(self.rcv)
        return [
            int(self.bin_epochs[i])
            for i in np.flatnonzero(valid & (self.rcv > threshold))
        ]


def relative_censored_volume(
    frame: LogFrame, day: str, bin_seconds: int = BIN_SECONDS
) -> RcvSeries:
    """Compute Fig. 6's RCV(t) for one day."""
    start, end = day_span(day)
    epochs = frame.col("epoch")
    in_day = (epochs >= start) & (epochs < end)
    bins = np.arange(start, end + bin_seconds, bin_seconds)
    total_counts, _ = np.histogram(epochs[in_day], bins=bins)
    censored = censored_mask(frame) & in_day
    censored_counts, _ = np.histogram(epochs[censored], bins=bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        rcv = np.where(
            total_counts > 0, censored_counts / np.maximum(total_counts, 1), np.nan
        )
    return RcvSeries(bin_epochs=bins[:-1], rcv=rcv)


@dataclass(frozen=True)
class WindowTopDomains:
    """One Table 5 column: a time window's top censored domains."""

    start_hour: int
    end_hour: int
    rows: tuple[tuple[str, float], ...]  # (domain, % of censored volume)


def top_censored_windows(
    frame: LogFrame,
    day: str,
    windows: tuple[tuple[int, int], ...] = ((6, 8), (8, 10), (10, 12)),
    top: int = 10,
) -> list[WindowTopDomains]:
    """Compute Table 5: top censored domains per morning window."""
    start, _ = day_span(day)
    epochs = frame.col("epoch")
    censored = censored_mask(frame)
    domains, codes = domain_codes(frame)
    results = []
    for start_hour, end_hour in windows:
        window = (
            censored
            & (epochs >= start + start_hour * 3600)
            & (epochs < start + end_hour * 3600)
        )
        total = int(window.sum())
        rows = tuple(
            (str(domain), percent(count, total))
            for domain, count in top_counts(domains, codes[window], top)
        )
        results.append(WindowTopDomains(start_hour, end_hour, rows))
    return results
