"""Diurnal traffic shape and calendar events.

Reproduces the temporal structure of Fig. 5 and Fig. 6: a morning ramp
with an afternoon/night lull, two sudden outage dips, the Friday
slowdown (handled at the day level by the config), and the Aug 3
morning surge of Instant-Messaging demand that drives the censorship
peaks the paper analyzes in Section 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.timeline import PROTEST_DAY, day_epoch
from repro.stats.draws import cdf, inverse_cdf

#: Base hourly traffic weights (relative), Syrian local pattern:
#: morning ramp, mild afternoon lull, evening activity, night trough.
HOURLY_WEIGHTS: tuple[float, ...] = (
    0.40, 0.30, 0.25, 0.20, 0.25, 0.50,  # 00-05
    0.80, 1.20, 1.60, 1.80, 1.90, 1.80,  # 06-11
    1.60, 1.40, 1.20, 1.10, 1.00, 1.00,  # 12-17
    1.10, 1.20, 1.30, 1.20, 0.90, 0.60,  # 18-23
)

BINS_PER_DAY = 288  # 5-minute bins, the granularity of Fig. 5/6
BIN_SECONDS = 300


@dataclass(frozen=True, slots=True)
class DipEvent:
    """A sudden traffic drop (the outages visible in Fig. 5)."""

    day: str
    start_hour: float
    end_hour: float
    multiplier: float


@dataclass(frozen=True, slots=True)
class SurgeEvent:
    """A demand surge limited to IM-tagged sites (Section 5.1).

    ``intensity`` is the surge volume relative to the whole bin's
    base traffic — 0.012 roughly doubles the censored share, moving
    RCV from ~1 % to ~2 % as in Fig. 6.
    """

    day: str
    start_hour: float
    end_hour: float
    intensity: float


#: Default events: dips on Aug 3/4, IM surges around the Aug 3 protests
#: (early morning, the 8:00–9:30 peak, and an evening flare).
DEFAULT_DIPS: tuple[DipEvent, ...] = (
    DipEvent(PROTEST_DAY, 13.0, 13.4, 0.20),
    DipEvent("2011-08-04", 15.0, 15.5, 0.25),
)

DEFAULT_SURGES: tuple[SurgeEvent, ...] = (
    SurgeEvent(PROTEST_DAY, 4.8, 6.0, 0.006),
    SurgeEvent(PROTEST_DAY, 8.0, 9.5, 0.012),
    SurgeEvent(PROTEST_DAY, 21.8, 23.0, 0.008),
)


class TrafficCalendar:
    """Per-day 5-minute-bin intensity with events applied."""

    def __init__(
        self,
        dips: tuple[DipEvent, ...] = DEFAULT_DIPS,
        surges: tuple[SurgeEvent, ...] = DEFAULT_SURGES,
    ):
        self.dips = dips
        self.surges = surges
        base = np.repeat(np.array(HOURLY_WEIGHTS, dtype=float), BINS_PER_DAY // 24)
        self._base_bins = base / base.sum()
        self._bin_cdfs: dict[str, np.ndarray] = {}

    def bin_weights(self, day: str) -> np.ndarray:
        """Normalized per-bin sampling weights for a day."""
        weights = self._base_bins.copy()
        for dip in self.dips:
            if dip.day != day:
                continue
            start = int(dip.start_hour * BINS_PER_DAY / 24)
            end = int(dip.end_hour * BINS_PER_DAY / 24)
            weights[start:end] *= dip.multiplier
        return weights / weights.sum()

    def epochs(
        self, day: str, bin_u: np.ndarray, second_u: np.ndarray
    ) -> np.ndarray:
        """Request timestamps for a day, following the curve.

        Each request's 5-minute bin is the inverse-CDF bin of *bin_u*
        under :meth:`bin_weights`, and its second within the bin is
        ``floor(second_u * 300)``: the same distribution as a
        multinomial split of the day over the bins.
        """
        cumulative = self._bin_cdfs.get(day)
        if cumulative is None:
            cumulative = self._bin_cdfs[day] = cdf(self.bin_weights(day))
        bins = inverse_cdf(cumulative, bin_u)
        return day_epoch(day) + BIN_SECONDS * bins + (
            second_u * BIN_SECONDS
        ).astype(np.int64)

    def surge_requests(self, day: str, day_total: int) -> list[tuple["SurgeEvent", int]]:
        """Extra IM-surge request counts for a day.

        ``day_total`` is the day's base request volume; each surge adds
        ``intensity × (window share of day) × day_total`` requests.
        """
        extras = []
        for surge in self.surges:
            if surge.day != day:
                continue
            # Scale relative to the *window's* base traffic, which the
            # diurnal curve concentrates in the morning.
            weights = self.bin_weights(day)
            start = int(surge.start_hour * BINS_PER_DAY / 24)
            end = int(surge.end_hour * BINS_PER_DAY / 24)
            window_traffic = float(weights[start:end].sum()) * day_total
            count = int(round(surge.intensity * window_traffic))
            extras.append((surge, count))
        return extras

    def window_epochs(self, surge: SurgeEvent, u: np.ndarray) -> np.ndarray:
        """Timestamps uniformly within a surge window, one per uniform."""
        base = day_epoch(surge.day)
        start = base + int(surge.start_hour * 3600)
        end = base + int(surge.end_hour * 3600)
        return start + (u * (end - start)).astype(np.int64)
