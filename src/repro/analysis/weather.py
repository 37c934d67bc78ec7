"""Keyword censorship "weather report" (extension).

The paper cites ConceptDoppler (Crandall et al., CCS 2007), which
tracks *which keywords are filtered over time*.  The leaked logs make
the same tracking possible retrospectively: this module builds a
per-day (or per-window) report of keyword-triggered censorship,
flagging keywords whose activity changes abruptly — the kind of
monitoring the paper's Section 8 envisions for censorship-evasion
tooling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import PIECE_ROWS, censored_mask
from repro.analysis.stringfilter import matchable_texts
from repro.frame import LogFrame
from repro.timeline import epoch_day


@dataclass(frozen=True)
class KeywordWeather:
    """Per-day keyword-censorship activity."""

    keywords: tuple[str, ...]
    days: tuple[str, ...]
    #: counts[i][j] = censored requests matching keyword i on day j.
    counts: np.ndarray
    #: per-day total censored volume (for normalization).
    censored_totals: np.ndarray

    def series(self, keyword: str) -> list[tuple[str, int]]:
        """The (day, count) series of one keyword."""
        row = self.counts[self.keywords.index(keyword)]
        return list(zip(self.days, (int(v) for v in row)))

    def share_series(self, keyword: str) -> list[tuple[str, float]]:
        """The keyword's share of each day's censored traffic."""
        row = self.counts[self.keywords.index(keyword)]
        with np.errstate(invalid="ignore", divide="ignore"):
            shares = np.where(
                self.censored_totals > 0,
                row / np.maximum(self.censored_totals, 1),
                0.0,
            )
        return list(zip(self.days, (float(s) for s in shares)))

    def anomalies(self, factor: float = 2.5) -> list[tuple[str, str, float]]:
        """Days where a keyword's share jumps above ``factor`` × its
        own median share — candidate policy changes or demand surges.

        Returns (keyword, day, share/median ratio) triples.
        """
        flagged = []
        for keyword in self.keywords:
            shares = np.array([s for _, s in self.share_series(keyword)])
            positive = shares[shares > 0]
            if len(positive) < 2:
                continue
            median = float(np.median(positive))
            if median <= 0:
                continue
            for day, share in zip(self.days, shares):
                if share > factor * median:
                    flagged.append((keyword, day, float(share / median)))
        return flagged


def keyword_weather(
    frame: LogFrame, keywords: tuple[str, ...]
) -> KeywordWeather:
    """Build the per-day keyword report over one dataset."""
    epochs = frame.col("epoch")
    # Every day of the frame, a piece of rows at a time.
    days: set[int] = set()
    for start in range(0, len(epochs), PIECE_ROWS):
        days.update((epochs[start:start + PIECE_ROWS] // 86400).tolist())
    unique_days = np.array(sorted(days), dtype=np.int64)
    day_labels = tuple(epoch_day(int(d * 86400)) for d in unique_days)

    rows = np.flatnonzero(censored_mask(frame))
    day_of_row = unique_days.searchsorted(epochs[rows] // 86400)
    censored_totals = np.bincount(
        day_of_row, minlength=len(unique_days)
    ).astype(np.int64)
    # A request counts for the first keyword it matches.
    first = matchable_texts(frame).take(rows.tolist()).first_match(keywords)
    matched = first >= 0
    counts = np.zeros((len(keywords), len(unique_days)), dtype=np.int64)
    np.add.at(counts, (first[matched], day_of_row[matched]), 1)
    return KeywordWeather(
        keywords=tuple(keywords),
        days=day_labels,
        counts=counts,
        censored_totals=censored_totals,
    )
