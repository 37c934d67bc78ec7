"""Tests for analysis.temporal (Fig 5/6, Table 5) and analysis.users
(Fig 4)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.temporal import (
    relative_censored_volume,
    top_censored_windows,
    traffic_timeseries,
)
from repro.analysis.users import user_analysis
from repro.datasets import build_scenario
from repro.timeline import PROTEST_DAY, day_epoch, day_span
from repro.workload.config import small_config
from tests.helpers import allowed_row, censored_row, make_frame


def at(day: str, hour: float) -> int:
    return day_epoch(day) + int(hour * 3600)


class TestTimeseries:
    def test_fig5_counts(self):
        day = "2011-08-02"
        frame = make_frame([
            allowed_row(epoch=at(day, 9.0)),
            allowed_row(epoch=at(day, 9.01)),
            censored_row(epoch=at(day, 9.02)),
            allowed_row(epoch=at(day, 15.0)),
        ])
        start, end = day_span(day)
        series = traffic_timeseries(frame, start, end)
        assert series.allowed_counts.sum() == 3
        assert series.censored_counts.sum() == 1
        bin_9am = int(9 * 12)
        assert series.allowed_counts[bin_9am] == 2
        assert series.censored_counts[bin_9am] == 1

    def test_normalized_sums_to_one(self):
        day = "2011-08-02"
        frame = make_frame([allowed_row(epoch=at(day, h)) for h in (1, 5, 9)])
        start, end = day_span(day)
        series = traffic_timeseries(frame, start, end)
        assert series.allowed_normalized.sum() == pytest.approx(1.0)

    def test_rejects_empty_range(self):
        frame = make_frame([allowed_row()])
        with pytest.raises(ValueError):
            traffic_timeseries(frame, 100, 100)

    def test_friday_slowdown_visible(self, scenario):
        start = day_epoch("2011-08-01")
        end = day_epoch("2011-08-06") + 86400
        series = traffic_timeseries(scenario.full, start, end, bin_seconds=86400)
        volumes = series.allowed_counts
        friday = volumes[4]  # Aug 5
        wednesday = volumes[2]  # Aug 3
        assert friday < wednesday * 0.75


class TestRcv:
    def test_fig6_values(self):
        day = PROTEST_DAY
        rows = [allowed_row(epoch=at(day, 8.0) + i) for i in range(9)]
        rows.append(censored_row(epoch=at(day, 8.0) + 9))
        series = relative_censored_volume(make_frame(rows), day)
        bin_8am = int(8 * 12)
        assert series.rcv[bin_8am] == pytest.approx(0.1)

    def test_empty_bins_are_nan(self):
        series = relative_censored_volume(
            make_frame([allowed_row(epoch=at(PROTEST_DAY, 8.0))]), PROTEST_DAY
        )
        assert np.isnan(series.rcv[0])

    def test_peak_bins(self):
        day = PROTEST_DAY
        rows = [censored_row(epoch=at(day, 8.0))]
        series = relative_censored_volume(make_frame(rows), day)
        peaks = series.peak_bins(0.5)
        assert at(day, 8.0) // 300 * 300 in peaks

    @pytest.fixture(scope="class")
    def protest_day(self):
        """The 50 K scenario's volume on Aug 3 alone.  Spread over nine
        days, the surge window holds only 10–24 censored requests; here
        the estimator reads 1.73–2.41 at seeds 1–12, and 0.76–1.43 with
        the IM surges removed."""
        return build_scenario(
            replace(small_config(50_000, seed=11), days=(PROTEST_DAY,))
        )

    def test_protest_morning_peak_on_scenario(self, protest_day):
        """Fig. 6: the 8:00-9:30 surge roughly doubles RCV."""
        series = relative_censored_volume(protest_day.full, PROTEST_DAY)
        rcv = series.rcv
        surge = np.nanmean(rcv[int(8 * 12): int(9.5 * 12)])
        baseline = np.nanmean(rcv[int(13.5 * 12): int(20 * 12)])
        assert surge > baseline * 1.4


class TestTable5:
    def test_window_shares(self):
        day = PROTEST_DAY
        rows = (
            [censored_row(cs_host="www.skype.com", epoch=at(day, 8.5))] * 3
            + [censored_row(cs_host="www.metacafe.com", epoch=at(day, 8.5))]
            + [censored_row(cs_host="www.metacafe.com", epoch=at(day, 11.0))]
        )
        windows = top_censored_windows(make_frame(rows), day)
        eight_to_ten = windows[1]
        assert eight_to_ten.start_hour == 8
        assert eight_to_ten.rows[0][0] == "skype.com"
        assert eight_to_ten.rows[0][1] == pytest.approx(75.0)

    def test_skype_peaks_in_morning_window_on_scenario(self, scenario):
        windows = top_censored_windows(scenario.full, PROTEST_DAY)
        eight_to_ten = {domain: share for domain, share in windows[1].rows}
        assert "skype.com" in eight_to_ten
        # Skype's share during the surge beats its all-day share (6.8 %)
        assert eight_to_ten["skype.com"] > 10.0


class TestUsers:
    def test_fig4_identities(self):
        rows = [
            allowed_row(c_ip="u1", cs_user_agent="A"),
            allowed_row(c_ip="u1", cs_user_agent="A"),
            censored_row(c_ip="u1", cs_user_agent="A"),
            allowed_row(c_ip="u1", cs_user_agent="B"),  # distinct user
            allowed_row(c_ip="u2", cs_user_agent="A"),
        ]
        result = user_analysis(make_frame(rows))
        assert result.total_users == 3
        assert result.censored_users == 1
        assert result.censored_user_pct == pytest.approx(100 / 3)

    def test_censored_histogram(self):
        rows = [censored_row(c_ip="u1", cs_user_agent="A")] * 2 + [
            censored_row(c_ip="u2", cs_user_agent="A")
        ]
        result = user_analysis(make_frame(rows))
        histogram = dict(result.censored_requests_histogram)
        assert histogram[1] == pytest.approx(50.0)
        assert histogram[2] == pytest.approx(50.0)

    def test_empty_frame(self):
        from repro.frame.io import empty_frame

        result = user_analysis(empty_frame())
        assert result.total_users == 0

    def test_activity_threshold(self):
        rows = [allowed_row(c_ip="busy", cs_user_agent="A")] * 10 + [
            censored_row(c_ip="busy", cs_user_agent="A"),
            allowed_row(c_ip="quiet", cs_user_agent="A"),
        ]
        result = user_analysis(make_frame(rows), active_threshold=5)
        assert result.active_share_censored_pct == 100.0
        assert result.active_share_noncensored_pct == 0.0

    def test_censored_users_more_active_on_scenario(self, scenario):
        """The paper's Fig. 4(b) finding."""
        result = user_analysis(scenario.user, active_threshold=20)
        assert result.total_users > 100
        assert 0.3 < result.censored_user_pct < 12.0
        assert (
            result.active_share_censored_pct
            > result.active_share_noncensored_pct * 3
        )
