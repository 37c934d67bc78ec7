"""Tests for lenient ELFF reads, page-view sessionization, workload
fidelity measurement, and markdown reporting."""

import io

import pytest

from repro.analysis.pageviews import page_view_breakdown, page_view_keys
from repro.logmodel.elff import LogFormatError, ReadStats, read_log, write_log
from repro.reporting.markdown import report_to_markdown
from repro.timeline import day_epoch
from repro.workload import TrafficGenerator
from repro.workload.config import small_config
from repro.workload.fidelity import measure_fidelity
from tests.helpers import (
    allowed_row,
    censored_row,
    day_streams,
    make_frame,
    make_record,
)


class TestLenientElff:
    def corrupted_log(self) -> io.StringIO:
        buffer = io.StringIO()
        write_log([make_record(), make_record(cs_host="b.com")], buffer)
        buffer.write("truncated,line\n")
        buffer.write("2011-08-03,garbage," + ",".join(["x"] * 24) + "\n")
        buffer.seek(0)
        return buffer

    def test_strict_mode_raises(self):
        with pytest.raises(LogFormatError):
            list(read_log(self.corrupted_log()))

    def test_lenient_mode_skips_and_counts(self):
        stats = ReadStats()
        records = list(read_log(self.corrupted_log(), lenient=True, stats=stats))
        assert len(records) == 2
        assert stats.records == 2
        assert stats.skipped == 2
        assert stats.first_error

    def test_lenient_without_stats(self):
        records = list(read_log(self.corrupted_log(), lenient=True))
        assert len(records) == 2


class TestPageViews:
    def test_grouping(self):
        base = day_epoch("2011-07-22")
        rows = [
            allowed_row(c_ip="u1", cs_host="a.com", epoch=base + 1),
            allowed_row(c_ip="u1", cs_host="a.com", epoch=base + 3),
            allowed_row(c_ip="u1", cs_host="b.com", epoch=base + 3),
            allowed_row(c_ip="u2", cs_host="a.com", epoch=base + 3),
            censored_row(c_ip="u1", cs_host="c.com", epoch=base + 5),
        ]
        result = page_view_breakdown(make_frame(rows))
        assert result.requests == 5
        assert result.page_views == 4
        assert result.page_censored_pct == pytest.approx(25.0)
        assert result.request_censored_pct == pytest.approx(20.0)
        assert result.inflation_factor > 1.0

    def test_window_separates_views(self):
        base = day_epoch("2011-07-22")
        rows = [
            allowed_row(c_ip="u1", cs_host="a.com", epoch=base + 1),
            allowed_row(c_ip="u1", cs_host="a.com", epoch=base + 120),
        ]
        keys = page_view_keys(make_frame(rows), window_seconds=30)
        assert keys[0] != keys[1]

    def test_empty_frame(self):
        from repro.frame.io import empty_frame

        result = page_view_breakdown(empty_frame())
        assert result.page_views == 0

    def test_scenario_inflation(self, scenario):
        """The paper's claim: page-level censored share exceeds the
        request-level one (allowed pages fan out, censored don't)."""
        result = page_view_breakdown(scenario.user)
        assert result.requests_per_view > 1.0
        assert result.page_censored_pct > result.request_censored_pct


class TestFidelity:
    @pytest.fixture(scope="class")
    def report(self):
        config = small_config(25_000, seed=13)
        generator = TrafficGenerator(config)
        return measure_fidelity(config, day_streams(generator))

    def test_total_close_to_configured(self, report):
        assert 0.9 * 25_000 < report.total_requests < 1.25 * 25_000

    def test_component_shares_within_tolerance(self, report):
        # browsing dominates and must be near its boosted target
        assert report.component_error("browsing") < 0.05
        # iphosts has no extra day modifiers: tight
        assert report.component_error("iphosts") < 0.25
        # tor carries its own day multipliers: generous bound
        assert report.component_error("tor") < 0.9

    def test_day_shares_follow_multipliers(self, report):
        friday = report.day_shares["2011-08-05"]
        wednesday = report.day_shares["2011-08-03"]
        assert friday < wednesday * 0.75

    def test_all_components_present(self, report):
        for component in ("browsing", "iphosts", "tor", "bittorrent",
                          "redirect-targets", "google-cache"):
            assert report.component_shares.get(component, 0) > 0, component


class TestMarkdownReport:
    def test_renders_full_report(self, report):
        text = report_to_markdown(report, title="Test run")
        assert text.startswith("# Test run")
        assert "## Overview" in text
        assert "## Recovered policy" in text
        assert "metacafe.com" in text
        assert "| proxy |" in text
        assert "## Circumvention" in text
        # valid markdown tables: every table line has matching pipes
        for line in text.splitlines():
            if line.startswith("|"):
                assert line.endswith("|")
