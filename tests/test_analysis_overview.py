"""Tests for analysis.common and analysis.overview (Section 4)."""

import numpy as np
import pytest

from repro.analysis.common import (
    allowed_mask,
    censored_mask,
    denied_mask,
    domain_codes,
    domain_column,
    error_mask,
    https_mask,
    ip_host_mask,
    isin_column,
    observed_allowed_mask,
    percent,
    proxied_mask,
)
from repro.analysis.overview import (
    dataset_inventory,
    domain_request_distribution,
    https_breakdown,
    port_distribution,
    top_domains,
    traffic_breakdown,
)
from repro.frame import top_counts
from repro.net.url import registered_domain
from tests.helpers import (
    allowed_row,
    censored_row,
    error_row,
    make_frame,
    proxied_row,
)


@pytest.fixture
def mixed_frame():
    return make_frame(
        [allowed_row(cs_host="www.google.com")] * 5
        + [allowed_row(cs_host="www.facebook.com")] * 3
        + [censored_row(cs_host="www.metacafe.com")] * 2
        + [censored_row(cs_host="www.facebook.com")]
        + [error_row("tcp_error", cs_host="www.google.com")] * 2
        + [error_row("internal_error")]
        + [proxied_row(cs_host="www.google.com")]
    )


class TestMasks:
    def test_partition(self, mixed_frame):
        total = len(mixed_frame)
        assert (
            int(allowed_mask(mixed_frame).sum())
            + int(denied_mask(mixed_frame).sum())
            == total
        )
        assert (
            int(censored_mask(mixed_frame).sum())
            + int(error_mask(mixed_frame).sum())
            == int(denied_mask(mixed_frame).sum())
        )

    def test_counts(self, mixed_frame):
        assert int(censored_mask(mixed_frame).sum()) == 3
        assert int(error_mask(mixed_frame).sum()) == 3
        assert int(proxied_mask(mixed_frame).sum()) == 1

    def test_observed_allowed_excludes_proxied(self, mixed_frame):
        assert int(observed_allowed_mask(mixed_frame).sum()) == 8

    def test_domain_column(self, mixed_frame):
        domains = domain_column(mixed_frame)
        assert set(domains) == {"google.com", "facebook.com", "metacafe.com",
                                "example.com"}

    def test_code_helpers_match_numpy(self, mixed_frame):
        """domain_codes, isin_column and top_counts equal the np.unique
        and np.isin forms they replace, on a frame and its subsets."""
        for frame in (
            mixed_frame,
            mixed_frame.where(censored_mask(mixed_frame)),
            mixed_frame.head(0),
        ):
            hosts = frame.col("cs_host")
            domains, codes = domain_codes(frame)
            want_domains, want_codes = np.unique(
                np.array([registered_domain(h) for h in hosts], dtype=object),
                return_inverse=True,
            )
            assert domains.tolist() == want_domains.tolist()
            assert codes.tolist() == want_codes.tolist()
            assert codes.dtype == want_codes.dtype
            wanted = ["www.google.com", "www.metacafe.com", "absent.org"]
            assert (
                isin_column(frame, "cs_host", wanted).tolist()
                == np.isin(hosts, wanted).tolist()
            )
            values, counts = np.unique(hosts, return_counts=True)
            ranked = sorted(
                zip(values.tolist(), counts.tolist()),
                key=lambda pair: (-pair[1], pair[0]),
            )
            assert top_counts(*frame.factorize("cs_host"), 2) == ranked[:2]

    def test_ip_host_mask(self):
        frame = make_frame([
            allowed_row(cs_host="1.2.3.4"),
            allowed_row(cs_host="a.com"),
        ])
        assert ip_host_mask(frame).tolist() == [True, False]

    def test_https_mask(self):
        frame = make_frame([
            allowed_row(cs_method="CONNECT", cs_uri_port=443),
            allowed_row(cs_uri_port=443),
            allowed_row(),
        ])
        assert https_mask(frame).tolist() == [True, True, False]

    def test_percent(self):
        assert percent(1, 4) == 25.0
        assert percent(1, 0) == 0.0


class TestTrafficBreakdown:
    def test_table3_semantics(self, mixed_frame):
        breakdown = traffic_breakdown(mixed_frame)
        assert breakdown.total == len(mixed_frame)
        assert breakdown.censored == 3
        assert breakdown.errors == 3
        assert breakdown.denied == 6
        assert breakdown.proxied == 1
        assert breakdown.allowed_pct == pytest.approx(
            100 * breakdown.allowed / breakdown.total
        )

    def test_exception_rows_sorted(self, mixed_frame):
        rows = traffic_breakdown(mixed_frame).exception_rows
        counts = [row.count for row in rows]
        assert counts == sorted(counts, reverse=True)
        assert all(row.exception_id != "-" for row in rows)


class TestTopDomains:
    def test_table4(self, mixed_frame):
        result = top_domains(mixed_frame, n=2)
        assert result.allowed[0].domain == "google.com"
        assert result.censored[0].domain == "metacafe.com"
        assert result.censored[0].requests == 2
        assert result.censored[0].share_pct == pytest.approx(200 / 3)

    def test_domains_can_appear_on_both_sides(self, mixed_frame):
        result = top_domains(mixed_frame, n=5)
        allowed_domains = {r.domain for r in result.allowed}
        censored_domains = {r.domain for r in result.censored}
        assert "facebook.com" in allowed_domains & censored_domains


class TestPortDistribution:
    def test_fig1(self):
        frame = make_frame([
            allowed_row(cs_uri_port=80)] * 4
            + [allowed_row(cs_uri_port=443)] * 2
            + [censored_row(cs_uri_port=9001)]
        )
        result = port_distribution(frame)
        assert result.allowed[0] == (80, 4)
        assert result.censored[0] == (9001, 1)


class TestDomainRequestDistribution:
    def test_fig2_histogram(self):
        frame = make_frame(
            [allowed_row(cs_host="a.com")] * 10
            + [allowed_row(cs_host="b.com")]
            + [censored_row(cs_host="c.com")]
        )
        result = domain_request_distribution(frame)
        assert (1, 1) in result.allowed  # one domain with one request
        assert (10, 1) in result.allowed
        assert result.censored == ((1, 1),)

    def test_heavy_tail_on_scenario(self, scenario):
        result = domain_request_distribution(scenario.full)
        counts = result.per_domain_counts["allowed"]
        # most domains receive few requests, a few receive many
        assert np.median(counts) < np.mean(counts)
        assert counts.max() > 50 * np.median(counts)


class TestHttps:
    def test_breakdown(self):
        frame = make_frame([
            allowed_row(cs_method="CONNECT", cs_uri_port=443, cs_host="a.com"),
            censored_row(cs_method="CONNECT", cs_uri_port=443, cs_host="1.2.3.4"),
            allowed_row(),
        ])
        result = https_breakdown(frame)
        assert result.https_requests == 2
        assert result.censored_https == 1
        assert result.censored_to_ip == 1
        assert result.censored_to_ip_pct == 100.0


class TestInventory:
    def test_table1(self, scenario):
        rows = dataset_inventory({"Full": scenario.full, "User": scenario.user})
        by_name = {row.name: row for row in rows}
        assert by_name["Full"].requests == len(scenario.full)
        assert by_name["Full"].proxies == 7
        assert by_name["User"].proxies == 1
        assert len(by_name["Full"].days) == 9
        assert by_name["User"].days == ("2011-07-22", "2011-07-23")


class TestScenarioOverview:
    """Shape checks against the paper's Section 4 (shared scenario)."""

    def test_allowed_dominates(self, scenario):
        breakdown = traffic_breakdown(scenario.full)
        assert breakdown.allowed_pct > 90
        assert 0.5 < breakdown.censored_pct < 3.0
        assert breakdown.proxied_pct < 1.5

    def test_tcp_error_is_biggest_error(self, scenario):
        breakdown = traffic_breakdown(scenario.full)
        error_rows = [
            r for r in breakdown.exception_rows
            if r.exception_id not in ("policy_denied", "policy_redirect")
        ]
        assert error_rows[0].exception_id == "tcp_error"

    def test_top_censored_domains_match_paper(self, scenario):
        result = top_domains(scenario.full)
        top = [r.domain for r in result.censored[:6]]
        assert "facebook.com" in top
        assert "metacafe.com" in top
        assert "skype.com" in top

    def test_google_tops_allowed(self, scenario):
        result = top_domains(scenario.full)
        assert result.allowed[0].domain == "google.com"

    def test_ports_80_and_443_dominate_censored(self, scenario):
        result = port_distribution(scenario.full)
        censored_ports = [port for port, _ in result.censored[:4]]
        assert 80 in censored_ports
