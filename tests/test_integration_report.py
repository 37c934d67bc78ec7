"""End-to-end integration: the full report against scenario ground
truth — the known-answer validation of the whole pipeline."""

import dataclasses
import hashlib
import json

import numpy as np

from repro.policy.syria import KEYWORDS


class TestReportEndToEnd:
    def test_every_section_present(self, report):
        assert report.table1 and report.table3 and report.table4
        assert report.table8 and report.table10 and report.table13
        assert report.fig3 and report.fig5.allowed_counts.sum() > 0
        assert report.tor.total_requests > 0
        assert report.bittorrent.announce_requests > 0

    def test_headline_proportions(self, report):
        """Table 3 shape: >90 % allowed, ~1 % censored, ~5 % errors."""
        full = report.table3["full"]
        assert full.allowed_pct > 90.0
        assert 0.5 < full.censored_pct < 3.0
        assert 3.0 < (full.denied_pct - full.censored_pct) < 9.0

    def test_sample_tracks_full(self, report):
        """D_sample proportions stay close to D_full (the paper's CI
        argument, at our smaller scale with a looser bound)."""
        full = report.table3["full"]
        sample = report.table3["sample"]
        assert abs(full.allowed_pct - sample.allowed_pct) < 3.0
        assert abs(full.censored_pct - sample.censored_pct) < 1.5

    def test_denied_dataset_consistency(self, report):
        denied = report.table3["denied"]
        assert denied.allowed == 0
        assert denied.denied == denied.total

    def test_recovered_domains_match_policy(self, scenario, report):
        """Known-answer: every Table 8 domain is genuinely blocked —
        by a domain rule, the .il suffix, or a keyword embedded in its
        hostnames (the recovery cannot and need not distinguish a
        domain rule from a keyword that covers every host under it)."""
        recovered = {row.domain for row in report.table8}
        policy = scenario.policy
        from repro.analysis.common import domain_column

        hosts = scenario.full.col("cs_host")
        domains = domain_column(scenario.full)
        for domain in recovered:
            domain_hosts = {
                str(h) for h, d in zip(hosts, domains) if d == domain
            }
            explained = (
                domain in policy.blocked_domains
                or domain.endswith(".il")
                or all(
                    any(k in host for k in policy.keywords)
                    for host in domain_hosts
                )
            )
            assert explained, f"false positive: {domain}"

    def test_recovered_keywords_subset_of_policy(self, report):
        keywords = [k.keyword for k in report.recovered_keywords]
        assert keywords
        assert keywords[0] == "proxy"
        assert set(keywords) <= set(KEYWORDS)

    def test_keyword_stats_sound(self, report):
        for row in report.table10:
            assert row.allowed == 0

    def test_facebook_both_top_allowed_and_top_censored(self, report):
        allowed_domains = {r.domain for r in report.table4.allowed}
        censored_domains = {r.domain for r in report.table4.censored}
        assert "facebook.com" in allowed_domains & censored_domains

    def test_tor_censored_only_by_sg44(self, report):
        assert set(report.tor.censored_by_proxy) <= {"SG-44"}
        assert report.tor.http_censored == 0

    def test_https_censorship_targets_ips(self, report):
        """Section 4: most censored HTTPS goes to raw IP addresses."""
        if report.https.censored_https >= 5:
            assert report.https.censored_to_ip_pct > 50.0

    def test_redirects_dominated_by_upload_youtube(self, report):
        assert report.table7.rows[0][0] == "upload.youtube.com"

    def test_table12_blocked_subnets_have_no_allowed(self, scenario, report):
        blocked = {str(net) for net in scenario.policy.blocked_subnets}
        for row in report.table12:
            if row.subnet in blocked:
                assert row.allowed_requests == 0

    def test_fig2_power_law_tail(self, report):
        counts = report.fig2.per_domain_counts["allowed"]
        assert counts.max() > 30 * np.median(counts)

    def test_fig6_rcv_bounded(self, report):
        values = report.fig6.rcv[~np.isnan(report.fig6.rcv)]
        assert (values >= 0).all() and (values <= 1).all()

    def test_fig9_rfilter_bounded(self, report):
        values = report.fig9.rfilter[~np.isnan(report.fig9.rfilter)]
        assert (values >= 0).all() and (values <= 1).all()

    def test_extension_sections_populated(self, report):
        assert report.mitm is not None
        assert not report.mitm.interception_evidence
        assert report.keyword_weather is not None
        assert len(report.keyword_weather.days) == 9
        assert report.economics is not None
        assert (
            report.economics.collateral_index_pct
            + report.economics.precision_index_pct
        ) == 100.0 or report.economics.censored_total == 0


def _canonical(value):
    """A JSON-ready form of a report value that keeps types and order.

    Dataclasses go field by field, numpy arrays as dtype plus
    ``tolist()``, dicts in insertion order and sets sorted; every other
    value is its type name plus ``repr``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [
            type(value).__name__,
            [
                [f.name, _canonical(getattr(value, f.name))]
                for f in dataclasses.fields(value)
            ],
        ]
    if isinstance(value, np.ndarray):
        return ["ndarray", str(value.dtype), _canonical(value.tolist())]
    if isinstance(value, dict):
        return [
            type(value).__name__,
            [[_canonical(k), _canonical(v)] for k, v in value.items()],
        ]
    if isinstance(value, (set, frozenset)):
        items = [_canonical(v) for v in value]
        return [type(value).__name__, sorted(items, key=json.dumps)]
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, [_canonical(v) for v in value]]
    return [type(value).__name__, repr(value)]


def report_digest(report) -> str:
    """SHA-256 over the canonical form of every report field."""
    text = json.dumps(_canonical(report), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Every CensorshipReport field of the shared 50k scenario (seed 11),
# as the sharded engine builds it (scenario builder v2: engine shard
# streams).  Any change to an analysis that moves a single table value,
# a dtype or a result type moves this digest.
REPORT_DIGEST = (
    "481635179a810fff8dc457490832510d6870ee0b5372fb1feba3493358945be0"
)


class TestReportPin:
    def test_every_field_pinned(self, report):
        assert report_digest(report) == REPORT_DIGEST
