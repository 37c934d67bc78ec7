"""Benches for the narrative sections without a table/figure number:
HTTPS (Section 4), BitTorrent (7.3), Google cache (7.4), plus the
end-to-end report build."""

from __future__ import annotations

import paper_values as paper

from repro.analysis import googlecache, overview, p2p, stringfilter
from repro.analysis.report import build_report
from repro.bittorrent import TitleDatabase


def test_sec4_https(benchmark, bench_scenario):
    result = benchmark.pedantic(
        lambda: overview.https_breakdown(bench_scenario.full), rounds=3
    )
    print(f"\nSection 4 HTTPS — share of traffic "
          f"{result.https_share_pct:.2f}% (paper {paper.HTTPS['share_pct']}%; "
          "ours is higher because every CONNECT logs one line), "
          f"censored {result.censored_share_pct:.2f}% of HTTPS "
          f"(paper {paper.HTTPS['censored_pct']}%), of which to raw IPs "
          f"{result.censored_to_ip_pct:.1f}% "
          f"(paper {paper.HTTPS['censored_to_ip_pct']}%)")
    if result.censored_https >= 5:
        assert result.censored_to_ip_pct > 50.0


def test_sec73_bittorrent(benchmark, bench_scenario):
    titledb = TitleDatabase(bench_scenario.generator.torrent_catalog)
    result = benchmark.pedantic(
        lambda: p2p.bittorrent_analysis(bench_scenario.full, titledb),
        rounds=2,
    )
    print(f"\nSection 7.3 BitTorrent — {result.announce_requests} announces "
          f"(paper {paper.BITTORRENT['announces']:,}), "
          f"{result.unique_users} users, {result.unique_contents} contents, "
          f"allowed {result.allowed_share_pct:.2f}% (paper 99.97%), "
          f"titles resolved {result.resolve_rate_pct:.1f}% (paper 77.4%), "
          f"circumvention-tool announces {result.circumvention_announces}, "
          f"IM-software announces {result.im_software_announces}, "
          f"censored trackers {result.censored_tracker_hosts} "
          "(paper: tracker-proxy.furk.net)")
    assert result.allowed_share_pct > 97.0
    assert set(result.censored_tracker_hosts) <= {"tracker-proxy.furk.net"}


def test_sec74_google_cache(benchmark, bench_scenario):
    suspected = {
        row.domain
        for row in stringfilter.recover_censored_domains(bench_scenario.full)
    }
    result = benchmark.pedantic(
        lambda: googlecache.google_cache_analysis(
            bench_scenario.full, suspected | {"panet.co.il", "free-syria.com"}
        ),
        rounds=3,
    )
    print(f"\nSection 7.4 Google cache — {result.requests} fetches "
          f"(paper {paper.GOOGLE_CACHE['requests']:,}), censored "
          f"{result.censored} (paper {paper.GOOGLE_CACHE['censored']}), "
          f"allowed fetches of censored content: "
          f"{result.censored_content_fetches} via {result.censored_targets}")
    assert result.allowed > result.censored * 5
    assert result.censored_content_fetches > 0


def test_full_report_build(benchmark, bench_scenario):
    """The end-to-end pipeline cost: every analysis in one pass."""
    result = benchmark.pedantic(
        lambda: build_report(bench_scenario),
        rounds=1,
    )
    print(f"\nFull report built: {len(result.table8)} suspected domains, "
          f"{result.tor.total_requests} Tor requests, "
          f"{result.table3['full'].censored_pct:.2f}% censored")
    assert result.table4.censored
