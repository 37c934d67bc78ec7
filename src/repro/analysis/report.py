"""Full-report orchestration: run every analysis of the paper over a
scenario and collect the results in one object.

This is what `examples/censorship_report.py` and several benches use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import (
    anonymizers,
    categories,
    consistency,
    economics,
    googlecache,
    https_mitm,
    ipfilter,
    overview,
    p2p,
    proxies,
    redirects,
    socialmedia,
    stringfilter,
    temporal,
    toranalysis,
    users,
    weather,
)
from repro.bittorrent import TitleDatabase
from repro.datasets import ScenarioDatasets
from repro.geoip import builtin_registry
from repro.net.ip import parse_network
from repro.policy.syria import KEYWORDS
from repro.timeline import PROTEST_DAY, day_epoch


@dataclass
class CensorshipReport:
    """Every table/figure of the paper, computed over one scenario."""

    table1: list[overview.DatasetInventory]
    table3: dict[str, overview.TrafficBreakdown]
    table4: overview.TopDomains
    table5: list[temporal.WindowTopDomains]
    table6: proxies.ProxySimilarity
    table7: redirects.RedirectHosts
    table8: list[stringfilter.SuspectedDomain]
    table9: list[stringfilter.SuspectedCategoryRow]
    table10: list[stringfilter.KeywordStats]
    table11: list[ipfilter.CountryCensorship]
    table12: list[ipfilter.SubnetRow]
    table13: list[socialmedia.OsnRow]
    table14: list[socialmedia.FacebookPageRow]
    table15: list[socialmedia.PluginRow]
    fig1: overview.PortDistribution
    fig2: overview.DomainRequestDistribution
    fig3: list[categories.CategoryShare]
    fig4: users.UserAnalysis
    fig5: temporal.TrafficTimeseries
    fig6: temporal.RcvSeries
    fig7: proxies.ProxyLoadTimeseries
    fig8_hourly: toranalysis.HourlySeries
    fig8_proxy: toranalysis.ProxyCensoredShare
    fig9: toranalysis.RefilterSeries
    fig10: anonymizers.AnonymizerAnalysis
    https: overview.HttpsBreakdown
    tor: toranalysis.TorOverview
    bittorrent: p2p.BitTorrentAnalysis
    google_cache: googlecache.GoogleCacheAnalysis
    recovered_keywords: list[stringfilter.RecoveredKeyword] = field(
        default_factory=list
    )
    # Extension analyses (beyond the paper's numbered tables/figures).
    mitm: https_mitm.MitmCheck | None = None
    proxied_consistency: consistency.ProxiedConsistency | None = None
    keyword_weather: weather.KeywordWeather | None = None
    economics: economics.EconomicsIndices | None = None
    software_agents: list[users.SoftwareAgentRow] = field(default_factory=list)


def build_report(datasets: ScenarioDatasets) -> CensorshipReport:
    """Run the complete pipeline."""
    full = datasets.full
    geoip = builtin_registry()
    categorizer = datasets.categorizer

    aug_start = day_epoch("2011-08-01")
    aug_end = day_epoch("2011-08-06") + 86400

    recovery = stringfilter.recover_policy(full)
    table8 = recovery.suspected_domains()
    suspected_set = {row.domain for row in table8}
    breakdown_full = overview.traffic_breakdown(full)
    total_censored = breakdown_full.censored

    tor = toranalysis.identify_tor_traffic(full, datasets.generator.tor_directory)
    titledb = TitleDatabase(datasets.generator.torrent_catalog)
    ip_frame = ipfilter.ipv4_subset(full)

    return CensorshipReport(
        table1=overview.dataset_inventory({
            "Full": full,
            "Sample": datasets.sample,
            "User": datasets.user,
            "Denied": datasets.denied,
        }),
        table3={
            "full": breakdown_full,
            "sample": overview.traffic_breakdown(datasets.sample),
            "user": overview.traffic_breakdown(datasets.user),
            "denied": overview.traffic_breakdown(datasets.denied),
        },
        table4=overview.top_domains(full),
        table5=temporal.top_censored_windows(full, PROTEST_DAY),
        table6=proxies.proxy_similarity(full, day=PROTEST_DAY),
        table7=redirects.redirect_hosts(full),
        table8=table8,
        table9=stringfilter.categorize_suspected(
            table8, categorizer, total_censored
        ),
        table10=stringfilter.keyword_stats(full, KEYWORDS),
        table11=ipfilter.country_censorship_ratio(ip_frame, geoip),
        table12=ipfilter.israeli_subnets(
            ip_frame, datasets.policy.blocked_subnets + (
                # the paper's fifth subnet, mostly allowed:
                parse_network("212.150.0.0/16"),
            )
        ),
        table13=socialmedia.osn_breakdown(full),
        table14=socialmedia.facebook_pages(full),
        table15=socialmedia.facebook_plugins(full),
        fig1=overview.port_distribution(full),
        fig2=overview.domain_request_distribution(full),
        fig3=categories.censored_category_distribution(
            datasets.sample, categorizer
        ),
        fig4=users.user_analysis(datasets.user),
        fig5=temporal.traffic_timeseries(full, aug_start, aug_end),
        fig6=temporal.relative_censored_volume(full, PROTEST_DAY),
        fig7=proxies.proxy_load_timeseries(
            full, day_epoch("2011-08-03"), day_epoch("2011-08-04") + 86400
        ),
        fig8_hourly=toranalysis.tor_hourly_series(tor, aug_start, aug_end),
        fig8_proxy=toranalysis.proxy_censored_comparison(
            full, tor, "SG-44", aug_start, aug_end
        ),
        fig9=toranalysis.refilter_ratio(tor),
        fig10=anonymizers.anonymizer_analysis(full, categorizer),
        https=overview.https_breakdown(full),
        tor=toranalysis.tor_overview(tor),
        bittorrent=p2p.bittorrent_analysis(full, titledb),
        google_cache=googlecache.google_cache_analysis(
            full, suspected_set | {"panet.co.il", "free-syria.com"}
        ),
        recovered_keywords=recovery.keywords,
        mitm=https_mitm.https_mitm_check(full),
        proxied_consistency=consistency.proxied_consistency_by_domain(full),
        keyword_weather=weather.keyword_weather(full, KEYWORDS),
        economics=economics.censorship_economics(datasets.user),
        software_agents=users.software_agent_analysis(datasets.user),
    )
