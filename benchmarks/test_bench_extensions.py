"""Benches for the extension analyses: the MITM check, the keyword
weather report, the economics indices, and the what-if policy runs."""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.economics import censorship_economics
from repro.analysis.https_mitm import https_mitm_check
from repro.analysis.weather import keyword_weather
from repro.datasets import build_scenario
from repro.policy.syria import KEYWORDS
from repro.reporting import render_table
from repro.workload.config import small_config


def test_ext_https_mitm_check(benchmark, bench_scenario):
    result = benchmark.pedantic(
        lambda: https_mitm_check(bench_scenario.full), rounds=3
    )
    print(f"\nHTTPS MITM check — {result.https_requests} CONNECT rows, "
          f"{result.suspicious_rows} with decrypted fields "
          "(paper: no sign of interception in the main logs)")
    assert not result.interception_evidence


def test_ext_keyword_weather(benchmark, bench_scenario):
    result = benchmark.pedantic(
        lambda: keyword_weather(bench_scenario.full, KEYWORDS), rounds=2
    )
    print()
    print(render_table(
        ["Day", *result.keywords],
        [
            [day, *(int(result.counts[k][j]) for k in range(len(result.keywords)))]
            for j, day in enumerate(result.days)
        ],
        title="Keyword weather report (ConceptDoppler-style tracking)",
    ))
    proxy_series = dict(result.series("proxy"))
    assert all(count > 0 for day, count in proxy_series.items()
               if day.startswith("2011-08"))


def test_ext_economics_indices(benchmark, bench_scenario):
    result = benchmark.pedantic(
        lambda: censorship_economics(bench_scenario.user), rounds=3
    )
    print(f"\nEconomics indices (D_user) — collateral "
          f"{result.collateral_index_pct:.1f}% of censored volume, "
          f"precision {result.precision_index_pct:.1f}%, stealth "
          f"{result.stealth_index_pct:.1f}% of users unaffected")
    assert result.collateral_index_pct + result.precision_index_pct == 100.0


def test_ext_whatif_no_keywords(benchmark):
    """End-to-end what-if: rebuild the deployment without the keyword
    engine and measure the censored-volume collapse."""
    config = small_config(25_000, seed=77)

    def run():
        from repro.analysis.overview import traffic_breakdown

        baseline = build_scenario(config)
        stripped = build_scenario(
            replace(config, policy_transform="no-keyword-filtering")
        )
        return (
            traffic_breakdown(baseline.full).censored_pct,
            traffic_breakdown(stripped.full).censored_pct,
        )

    base_pct, stripped_pct = benchmark.pedantic(run, rounds=1)
    print(f"\nWhat-if — censored share {base_pct:.2f}% with keywords vs "
          f"{stripped_pct:.2f}% without (paper: 'proxy' alone is 53.6% "
          "of censored traffic)")
    assert stripped_pct < base_pct * 0.65
