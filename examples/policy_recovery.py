#!/usr/bin/env python3
"""Recovering a censorship policy from proxy logs alone.

The paper's core methodological contribution (Section 5.4) is the
iterative recovery of the filtering rules from the logs: blocked
domains from bare-URL evidence, keywords from censored/allowed
contrast.  This example runs the recovery against a simulation where
the true policy is known, then grades the result — a validation the
paper's authors could never perform on the real leak.

Run:  python examples/policy_recovery.py
"""

from __future__ import annotations

from repro.analysis.stringfilter import keyword_stats, recover_policy
from repro.datasets import build_scenario
from repro.reporting import render_table
from repro.workload.config import small_config


def main() -> None:
    print("Simulating 60,000 requests through the Syrian policy...")
    datasets = build_scenario(small_config(60_000, seed=3))
    frame = datasets.full
    truth = datasets.policy
    # One pass recovers all three rule kinds; the steps below show them.
    recovery = recover_policy(frame)

    # ------------------------------------------------------------------
    print("\nStep 1 — recover always-blocked domains "
          "(bare-URL evidence, Table 8):")
    suspected = recovery.suspected_domains()
    print(render_table(
        ["Domain", "Censored", "% of censored", "In true policy?"],
        [
            [row.domain, row.censored, f"{row.censored_share_pct:.2f}",
             "yes" if row.domain in truth.blocked_domains
             else ("il-suffix" if row.domain.endswith(".il")
                   else "keyword-named")]
            for row in suspected[:15]
        ],
    ))
    recovered_set = {row.domain for row in suspected}
    truth_with_traffic = {
        domain for domain in truth.blocked_domains if domain in recovered_set
    }
    print(f"Recovered {len(suspected)} domains; "
          f"{len(truth_with_traffic)} are rule-blocked domains, the rest "
          "are .il-suffix or keyword-named hosts (indistinguishable from "
          "domain rules, as the paper notes).")

    # ------------------------------------------------------------------
    print("\nStep 2 — recover individually-blocked hosts "
          "(finer than Table 8):")
    from repro.policy.syria import REDIRECT_HOSTS

    for row in recovery.hosts:
        if row.host in truth.blocked_hosts:
            marker = "yes (host rule)"
        elif row.host in REDIRECT_HOSTS:
            marker = "yes (redirect rule)"
        else:
            marker = "?"
        print(f"  {row.host:<30} censored={row.censored:<5} "
              f"in true policy: {marker}")

    # ------------------------------------------------------------------
    print("\nStep 3 — recover the keyword blacklist "
          "(greedy max-coverage, Table 10):")
    keywords = recovery.keywords
    print(render_table(
        ["Recovered keyword", "Coverage", "In true blacklist?"],
        [[k.keyword, k.coverage,
          "yes" if k.keyword in truth.keywords else "NO"]
         for k in keywords],
    ))
    missed = set(truth.keywords) - {k.keyword for k in keywords}
    if missed:
        print(f"Not recovered at this scale (too little traffic): {missed}")

    # ------------------------------------------------------------------
    print("\nStep 4 — quantify each true keyword (Table 10):")
    print(render_table(
        ["Keyword", "Censored", "% of censored", "Allowed (must be 0)"],
        [[r.keyword, r.censored, f"{r.censored_share_pct:.2f}", r.allowed]
         for r in keyword_stats(frame, truth.keywords)],
    ))
    print("\nThe 'proxy' keyword alone explains over half the censored "
          "traffic — the paper's collateral-damage finding.")


if __name__ == "__main__":
    main()
