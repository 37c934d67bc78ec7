#!/usr/bin/env python3
"""What-if policy experiments.

Re-runs the same nine days of traffic under alternative censorship
policies and compares outcomes against the Summer-2011 baseline — the
forward-looking use of the reproduction the paper's conclusion
envisions ("facilitate the design of censorship-evading tools").

Scenarios (each a registered ``ScenarioConfig.policy_transform``):
  * baseline             — the policy the paper measured;
  * tor-blackout         — the December-2012 state (all relays blocked);
  * streaming-curfew     — category × time-of-day blocking (18–23h);
  * no-keyword-filtering — the keyword engine removed (collateral-damage
                           counterfactual).

Run:  python examples/whatif_policies.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.overview import traffic_breakdown
from repro.analysis.toranalysis import identify_tor_traffic, tor_overview
from repro.datasets import build_scenario
from repro.reporting import render_table
from repro.workload.config import small_config


def main() -> None:
    config = small_config(40_000, seed=8)
    print("Running four policies over identical traffic...")

    transforms = {
        "baseline (2011)": None,
        "tor blackout (2012)": "tor-blackout",
        "streaming curfew 18-23h": "streaming-curfew",
        "no keyword engine": "no-keyword-filtering",
    }
    scenarios = {
        name: build_scenario(replace(config, policy_transform=transform))
        for name, transform in transforms.items()
    }

    rows = []
    for name, datasets in scenarios.items():
        breakdown = traffic_breakdown(datasets.full)
        tor = tor_overview(identify_tor_traffic(
            datasets.full, datasets.generator.tor_directory
        ))
        rows.append([
            name,
            f"{breakdown.censored_pct:.2f}",
            f"{breakdown.allowed_pct:.2f}",
            f"{tor.censored_pct:.1f}",
            len(tor.censored_by_proxy),
        ])
    print(render_table(
        ["Policy", "Censored %", "Allowed %", "Tor censored %",
         "Proxies censoring Tor"],
        rows,
        title="\nOutcomes under alternative policies",
    ))

    print("\nReadings:")
    print(" * The Tor blackout multiplies Tor censorship while the rest "
          "of the traffic is untouched — circumvention tooling should "
          "expect relay blocking to arrive independently of web policy "
          "changes (it did, in Dec 2012).")
    print(" * The curfew shows how cheaply a DPI appliance turns "
          "category data into time-targeted blocking.")
    print(" * Removing the keyword engine roughly halves censored volume "
          "— most of what the 2011 policy blocked was substring "
          "collateral, exactly the paper's conclusion.")


if __name__ == "__main__":
    main()
