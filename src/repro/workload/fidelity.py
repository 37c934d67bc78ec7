"""Workload fidelity measurement.

Quantifies how closely a generated request stream matches its
configuration: per-component volumes against the configured shares,
per-day volumes against the day multipliers, and the share of traffic
carried by the named (paper-calibrated) sites.  The calibration tests
assert on these numbers, and they are useful when tuning the catalogs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.traffic import RequestBatch
from repro.workload.config import COMPONENT_SHARES, ScenarioConfig


@dataclass(frozen=True)
class FidelityReport:
    """Measured vs expected traffic composition."""

    total_requests: int
    component_shares: dict[str, float]  # measured fractions
    expected_component_shares: dict[str, float]  # boosted config targets
    day_shares: dict[str, float]
    expected_day_shares: dict[str, float]

    def component_error(self, component: str) -> float:
        """Relative error of one component's volume."""
        expected = self.expected_component_shares.get(component, 0.0)
        measured = self.component_shares.get(component, 0.0)
        if expected == 0.0:
            return 0.0 if measured == 0.0 else float("inf")
        return abs(measured - expected) / expected


def measure_fidelity(
    config: ScenarioConfig,
    day_streams: list[tuple[str, RequestBatch]],
) -> FidelityReport:
    """Compare generated streams against the configuration.

    ``day_streams`` pairs each day with its
    ``TrafficGenerator.generate_day`` batch.
    """
    component_counts: Counter[str] = Counter()
    day_counts: Counter[str] = Counter()
    total = 0
    for day, requests in day_streams:
        day_counts[day] += len(requests)
        total += len(requests)
        components = Counter(requests.col("component").tolist())
        for component, count in components.items():
            if component.startswith("tor-"):
                component = "tor"  # tor-http/tor-onion are one budget
            component_counts[component] += count

    expected_components = {}
    for component, share in COMPONENT_SHARES.items():
        expected_components[component] = share * config.boost(component)
    boosted_total = sum(expected_components.values())
    expected_components["browsing"] = max(0.0, 1.0 - boosted_total)

    return FidelityReport(
        total_requests=total,
        component_shares={
            component: count / total
            for component, count in component_counts.items()
        },
        expected_component_shares=expected_components,
        day_shares={day: count / total for day, count in day_counts.items()},
        expected_day_shares=config.day_weights(),
    )
