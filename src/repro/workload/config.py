"""Scenario configuration.

A :class:`ScenarioConfig` pins down one simulated deployment: the total
request volume, the days covered, per-component volume shares, and the
*boost* factors that oversample rare components at small scales.

The paper's shares are tiny for some components (Tor is 0.013 % of
751 M requests); a laptop-scale run with true shares would generate too
few Tor/BitTorrent/page-visit requests to reproduce the corresponding
figures.  Boosts scale a component's volume up while leaving its
*internal* proportions untouched; analyses that report within-component
shares are unaffected, and EXPERIMENTS.md records where a boost was
applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.timeline import LOG_DAYS, USER_SLICE_DAYS

#: Per-component share of total request volume, calibrated to the paper
#: (browsing absorbs the remainder).
COMPONENT_SHARES: dict[str, float] = {
    "iphosts": 0.0110,  # requests whose cs-host is an IPv4 address
    "tor": 0.000126,  # 95 K of 751 M
    "bittorrent": 0.00045,  # 338 K of 751 M
    "redirect-targets": 0.0000266,  # Tables 7 + 14 volume
    "google-cache": 0.0000065,  # 4,860 of 751 M
}

#: Default boosts make every analysis statistically meaningful at the
#: default bench scale (~400 K requests) without distorting headline
#: proportions (they move total non-browsing share by < 0.6 %).
DEFAULT_BOOSTS: dict[str, float] = {
    "iphosts": 4.0,
    "tor": 60.0,
    "bittorrent": 6.0,
    "redirect-targets": 12.0,
    "google-cache": 120.0,
}

#: Default boost of the July (user-slice) days in bench scenarios:
#: raises D_user's volume so the Fig. 4 per-user statistics have
#: signal at laptop scale.
DEFAULT_USER_DAY_BOOST = 12.0

#: Relative volume of each log day (August protest-week shape plus the
#: July days, which exist only for proxy SG-42 and are far smaller).
DAY_MULTIPLIERS: dict[str, float] = {
    "2011-07-22": 0.028,
    "2011-07-23": 0.026,
    "2011-07-31": 0.027,
    "2011-08-01": 1.00,
    "2011-08-02": 1.02,
    "2011-08-03": 1.06,
    "2011-08-04": 0.86,
    "2011-08-05": 0.58,  # Friday: weekly-protest slowdown (Fig. 5)
    "2011-08-06": 0.92,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulated deployment."""

    total_requests: int = 400_000
    days: tuple[str, ...] = LOG_DAYS
    seed: int = 20110804
    #: Which registered censorship-regime profile filters the traffic
    #: (see :mod:`repro.regimes`).  The default reproduces the paper's
    #: Syrian deployment.
    regime: str = "syria"
    boosts: dict[str, float] = field(default_factory=dict)
    tail_domains: int = 1200
    suspected_domains: int = 84
    tor_relays: int = 1111
    torrent_contents: int = 1200
    user_scale: float = 1.0  # multiplies the derived population size
    user_day_boost: float = 1.0  # volume multiplier for the July days
    #: A registered what-if policy (see :mod:`repro.scenarios`) deployed
    #: over the regime's policy; ``None`` deploys the policy as built.
    policy_transform: str | None = None

    def boost(self, component: str) -> float:
        return self.boosts.get(component, 1.0)

    def with_boosts(self, **boosts: float) -> "ScenarioConfig":
        merged = dict(self.boosts)
        merged.update(boosts)
        return replace(self, boosts=merged)

    def component_requests(self, component: str, day_weight: float) -> int:
        """Request count for a component on a day with *day_weight*
        (the day's share of total volume)."""
        share = COMPONENT_SHARES[component] * self.boost(component)
        return int(round(self.total_requests * day_weight * share))

    def browsing_requests(self, day_weight: float) -> int:
        """Browsing absorbs whatever the special components leave."""
        boosted = sum(
            COMPONENT_SHARES[c] * self.boost(c) for c in COMPONENT_SHARES
        )
        share = max(0.0, 1.0 - boosted)
        return int(round(self.total_requests * day_weight * share))

    def day_weights(self) -> dict[str, float]:
        """Normalized per-day volume shares."""
        weights = {}
        for day in self.days:
            weight = DAY_MULTIPLIERS.get(day, 1.0)
            if day in USER_SLICE_DAYS:
                weight *= self.user_day_boost
            weights[day] = weight
        total = sum(weights.values())
        return {day: weight / total for day, weight in weights.items()}


def report_config(
    total_requests: int, seed: int, regime: str = "syria"
) -> ScenarioConfig:
    """The scenario ``repro report`` builds: the default boosts plus the
    July-day boost (also the benchmarks' main ``bench_scenario``)."""
    return ScenarioConfig(
        total_requests=total_requests,
        seed=seed,
        regime=regime,
        boosts=dict(DEFAULT_BOOSTS),
        user_day_boost=DEFAULT_USER_DAY_BOOST,
    )


def small_config(total_requests: int = 40_000, seed: int = 7) -> ScenarioConfig:
    """A test-sized scenario with boosted rare components."""
    boosts = dict(DEFAULT_BOOSTS)
    # Tests need Table 14's page visits to be visible at tiny scale.
    boosts["redirect-targets"] = 60.0
    return ScenarioConfig(
        total_requests=total_requests,
        seed=seed,
        boosts=boosts,
        tail_domains=300,
        suspected_domains=84,
        tor_relays=200,
        torrent_contents=300,
        user_day_boost=DEFAULT_USER_DAY_BOOST,
    )
