"""Named what-if policies.

The canonical scenario reproduces the Summer-2011 policy the paper
measured.  The paper's remarks section notes how the ecosystem evolved
(Tor relays and bridges blocked from December 2012; heavier equipment
purchased) and argues that understanding the policy helps circumvention
design.  The transforms registered here make such what-ifs runnable: a
config names one in ``ScenarioConfig.policy_transform``, and
:func:`repro.datasets.build_scenario` deploys it over the regime's
policy, so the result is comparable against the baseline with the
ordinary analysis pipeline::

    build_scenario(replace(config, policy_transform="tor-blackout"))

The name travels with the config, so every shard worker rebuilds the
same policy, and it is part of the config digest a run ledger checks.

A transform is regime-agnostic: it receives whatever policy object
``config.regime``'s registered profile builds (see
:mod:`repro.regimes`) plus the traffic generator, and returns the
policy to deploy.  The shipped transforms target the default Syrian
policy's fields via :func:`dataclasses.replace`, so they also apply
unchanged to any policy type carrying the same field names.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace
from typing import Any

from repro.catalog.categories import Category
from repro.categorizer import TrustedSourceCategorizer
from repro.policy.engine import PolicyEngine
from repro.policy.extensions import CategoryRule, TimeOfDayRule
from repro.policy.rules import KeywordRule, TorBlockSchedule, TorOnionRule
from repro.timeline import day_epoch
from repro.workload import TrafficGenerator

#: A policy hook: (deployed policy, traffic generator) -> the policy
#: to run.  The policy type is the regime's own — transforms written
#: for one regime should check for or document the fields they touch.
PolicyTransform = Callable[[Any, TrafficGenerator], Any]

#: The streaming curfew's hours (local time, end exclusive).
CURFEW_START_HOUR = 18
CURFEW_END_HOUR = 23


class UnknownPolicyTransformError(ValueError):
    """Raised for a ``policy_transform`` name with no registered
    transform."""


def _with_rules(policy: Any, rules: list, **changes: Any) -> Any:
    """*policy* with *rules* added to its base and per-proxy engines."""
    return replace(
        policy,
        base_engine=policy.base_engine.with_rules(rules),
        proxy_engines={
            name: engine.with_rules(rules)
            for name, engine in policy.proxy_engines.items()
        },
        **changes,
    )


def tor_blackout(policy: Any, generator: TrafficGenerator) -> Any:
    """The December-2012 state: every proxy blocks every Tor OR
    connection, all the time (the paper's remark about relays and
    bridges being blocked)."""
    start = day_epoch("2011-07-22")
    end = day_epoch("2011-08-07")
    schedule = TorBlockSchedule([(start, end, 1.0)])
    rule = TorOnionRule(generator.tor_directory.or_endpoints(), schedule)
    return _with_rules(policy, [rule], tor_schedule=schedule)


def streaming_curfew(policy: Any, generator: TrafficGenerator) -> Any:
    """A category × time-of-day policy: streaming media blocked during
    the evening protest-mobilization hours (18–23h) — the kind of
    fine-grained control the paper notes DPI-capable appliances
    support."""
    categorizer = TrustedSourceCategorizer(generator.sites)
    rule = TimeOfDayRule(
        CategoryRule([Category.STREAMING_MEDIA], categorizer.categorize),
        CURFEW_START_HOUR,
        CURFEW_END_HOUR,
    )
    return _with_rules(policy, [rule])


def no_keyword_filtering(policy: Any, generator: TrafficGenerator) -> Any:
    """Remove the keyword engine entirely — the collateral-damage
    counterfactual behind the paper's Section 8 discussion."""

    def strip(engine: PolicyEngine) -> PolicyEngine:
        rules = [r for r in engine.rules if not isinstance(r, KeywordRule)]
        return PolicyEngine(rules, name=engine.name)

    return replace(
        policy,
        base_engine=strip(policy.base_engine),
        proxy_engines={
            name: strip(engine)
            for name, engine in policy.proxy_engines.items()
        },
        keywords=(),
    )


#: The transforms a config can name, by ``policy_transform`` value.
POLICY_TRANSFORMS: dict[str, PolicyTransform] = {
    "tor-blackout": tor_blackout,
    "streaming-curfew": streaming_curfew,
    "no-keyword-filtering": no_keyword_filtering,
}


def get_policy_transform(name: str) -> PolicyTransform:
    """Look up a registered transform by name."""
    try:
        return POLICY_TRANSFORMS[name]
    except KeyError:
        raise UnknownPolicyTransformError(
            f"unknown policy transform {name!r}; registered transforms: "
            f"{', '.join(sorted(POLICY_TRANSFORMS))}"
        ) from None
