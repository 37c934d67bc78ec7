"""Syria as a regime profile — the paper's deployment, re-homed.

The profile delegates to exactly the construction the pre-regime
engine hardwired: :func:`repro.policy.syria.build_syrian_policy` over
the canonical workload's ground truth, filtered by the seven-proxy
:class:`~repro.proxy.ProxyFleet`.  Byte-identical output to the
pre-refactor pipeline is pinned differentially in
``tests/test_regimes.py``, so treat any change to the construction
order here as an output-breaking change.
"""

from __future__ import annotations

from repro.analysis.stringfilter import recover_policy
from repro.frame import LogFrame
from repro.policy.syria import SyrianPolicy, build_syrian_policy
from repro.proxy import ProxyFleet
from repro.proxy.sg9000 import FLEET_STREAM
from repro.regimes.base import RegimeProfile, RuleRecovery, register_regime
from repro.workload import TrafficGenerator


def _build_policy(generator: TrafficGenerator) -> SyrianPolicy:
    return build_syrian_policy(
        generator.sites,
        tor_directory=generator.tor_directory,
        extra_blocked_addresses=generator.blocked_anonymizer_addresses(),
    )


def _recover(frame: LogFrame, policy: SyrianPolicy) -> tuple[RuleRecovery, ...]:
    """The paper's Section 5.4 recovery, scored against ground truth."""
    recovery = recover_policy(frame)
    return (
        RuleRecovery(
            kind="url-domains",
            recovered=tuple(sorted(
                row.domain for row in recovery.suspected_domains()
            )),
            truth=tuple(sorted(policy.blocked_domains)),
        ),
        RuleRecovery(
            kind="hosts",
            recovered=tuple(sorted(row.host for row in recovery.hosts)),
            truth=tuple(sorted(policy.blocked_hosts)),
        ),
        RuleRecovery(
            kind="keywords",
            recovered=tuple(sorted(k.keyword for k in recovery.keywords)),
            truth=tuple(sorted(policy.keywords)),
        ),
    )


SYRIA = register_regime(RegimeProfile(
    name="syria",
    description="Blue Coat SG-9000 proxy fleet (Summer 2011, the paper)",
    mechanisms=("url-filtering", "keywords", "ip-subnets", "categories"),
    censor_exceptions=frozenset({"policy_denied", "policy_redirect"}),
    build_workload=TrafficGenerator,
    build_policy=_build_policy,
    build_fleet=ProxyFleet,
    fleet_stream=FLEET_STREAM,
    recover_rules=_recover,
))
