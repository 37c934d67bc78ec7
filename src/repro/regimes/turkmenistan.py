"""Turkmenistan: keyword DPI with RST teardown and subnet overblocking.

Models the architecture of "Measuring and Evading Turkmenistan's
Internet Censorship" (PAPERS.md): a state-telecom DPI box watches both
directions of every flow and tears matching connections down with
forged RSTs.  Two rule layers:

* **keyword DPI** — a substring blacklist over the visible request
  text (host+path+query for HTTP, SNI/host for CONNECT); a match
  kills the connection mid-flight;
* **subnet-wide overblocking** — endpoint blocks are deployed as
  whole /16 prefixes rather than individual addresses, so clean
  hosting traffic that happens to share a /16 with a blocked
  anonymizer endpoint is collateral damage (the paper's hallmark
  finding).

Both layers emit the same wire behaviour — a torn-down connection —
so both log the ``dpi_rst_teardown`` signature: status 0, zero bytes
served, ``TCP_RST_INJECT``.  No cache (no PROXIED rows), no category
layer (``cs-categories`` is ``-``).  :func:`build_turkmenistan_gateway`
deploys the shared batch :class:`~repro.regimes.gateway.Gateway` with
that one row as its signature table.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.analysis.stringfilter import recover_keywords
from repro.frame import LogFrame
from repro.net.ip import IPv4Network, parse_ipv4
from repro.net.url import is_ip_like
from repro.policy.engine import PolicyEngine
from repro.policy.rules import Action, RequestView, Verdict
from repro.regimes.base import RegimeProfile, RuleRecovery, register_regime
from repro.regimes.gateway import GATEWAY_STREAM, Gateway, Signature
from repro.workload import TrafficGenerator

RST_TEARDOWN = "dpi_rst_teardown"

#: The DPI keyword blacklist: circumvention-tool vocabulary (the
#: tooling names the paper probes for, not Syria's list — ``israel``
#: and ``ultrareach`` are absent, ``vpn``/``psiphon`` are present).
TM_KEYWORDS: tuple[str, ...] = (
    "proxy",
    "vpn",
    "ultrasurf",
    "hotspotshield",
    "psiphon",
)


class DpiKeywordRule:
    """Substring blacklist enforced by RST injection."""

    reads = ("host", "path", "query")

    def __init__(self, keywords: Iterable[str], name: str = "dpi"):
        self.keywords = tuple(keyword.lower() for keyword in keywords)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        text = request.matchable_text()
        for keyword in self.keywords:
            if keyword in text:
                return Verdict(
                    Action.DENY, RST_TEARDOWN, f"{self.name}:{keyword}"
                )
        return None


class SubnetRstRule:
    """Destination-prefix blacklist enforced by RST injection."""

    reads = ("host",)

    def __init__(self, prefixes: Iterable[IPv4Network], name: str = "subnet"):
        self.prefixes = tuple(prefixes)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        if not is_ip_like(request.host):
            return None
        address = parse_ipv4(request.host)
        for prefix in self.prefixes:
            if address in prefix:
                return Verdict(
                    Action.DENY, RST_TEARDOWN, f"{self.name}:{prefix}"
                )
        return None


@dataclass(frozen=True)
class TurkmenistanPolicy:
    """The deployed rule set plus its ground truth."""

    engine: PolicyEngine
    dpi_keywords: tuple[str, ...]
    blocked_prefixes: tuple[IPv4Network, ...]


def widen_to_prefixes(
    addresses: Iterable[str], prefix: int = 16
) -> tuple[IPv4Network, ...]:
    """Widen individual addresses to their covering /``prefix`` blocks.

    This *is* the overblocking: one blocked anonymizer endpoint takes
    its entire /16 down with it.
    """
    networks = {IPv4Network(parse_ipv4(a), prefix) for a in addresses}
    return tuple(sorted(networks, key=lambda net: (net.network, net.prefix)))


def build_turkmenistan_policy(generator: TrafficGenerator) -> TurkmenistanPolicy:
    """Assemble the Turkmen policy over the workload's ground truth.

    The same anonymizer endpoints Syria blocks individually are here
    deployed as whole /16 prefixes, which drags the clean hosting
    pools sharing those /16s into the blackout.
    """
    prefixes = widen_to_prefixes(generator.blocked_anonymizer_addresses())
    engine = PolicyEngine(
        [DpiKeywordRule(TM_KEYWORDS), SubnetRstRule(prefixes)],
        name="turkmenistan-dpi",
    )
    return TurkmenistanPolicy(
        engine=engine,
        dpi_keywords=TM_KEYWORDS,
        blocked_prefixes=prefixes,
    )


def build_turkmenistan_gateway(policy: TurkmenistanPolicy) -> Gateway:
    """The state-telecom DPI gateway.

    A single chokepoint appliance — the paper's vantage points all sit
    behind the same Turkmentelecom path.
    """
    return Gateway(
        "217.174.224.1", policy.engine,
        {
            # The torn-down connection: no response ever arrives, so
            # no status and no served bytes.
            RST_TEARDOWN: Signature(0, "TCP_RST_INJECT"),
        },
    )


def recover_blocked_prefixes(frame: LogFrame) -> tuple[str, ...]:
    """Recover the /16 blackout map from raw-IP traffic alone.

    Table 12's methodology generalized: a /16 is recovered when it
    contains censored raw-IP traffic and not a single allowed raw-IP
    request — the observable footprint of prefix-wide blocking.
    """
    hosts = frame.col("cs_host")
    exceptions = frame.col("x_exception_id")
    censored: set[int] = set()
    allowed: set[int] = set()
    for host, exception in zip(hosts, exceptions):
        if not is_ip_like(host):
            continue
        block = parse_ipv4(host) & 0xFFFF0000
        if exception == RST_TEARDOWN:
            censored.add(block)
        elif exception == "-":
            allowed.add(block)
    return tuple(
        str(IPv4Network(block, 16)) for block in sorted(censored - allowed)
    )


def _recover(
    frame: LogFrame, policy: TurkmenistanPolicy
) -> tuple[RuleRecovery, ...]:
    keywords = recover_keywords(frame)
    return (
        RuleRecovery(
            kind="dpi-keywords",
            recovered=tuple(sorted(k.keyword for k in keywords)),
            truth=tuple(sorted(policy.dpi_keywords)),
        ),
        RuleRecovery(
            kind="blocked-prefixes",
            recovered=recover_blocked_prefixes(frame),
            truth=tuple(str(p) for p in policy.blocked_prefixes),
        ),
    )


TURKMENISTAN = register_regime(RegimeProfile(
    name="turkmenistan",
    description="Keyword DPI with RST teardown and /16-wide overblocking",
    mechanisms=("keyword-dpi", "rst-teardown", "subnet-overblocking"),
    censor_exceptions=frozenset({RST_TEARDOWN}),
    build_workload=TrafficGenerator,
    build_policy=build_turkmenistan_policy,
    build_fleet=build_turkmenistan_gateway,
    fleet_stream=GATEWAY_STREAM,
    recover_rules=_recover,
))
