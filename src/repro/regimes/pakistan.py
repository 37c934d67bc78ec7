"""Pakistan: ISP-level DNS injection and HTTP block pages.

Models the architecture of "The Anatomy of Web Censorship in Pakistan"
(PAPERS.md): blocking happens in the ISP's resolver/gateway path, not
in a caching proxy.  Blacklisted *domains* never resolve — the
injector answers NXDOMAIN before any TCP connection exists — while
blacklisted *URLs/hosts* on plain HTTP are answered with a 302
redirect to a government block page.  There is no proxy cache, so this
regime's logs contain no PROXIED rows at all, and no categorizer, so
``cs-categories`` is always ``-``.

Distinct verdict signatures (members of
:data:`repro.logmodel.classify.CENSOR_EXCEPTIONS`):

* ``dns_injected_nxdomain`` — status 0, ``DNS_INJECT_NXDOMAIN``;
* ``http_blockpage`` — status 302, ``TCP_BLOCKPAGE_REDIRECT``, with
  the block-page host as the supplier.

:func:`build_pakistan_gateway` deploys the shared batch
:class:`~repro.regimes.gateway.Gateway` with these two rows as its
signature table.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.frame import LogFrame
from repro.net.url import is_ip_like, registered_domain
from repro.policy.engine import PolicyEngine
from repro.policy.rules import Action, RequestView, Verdict
from repro.policy.syria import (
    blocked_domains_from_sites,
    blocked_hosts_from_sites,
)
from repro.regimes.base import RegimeProfile, RuleRecovery, register_regime
from repro.regimes.gateway import GATEWAY_STREAM, Gateway, Signature
from repro.workload import TrafficGenerator

DNS_INJECTED = "dns_injected_nxdomain"
BLOCKPAGE = "http_blockpage"

#: Where the 302 block pages point (the surveyed ISPs redirect to a
#: handful of government notice hosts; one stands in for them here).
BLOCKPAGE_HOST = "block.pta.gov.pk"


class DnsInjectionRule:
    """Domain blacklist enforced at resolution time.

    Applies to every scheme — HTTPS included, since the name never
    resolves — but not to raw-IP requests, which bypass DNS entirely
    (the paper's evasion observation).
    """

    reads = ("host",)

    def __init__(self, domains: Iterable[str], name: str = "dns"):
        self.domains = frozenset(domains)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        if is_ip_like(request.host):
            return None
        domain = registered_domain(request.host)
        if domain in self.domains:
            return Verdict(Action.DENY, DNS_INJECTED, f"{self.name}:{domain}")
        return None


class BlockpageRule:
    """Host blacklist answered with a 302 block page.

    Plain HTTP only: the gateway cannot forge a response inside a TLS
    stream, so CONNECT requests to these hosts pass (the paper's
    HTTPS-evasion finding).
    """

    reads = ("host", "scheme", "method")

    def __init__(self, hosts: Iterable[str], name: str = "blockpage"):
        self.hosts = frozenset(hosts)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        if request.method == "CONNECT" or request.scheme == "https":
            return None
        if request.host in self.hosts:
            return Verdict(
                Action.REDIRECT, BLOCKPAGE, f"{self.name}:{request.host}"
            )
        return None


@dataclass(frozen=True)
class PakistanPolicy:
    """The deployed rule set plus its ground truth."""

    engine: PolicyEngine
    dns_blocked_domains: frozenset[str]
    blockpage_hosts: frozenset[str]
    blockpage_host: str = BLOCKPAGE_HOST


def build_pakistan_policy(generator: TrafficGenerator) -> PakistanPolicy:
    """Assemble the Pakistani policy over the workload's site universe.

    The same tagged sites that seed Syria's URL filtering stand in for
    the court-ordered blocklists: ``suspected``-tagged domains go to
    the DNS injector, individually ``blocked-host``-tagged hosts to
    the block-page list.  DNS wins when both would match — resolution
    happens before any HTTP exchange.
    """
    dns_domains = blocked_domains_from_sites(generator.sites)
    page_hosts = blocked_hosts_from_sites(generator.sites)
    engine = PolicyEngine(
        [DnsInjectionRule(dns_domains), BlockpageRule(page_hosts)],
        name="pakistan-isp",
    )
    return PakistanPolicy(
        engine=engine,
        dns_blocked_domains=dns_domains,
        blockpage_hosts=page_hosts,
    )


def build_pakistan_gateway(policy: PakistanPolicy) -> Gateway:
    """The ISP gateway: resolver injection plus inline HTTP filtering.

    One logical appliance (the logs of the Pakistani vantage points
    come from a single ISP path), no cache, no category layer.
    """
    return Gateway(
        "202.125.128.1", policy.engine,
        {
            # The forged NXDOMAIN: no TCP connection ever exists, so
            # there is no HTTP status and almost no bytes.
            DNS_INJECTED: Signature(0, "DNS_INJECT_NXDOMAIN", (60, 140)),
            BLOCKPAGE: Signature(
                302, "TCP_BLOCKPAGE_REDIRECT", (300, 600),
                supplier=policy.blockpage_host, content_type="text/html",
            ),
        },
    )


def _recover(frame: LogFrame, policy: PakistanPolicy) -> tuple[RuleRecovery, ...]:
    """Re-derive the blocklists from the injector's own signatures.

    The mechanisms identify themselves in the logs (the paper's
    fingerprinting step): every NXDOMAIN-injected row names a
    DNS-blocked domain, every 302-to-block-page row names a filtered
    host.  Recall falls short of 1.0 exactly where the workload never
    touched a blacklisted name — unobserved rules are unrecoverable.
    """
    exceptions = frame.col("x_exception_id")
    hosts = frame.col("cs_host")
    dns_hosts = hosts[exceptions == DNS_INJECTED]
    page_hosts = hosts[exceptions == BLOCKPAGE]
    return (
        RuleRecovery(
            kind="dns-domains",
            recovered=tuple(sorted({registered_domain(h) for h in dns_hosts})),
            truth=tuple(sorted(policy.dns_blocked_domains)),
        ),
        RuleRecovery(
            kind="blockpage-hosts",
            recovered=tuple(sorted(set(page_hosts))),
            truth=tuple(sorted(policy.blockpage_hosts)),
        ),
    )


PAKISTAN = register_regime(RegimeProfile(
    name="pakistan",
    description="ISP-level DNS NXDOMAIN injection + HTTP 302 block pages",
    mechanisms=("dns-injection", "http-blockpage"),
    censor_exceptions=frozenset({DNS_INJECTED, BLOCKPAGE}),
    build_workload=TrafficGenerator,
    build_policy=build_pakistan_policy,
    build_fleet=build_pakistan_gateway,
    fleet_stream=GATEWAY_STREAM,
    recover_rules=_recover,
))
