"""Filtering rule types.

Every rule inspects a :class:`RequestView` — the fields the SGOS policy
layer can see — and either abstains (``None``) or returns a
:class:`Verdict`.  Rules are pure and reusable; the per-country
configuration lives in :mod:`repro.policy.syria`.

Each rule declares the view fields its verdict depends on as
``reads``; :meth:`~repro.policy.engine.PolicyEngine.evaluate_columns`
memoizes verdicts on their union, so a chunk of requests costs one
evaluation per distinct key rather than one per request.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from repro.net.ip import IPv4Network, parse_ipv4
from repro.net.url import is_ip_like, registered_domain


class Action(Enum):
    """What the proxy does with a matched request."""

    ALLOW = "allow"
    DENY = "deny"
    REDIRECT = "redirect"


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of policy evaluation.

    ``rule`` names the matching rule (simulation ground truth — the
    real logs never record it); ``category`` carries a custom category
    label when one applies (the "Blocked sites" mechanism).
    """

    action: Action
    exception_id: str
    rule: str | None = None
    category: str | None = None


ALLOW_VERDICT = Verdict(Action.ALLOW, "-")
_DENIED = "policy_denied"
_REDIRECTED = "policy_redirect"


class RequestView(NamedTuple):
    """The request attributes visible to the policy layer.

    For HTTPS CONNECT requests only the host and port are visible
    (Section 4 of the paper: path/query/ext are absent from HTTPS log
    entries), so ``path`` and ``query`` are empty there.

    An immutable named tuple: cheap to build, since a policy engine
    builds one per distinct request of every chunk it filters.
    """

    host: str
    path: str = ""
    query: str = ""
    port: int = 80
    scheme: str = "http"
    method: str = "GET"
    epoch: int = 0
    user_agent: str = ""  # used only by browser-type rules

    def matchable_text(self) -> str:
        return f"{self.host}{self.path}?{self.query}".lower()


class KeywordRule:
    """Substring blacklist over host+path+query (Section 5.4).

    The paper identifies five keywords: ``proxy``, ``hotspotshield``,
    ``ultrareach``, ``israel`` and ``ultrasurf``.  Matching is a plain
    case-insensitive substring scan — exactly what produces the
    paper's collateral damage (Google toolbar, Facebook plugins, ads).
    """

    reads = ("host", "path", "query")

    def __init__(self, keywords: Iterable[str], name: str = "keyword"):
        self.keywords = tuple(keyword.lower() for keyword in keywords)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        text = request.matchable_text()
        for keyword in self.keywords:
            if keyword in text:
                return Verdict(Action.DENY, _DENIED, f"{self.name}:{keyword}")
        return None


class DomainBlacklistRule:
    """Registered-domain and TLD-suffix blacklist (URL-based filtering).

    Blocks every request whose host falls under a blacklisted
    registered domain (e.g. ``metacafe.com``) or a blacklisted suffix
    (e.g. ``.il`` — the paper finds all Israeli domains blocked).
    """

    reads = ("host",)

    def __init__(
        self,
        domains: Iterable[str],
        suffixes: Iterable[str] = (),
        name: str = "domain",
    ):
        self.domains = frozenset(domain.lower() for domain in domains)
        self.suffixes = tuple(suffix.lower() for suffix in suffixes)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        host = request.host.lower()
        if is_ip_like(host):
            return None
        domain = registered_domain(host)
        if domain in self.domains:
            return Verdict(Action.DENY, _DENIED, f"{self.name}:{domain}")
        for suffix in self.suffixes:
            if host.endswith(suffix):
                return Verdict(Action.DENY, _DENIED, f"{self.name}:{suffix}")
        return None


class HostBlacklistRule:
    """Exact-hostname blacklist (finer than domain blocking).

    Used for hosts like ``messenger.live.com`` where the registered
    domain stays reachable but one service host is always censored.
    """

    reads = ("host",)

    def __init__(self, hosts: Iterable[str], name: str = "host"):
        self.hosts = frozenset(host.lower() for host in hosts)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        host = request.host.lower()
        if host in self.hosts:
            return Verdict(Action.DENY, _DENIED, f"{self.name}:{host}")
        return None


class RedirectHostRule:
    """Hosts whose requests are redirected rather than denied (Table 7)."""

    reads = ("host",)

    def __init__(self, hosts: Iterable[str], name: str = "redirect"):
        self.hosts = frozenset(host.lower() for host in hosts)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        host = request.host.lower()
        if host in self.hosts:
            return Verdict(Action.REDIRECT, _REDIRECTED, f"{self.name}:{host}")
        return None


class FacebookPageRule:
    """The custom "Blocked sites" category (Section 6, Table 14).

    Matches requests to specific Facebook pages only when the query is
    one of a narrow set of forms; matching requests are categorized
    into the custom category and redirected.  Page-name matching is
    case-sensitive, mirroring the paper's observation that
    ``Syrian.Revolution`` and ``Syrian.revolution`` behave differently.
    """

    CATEGORY = "Blocked sites"

    reads = ("host", "path", "query")

    def __init__(
        self,
        pages: Iterable[str],
        hosts: Iterable[str],
        query_forms: Iterable[str],
        name: str = "fb-page",
    ):
        self.pages = frozenset(pages)
        self.hosts = frozenset(host.lower() for host in hosts)
        self.query_forms = frozenset(query_forms)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        if request.host.lower() not in self.hosts:
            return None
        page = request.path.strip("/")
        if page in self.pages and request.query in self.query_forms:
            return Verdict(
                Action.REDIRECT, _REDIRECTED, f"{self.name}:{page}", self.CATEGORY
            )
        return None


class IPBlacklistRule:
    """Destination-IP filtering (Section 5.4, Tables 11–12).

    Applies only when the requested host is a raw IPv4 address; blocks
    blacklisted subnets (the Israeli blocks of Table 12) and individual
    addresses (e.g. anonymizer endpoints).
    """

    reads = ("host",)

    def __init__(
        self,
        subnets: Iterable[IPv4Network] = (),
        addresses: Iterable[str] = (),
        name: str = "ip",
    ):
        self.subnets = tuple(subnets)
        self.addresses = frozenset(parse_ipv4(a) for a in addresses)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        if not is_ip_like(request.host):
            return None
        address = parse_ipv4(request.host)
        if address in self.addresses:
            return Verdict(Action.DENY, _DENIED, f"{self.name}:address")
        for subnet in self.subnets:
            if address in subnet:
                return Verdict(Action.DENY, _DENIED, f"{self.name}:{subnet}")
        return None


class TorOnionRule:
    """Time-varying blocking of Tor OR connections (Section 7.1).

    The paper observes that a single proxy (SG-44) intermittently
    censors Tor *onion* traffic (connections to relay OR ports) while
    directory (HTTP) traffic stays untouched.  The rule matches
    ``(relay ip, OR port)`` pairs and applies a per-time-window
    blocking probability, reproducing the inconsistent R_filter
    behaviour of Fig. 9.  The probability draw is deterministic in the
    request (hash-based), keeping policy evaluation a pure function.
    """

    reads = ("host", "port", "method", "epoch")

    def __init__(
        self,
        relay_endpoints: Iterable[tuple[str, int]],
        schedule: "TorBlockSchedule",
        name: str = "tor",
    ):
        self.endpoints = frozenset(
            (ip, int(port)) for ip, port in relay_endpoints
        )
        self.schedule = schedule
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        if request.method != "CONNECT":
            return None
        if (request.host, request.port) not in self.endpoints:
            return None
        probability = self.schedule.block_probability(request.epoch)
        if probability <= 0.0:
            return None
        # Deterministic pseudo-random draw from the request identity
        # (crc32 rather than hash(): str hashing is salted per process).
        token = f"{request.host}:{request.port}:{request.epoch}".encode()
        draw = (zlib.crc32(token) & 0xFFFF) / 0x10000
        if draw < probability:
            return Verdict(Action.DENY, _DENIED, f"{self.name}:onion")
        return None


class TorBlockSchedule:
    """Piecewise-constant blocking intensity over time."""

    def __init__(self, windows: Iterable[tuple[int, int, float]]):
        self.windows = tuple(windows)
        for start, end, probability in self.windows:
            if start >= end:
                raise ValueError(f"empty window: {start}..{end}")
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"bad probability: {probability}")

    def block_probability(self, epoch: int) -> float:
        for start, end, probability in self.windows:
            if start <= epoch < end:
                return probability
        return 0.0
