"""Filtering rule types.

Every rule inspects a :class:`RequestView` — the fields the SGOS policy
layer can see — and either abstains (``None``) or returns a
:class:`Verdict`.  Rules are pure and reusable; the per-country
configuration lives in :mod:`repro.policy.syria`.

Each rule declares the view fields its verdict depends on as
``reads``.  :meth:`~repro.policy.engine.PolicyEngine.evaluate_columns`
runs the rules one at a time over a :class:`ColumnChunk` (the columnar
form of a view), each on the rows no earlier rule decided, memoized on
that rule's own ``reads``; a rule type with a cheaper column form
(keywords, Facebook pages, Tor OR connections) offers it as
``evaluate_rows``.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

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


#: Every :class:`RequestView` field, in declaration order — what a rule
#: that does not declare the fields it ``reads`` is assumed to read.
VIEW_FIELDS: tuple[str, ...] = RequestView._fields


#: Marks a memo miss (``None`` is a memoized abstention).
_UNSEEN = object()

#: The view a keyed evaluation fills in: fields outside a rule's
#: ``reads`` keep these defaults.
_BLANK_VIEW = RequestView("")


def object_column(values: list) -> np.ndarray:
    """A 1-d object array holding *values* as they are."""
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


class HostIndex:
    """Stable integer ids for the hosts a policy engine has seen.

    Lives as long as its engine, so per-host memos indexed by these
    ids carry over from chunk to chunk.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.hosts: list[str] = []

    def encode(self, hosts: list[str]) -> np.ndarray:
        """Each of *hosts*' id, adding unseen hosts in order."""
        ids = self._ids
        for host in dict.fromkeys(hosts):
            if host not in ids:
                ids[host] = len(self.hosts)
                self.hosts.append(host)
        return np.fromiter(map(ids.__getitem__, hosts), np.intp, len(hosts))


class ColumnChunk:
    """A chunk of requests as policy-visible columns.

    The columnar :class:`RequestView`: *columns* maps view field names
    to equal-length numpy columns (extra keys are ignored).  Column
    methods read only the fields they need, for the rows they are
    given, and return one verdict-or-``None`` per row as an object
    array.  The host column is encoded through the engine's
    :class:`HostIndex` at most once per chunk.
    """

    def __init__(self, columns, hosts: HostIndex):
        self.columns = columns
        self._hosts = hosts
        self._host_ids: np.ndarray | None = None

    def values(self, field: str, rows: np.ndarray) -> list:
        """The *field* values of *rows*, as Python objects."""
        return self.columns[field][rows].tolist()

    def host_ids(self) -> tuple[np.ndarray, list[str]]:
        """``(ids, hosts)``: row *i*'s host is ``hosts[ids[i]]``."""
        if self._host_ids is None:
            self._host_ids = self._hosts.encode(self.columns["host"].tolist())
        return self._host_ids, self._hosts.hosts

    def evaluate_keyed(
        self, rule, rows: np.ndarray, reads: tuple[str, ...]
    ) -> np.ndarray:
        """*rule*'s verdicts, evaluated once per distinct combination of
        the *reads* fields among *rows* (on a view carrying only them)."""
        memo: dict[tuple, Verdict | None] = {}
        found = []
        for key in zip(*(self.values(field, rows) for field in reads)):
            verdict = memo.get(key, _UNSEEN)
            if verdict is _UNSEEN:
                verdict = memo[key] = rule.evaluate(
                    _BLANK_VIEW._replace(**dict(zip(reads, key)))
                )
            found.append(verdict)
        return object_column(found)


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

    def evaluate_rows(self, chunk: ColumnChunk, rows: np.ndarray) -> np.ndarray:
        """One ``str.find`` scan per keyword, in keyword order, over the
        rows' matchable texts joined by NULs; a row keeps the first
        keyword it contains."""
        texts = [
            f"{host}{path}?{query}".lower()
            for host, path, query in zip(
                chunk.values("host", rows), chunk.values("path", rows),
                chunk.values("query", rows),
            )
        ]
        lengths = np.fromiter(map(len, texts), np.intp, len(texts)) + 1
        ends = np.cumsum(lengths)
        starts = (ends - lengths).tolist()
        ends = (ends - 1).tolist()
        joined = "\0".join(texts)
        found = np.full(len(texts), None, dtype=object)
        for keyword in self.keywords:
            verdict = Verdict(Action.DENY, _DENIED, f"{self.name}:{keyword}")
            position = joined.find(keyword)
            while position >= 0:
                row = bisect_right(starts, position) - 1
                if position + len(keyword) > ends[row]:
                    # Runs past the row's text: look further on.
                    position = joined.find(keyword, position + 1)
                    continue
                if found[row] is None:
                    found[row] = verdict
                if row + 1 == len(texts):
                    break
                position = joined.find(keyword, starts[row + 1])
        return found


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

    def evaluate_rows(self, chunk: ColumnChunk, rows: np.ndarray) -> np.ndarray:
        """Evaluates only the rows whose host is one of the rule's."""
        ids, hosts = chunk.host_ids()
        row_codes = ids[rows]
        # Distinct ids by bincount: a plain np.unique imports numpy.ma.
        watched = [
            code for code in np.flatnonzero(np.bincount(row_codes)).tolist()
            if hosts[code].lower() in self.hosts
        ]
        found = np.full(len(rows), None, dtype=object)
        if watched:
            positions = np.flatnonzero(np.isin(row_codes, watched))
            found[positions] = chunk.evaluate_keyed(
                self, rows[positions], self.reads
            )
        return found


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

    def evaluate_rows(self, chunk: ColumnChunk, rows: np.ndarray) -> np.ndarray:
        """Evaluates only the ``CONNECT`` rows."""
        found = np.full(len(rows), None, dtype=object)
        connect = np.flatnonzero(chunk.columns["method"][rows] == "CONNECT")
        if len(connect):
            found[connect] = chunk.evaluate_keyed(
                self, rows[connect], self.reads
            )
        return found


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
