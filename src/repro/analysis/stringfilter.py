"""Section 5.4: recovering the censorship policy from the logs.

The paper reverse-engineers the string-based filtering with an
iterative process: find a string frequent in censored URLs and absent
from allowed ones, attribute, remove, repeat — taking bare-domain
requests (``GET new-syria.com/``) as unambiguous evidence for
URL/domain rules and the remaining high-coverage strings as keywords.

This module automates that process:

* :func:`recover_censored_domains` — the 105-domain list (Table 8);
* :func:`recover_keywords` — the five keywords (Table 10), via greedy
  maximum-coverage selection over candidate tokens that never occur in
  allowed traffic;
* :func:`keyword_stats` / :func:`categorize_suspected` — the
  corresponding tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.analysis.common import (
    censored_mask,
    domain_codes,
    isin_column,
    observed_allowed_mask,
    percent,
    proxied_mask,
)
from repro.categorizer import TrustedSourceCategorizer
from repro.frame import LogFrame
from repro.net.url import is_ip_like, registered_domain

_TOKEN_RE = re.compile(r"[a-z0-9]{4,24}")


def _matchable_texts(frame: LogFrame, mask: np.ndarray) -> list[str]:
    hosts = frame.col("cs_host")[mask]
    paths = frame.col("cs_uri_path")[mask]
    queries = frame.col("cs_uri_query")[mask]
    return [
        f"{h}{p}?{q}".lower() for h, p, q in zip(hosts, paths, queries)
    ]


@dataclass(frozen=True)
class SuspectedDomain:
    """One Table 8 row."""

    domain: str
    censored: int
    censored_share_pct: float  # of all censored traffic
    allowed: int  # zero by construction
    proxied: int


def _looks_like_identifier(token: str) -> bool:
    """Random ids (hex blobs, numbers) that cannot be policy strings."""
    if token.isdigit():
        return True
    return len(token) >= 8 and all(c in "0123456789abcdef" for c in token)


def recover_censored_domains(
    frame: LogFrame,
    min_censored: int = 3,
) -> list[SuspectedDomain]:
    """Recover domains blocked by URL-based filtering (Table 8).

    A domain is *suspected* when no request to it is ever allowed
    (PROXIED rows, whose missing exceptions are unreliable, do not
    count as allowed) **and** at least one censored request is
    attributable to the domain itself rather than a keyword — either a
    bare-domain request (``GET new-syria.com/``, the paper's
    conservative evidence), or a request whose every path/query token
    also occurs in allowed traffic, so no keyword could have triggered
    it.  ``min_censored`` suppresses domains with too little traffic
    to judge.
    """
    censored = censored_mask(frame)
    allowed = observed_allowed_mask(frame)
    proxied = proxied_mask(frame)
    paths = frame.col("cs_uri_path")
    queries = frame.col("cs_uri_query")
    # Bare request: nothing beyond the hostname to blame.  CONNECT
    # rows log path/query as '-'.
    path_strings = paths.astype(str)
    no_query = (queries == "") | (queries == "-")
    bare = (
        ((paths == "/") | (paths == "") | (paths == "-")) & no_query
    ) | (no_query & (np.char.count(path_strings, "/") <= 1))

    unique_domains, inverse = domain_codes(frame)
    n = len(unique_domains)
    censored_counts = np.bincount(inverse, weights=censored, minlength=n).astype(int)
    allowed_counts = np.bincount(inverse, weights=allowed, minlength=n).astype(int)
    proxied_counts = np.bincount(inverse, weights=proxied, minlength=n).astype(int)
    bare_censored = np.bincount(
        inverse, weights=censored & bare, minlength=n
    ).astype(int)

    # Lazy fallback evidence for domains with no bare censored request:
    # an allowed-traffic corpus for substring checks, memoized per token.
    allowed_corpus: str | None = None
    token_seen: dict[str, bool] = {}

    def token_in_allowed(token: str) -> bool:
        nonlocal allowed_corpus
        if token not in token_seen:
            if allowed_corpus is None:
                allowed_corpus = "\n".join(
                    _matchable_texts(frame, observed_allowed_mask(frame))
                )
            token_seen[token] = token in allowed_corpus
        return token_seen[token]

    def domain_attributable(domain_index: int) -> bool:
        rows = np.flatnonzero((inverse == domain_index) & censored)
        for row in rows[:50]:  # a handful of requests decide it
            text = f"{paths[row]}?{queries[row]}".lower()
            tokens = [
                t for t in set(_TOKEN_RE.findall(text))
                if not _looks_like_identifier(t)
            ]
            if all(token_in_allowed(t) for t in tokens):
                return True
        return False

    total_censored = int(censored.sum())
    suspected = []
    for i, domain in enumerate(unique_domains):
        if is_ip_like(str(domain)):
            continue  # IP-based filtering is analyzed separately
        if censored_counts[i] < min_censored or allowed_counts[i] != 0:
            continue
        if bare_censored[i] >= 1 or domain_attributable(i):
            suspected.append(SuspectedDomain(
                domain=str(domain),
                censored=int(censored_counts[i]),
                censored_share_pct=percent(int(censored_counts[i]), total_censored),
                allowed=0,
                proxied=int(proxied_counts[i]),
            ))
    suspected.sort(key=lambda s: (-s.censored, s.domain))
    return suspected


@dataclass(frozen=True)
class SuspectedHost:
    """A host blocked individually while its domain stays reachable
    (e.g. the MSN Messenger gateway on the otherwise-allowed
    live.com)."""

    host: str
    censored: int


def recover_censored_hosts(
    frame: LogFrame,
    exclude_domains: set[str] | frozenset[str] = frozenset(),
    min_censored: int = 3,
) -> list[SuspectedHost]:
    """Recover hosts blocked individually (finer than Table 8).

    Same evidence standard as :func:`recover_censored_domains`, applied
    per hostname, restricted to hosts whose registered domain is *not*
    already suspected (those are explained by the domain rule).
    """
    censored = censored_mask(frame)
    allowed = observed_allowed_mask(frame)
    paths = frame.col("cs_uri_path")
    queries = frame.col("cs_uri_query")
    no_query = (queries == "") | (queries == "-")
    bare = ((paths == "/") | (paths == "") | (paths == "-")) & no_query

    unique_hosts, inverse = frame.factorize("cs_host")
    n = len(unique_hosts)
    censored_counts = np.bincount(inverse, weights=censored, minlength=n).astype(int)
    allowed_counts = np.bincount(inverse, weights=allowed, minlength=n).astype(int)
    bare_censored = np.bincount(inverse, weights=censored & bare, minlength=n).astype(int)

    results = []
    for i, host in enumerate(unique_hosts):
        if is_ip_like(str(host)):
            continue
        if registered_domain(host) in exclude_domains:
            continue
        if (
            censored_counts[i] >= min_censored
            and allowed_counts[i] == 0
            and bare_censored[i] >= 1
        ):
            results.append(SuspectedHost(str(host), int(censored_counts[i])))
    results.sort(key=lambda s: (-s.censored, s.host))
    return results


@dataclass(frozen=True)
class RecoveredKeyword:
    """One recovered keyword with its censored coverage."""

    keyword: str
    coverage: int  # censored requests uniquely attributed to it


def never_allowed_domains(frame: LogFrame) -> frozenset[str]:
    """Domains with censored traffic and not a single allowed request.

    Their censored requests are *ambiguous* keyword evidence — the
    trigger could equally be a domain rule — so the conservative
    keyword hunter excludes them (the paper's step-2 caution).
    """
    censored = censored_mask(frame)
    allowed = observed_allowed_mask(frame)
    unique_domains, inverse = domain_codes(frame)
    n = len(unique_domains)
    censored_counts = np.bincount(inverse, weights=censored, minlength=n)
    allowed_counts = np.bincount(inverse, weights=allowed, minlength=n)
    return frozenset(
        str(domain)
        for domain, c, a in zip(unique_domains, censored_counts, allowed_counts)
        if c > 0 and a == 0
    )


def never_allowed_hosts(frame: LogFrame) -> frozenset[str]:
    """Hosts with censored traffic and no allowed request (the
    host-level analogue of :func:`never_allowed_domains`)."""
    censored = censored_mask(frame)
    allowed = observed_allowed_mask(frame)
    unique_hosts, inverse = frame.factorize("cs_host")
    n = len(unique_hosts)
    censored_counts = np.bincount(inverse, weights=censored, minlength=n)
    allowed_counts = np.bincount(inverse, weights=allowed, minlength=n)
    return frozenset(
        str(host)
        for host, c, a in zip(unique_hosts, censored_counts, allowed_counts)
        if c > 0 and a == 0
    )


def recover_keywords(
    frame: LogFrame,
    exclude_domains: set[str] | frozenset[str] = frozenset(),
    exclude_hosts: set[str] | frozenset[str] = frozenset(),
    min_coverage: int = 5,
    max_keywords: int = 10,
    candidate_pool: int = 400,
    exclude_ambiguous: bool = True,
) -> list[RecoveredKeyword]:
    """Recover the keyword blacklist (the five strings of Table 10).

    Greedy maximum-coverage over candidate tokens: tokens of censored
    URLs that never occur — as substrings — anywhere in allowed
    traffic.  Each round selects the token covering the most remaining
    censored requests; covered requests are removed, mirroring the
    paper's iterative step.  Greedy selection naturally prefers
    ``proxy`` over correlated tokens like ``plugins``, because after
    ``proxy`` is chosen the correlated tokens cover nothing.

    With ``exclude_ambiguous`` (the default), requests to domains and
    hosts that are *never allowed* are dropped first: keyword evidence
    must come from mixed domains, where the contrast between censored
    and allowed URLs isolates the trigger string.
    """
    censored = censored_mask(frame)
    exclude_domains = set(exclude_domains)
    exclude_hosts = set(exclude_hosts)
    if exclude_ambiguous:
        exclude_domains |= never_allowed_domains(frame)
        exclude_hosts |= never_allowed_hosts(frame)
    if exclude_domains:
        domains, codes = domain_codes(frame)
        censored = censored & ~np.isin(domains, sorted(exclude_domains))[codes]
    if exclude_hosts:
        censored = censored & ~isin_column(
            frame, "cs_host", sorted(exclude_hosts)
        )
    censored_texts = _matchable_texts(frame, censored)
    if not censored_texts:
        return []
    censored_hosts = frame.col("cs_host")[censored].tolist()
    allowed_corpus = "\n".join(
        _matchable_texts(frame, observed_allowed_mask(frame))
    )

    token_counts: dict[str, int] = {}
    for text in censored_texts:
        for token in set(_TOKEN_RE.findall(text)):
            token_counts[token] = token_counts.get(token, 0) + 1
    candidates = sorted(
        token_counts, key=lambda t: (-token_counts[t], t)
    )[:candidate_pool]
    # A blacklist string must never appear in allowed traffic.
    candidates = [c for c in candidates if c not in allowed_corpus]

    remaining = list(zip(censored_texts, censored_hosts))
    keywords: list[RecoveredKeyword] = []
    for _ in range(max_keywords):
        best_token = None
        best_score = (0, 0)
        for token in candidates:
            cover = sum(1 for text, _ in remaining if token in text)
            if cover == 0:
                continue
            # Tie-break on host diversity: a genuine policy string cuts
            # across hosts (toolbar + plugins + ads), whereas a merely
            # correlated token (e.g. 'plugins') is host-local.
            diversity = len({host for text, host in remaining if token in text})
            score = (cover, diversity)
            if score > best_score or (
                score == best_score
                and best_token is not None
                and token < best_token
            ):
                best_token, best_score = token, score
        if best_token is None or best_score[0] < min_coverage:
            break
        keywords.append(RecoveredKeyword(best_token, best_score[0]))
        remaining = [
            (text, host) for text, host in remaining if best_token not in text
        ]
        candidates.remove(best_token)
    return keywords


@dataclass(frozen=True)
class KeywordStats:
    """One Table 10 row."""

    keyword: str
    censored: int
    censored_share_pct: float  # of all censored traffic
    allowed: int
    proxied: int


def keyword_stats(
    frame: LogFrame, keywords: tuple[str, ...]
) -> list[KeywordStats]:
    """Compute Table 10 for a keyword list.

    Requests matching several keywords attribute to the first match in
    the given order.
    """
    censored = censored_mask(frame)
    allowed = observed_allowed_mask(frame)
    proxied = proxied_mask(frame)
    hosts = frame.col("cs_host")
    paths = frame.col("cs_uri_path")
    queries = frame.col("cs_uri_query")
    counts = {k: [0, 0, 0] for k in keywords}  # censored, allowed, proxied
    for i in range(len(frame)):
        text = f"{hosts[i]}{paths[i]}?{queries[i]}".lower()
        for keyword in keywords:
            if keyword in text:
                if censored[i]:
                    counts[keyword][0] += 1
                elif proxied[i]:
                    counts[keyword][2] += 1
                elif allowed[i]:
                    counts[keyword][1] += 1
                break
    total_censored = int(censored.sum())
    rows = [
        KeywordStats(
            keyword=k,
            censored=c,
            censored_share_pct=percent(c, total_censored),
            allowed=a,
            proxied=p,
        )
        for k, (c, a, p) in counts.items()
    ]
    rows.sort(key=lambda r: (-r.censored, r.keyword))
    return rows


@dataclass(frozen=True)
class SuspectedCategoryRow:
    """One Table 9 row."""

    category: str
    domain_count: int
    censored_requests: int
    censored_share_pct: float


def categorize_suspected(
    suspected: list[SuspectedDomain],
    categorizer: TrustedSourceCategorizer,
    total_censored: int,
    top: int = 10,
) -> list[SuspectedCategoryRow]:
    """Compute Table 9: the suspected domains grouped by category."""
    by_category: dict[str, tuple[int, int]] = {}
    for domain in suspected:
        category = categorizer.categorize_domain(domain.domain)
        count, requests = by_category.get(category, (0, 0))
        by_category[category] = (count + 1, requests + domain.censored)
    rows = [
        SuspectedCategoryRow(
            category=category,
            domain_count=count,
            censored_requests=requests,
            censored_share_pct=percent(requests, total_censored),
        )
        for category, (count, requests) in by_category.items()
    ]
    rows.sort(key=lambda r: (-r.censored_requests, r.category))
    return rows[:top]
