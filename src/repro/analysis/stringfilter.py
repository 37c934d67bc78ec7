"""Section 5.4: recovering the censorship policy from the logs.

The paper reverse-engineers the string-based filtering with an
iterative process: find a string frequent in censored URLs and absent
from allowed ones, attribute, remove, repeat — taking bare-domain
requests (``GET new-syria.com/``) as unambiguous evidence for
URL/domain rules and the remaining high-coverage strings as keywords.

This module automates that process:

* :func:`recover_policy` — the whole recovery, run once: the suspected
  domains, the individually blocked hosts and the keywords, over one
  :class:`AllowedTokens` index;
* :func:`recover_censored_domains` — the 105-domain list (Table 8);
* :func:`recover_keywords` — the five keywords (Table 10), via greedy
  maximum-coverage selection over candidate tokens that never occur in
  allowed traffic;
* :func:`keyword_stats` / :func:`categorize_suspected` — the
  corresponding tables.

A string "occurs in a request" when it is a substring of the request's
lowered *matchable text*, ``f"{host}{path}?{query}".lower()``.  A
frame's matchable texts are built once (:func:`matchable_texts`), and
each keyword is one ``str.find`` pass over them.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, groupby

import numpy as np

from repro.analysis.common import (
    PIECE_ROWS,
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
_RUN_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")
#: Maps every byte but ``[a-z0-9]`` to a space, so ``split()`` yields
#: the maximal ``[a-z0-9]`` runs.
_RUN_BYTES = bytes(
    byte if chr(byte) in _RUN_CHARS else 0x20 for byte in range(256)
)


class MatchableTexts:
    """Rows' lowered matchable texts, held as pieces of whole rows.

    A piece is its rows' texts joined by NULs.  Row *i* is
    ``[bounds[i], bounds[i + 1] - 1)`` of the pieces' concatenation
    with a NUL after each piece, so every row ends at a NUL or at the
    end of its piece.
    """

    def __init__(self, pieces: list[str], bounds: np.ndarray):
        self.pieces = pieces
        self.bounds = bounds
        #: Where each piece starts in the concatenation.
        self.offsets = np.fromiter(
            accumulate((len(piece) + 1 for piece in pieces[:-1]), initial=0),
            np.intp, len(pieces),
        )

    @classmethod
    def of(cls, texts: Sequence[str]) -> "MatchableTexts":
        bounds = np.fromiter(
            accumulate((len(text) + 1 for text in texts), initial=0),
            np.intp, len(texts) + 1,
        )
        return cls(["\0".join(texts)] if texts else [], bounds)

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, row: int) -> str:
        start, stop = int(self.bounds[row]), int(self.bounds[row + 1]) - 1
        piece = int(self.offsets.searchsorted(start, side="right")) - 1
        offset = int(self.offsets[piece])
        return self.pieces[piece][start - offset:stop - offset]

    def take(self, rows: Sequence[int]) -> "MatchableTexts":
        """The texts of *rows*, in that order."""
        return MatchableTexts.of([self[row] for row in rows])

    def rows_containing(self, needle: str) -> list[int]:
        """The rows whose text contains *needle*, ascending: one
        ``str.find`` scan per piece that skips to the next row after a
        hit."""
        bounds = self.bounds
        rows: list[int] = []
        for text, offset in zip(self.pieces, self.offsets.tolist()):
            position = text.find(needle)
            while position >= 0:
                row = int(
                    bounds.searchsorted(offset + position, side="right")
                ) - 1
                end = int(bounds[row + 1]) - 1 - offset
                if position + len(needle) > end:
                    # Runs past the row's text: look further on.
                    position = text.find(needle, position + 1)
                    continue
                rows.append(row)
                position = text.find(needle, end + 1)
        return rows

    def first_match(self, needles: Sequence[str]) -> np.ndarray:
        """Per row, the index of the first of *needles* its text
        contains, or -1."""
        first = np.full(len(self), -1, dtype=np.intp)
        for index, needle in enumerate(needles):
            rows = np.array(self.rows_containing(needle), dtype=np.intp)
            first[rows[first[rows] < 0]] = index
        return first


def matchable_texts(frame: LogFrame) -> MatchableTexts:
    """Every row's matchable text, built once per frame."""
    return frame.derived(_build_matchable_texts)


def _build_matchable_texts(frame: LogFrame) -> MatchableTexts:
    hosts = frame.col("cs_host")
    paths = frame.col("cs_uri_path")
    queries = frame.col("cs_uri_query")
    texts = _lowered_ascii_texts(hosts, paths, queries)
    if texts is None:
        # Lowering may lengthen a row (U+0130 lowers to two characters).
        texts = MatchableTexts.of([
            f"{h}{p}?{q}".lower() for h, p, q in zip(hosts, paths, queries)
        ])
    return texts


def _lowered_ascii_texts(
    hosts: np.ndarray, paths: np.ndarray, queries: np.ndarray
) -> MatchableTexts | None:
    """The texts built a piece of rows at a time, or None unless every
    value is ASCII and NUL-free.  ASCII lowers character by character,
    so a piece's NULs end its rows."""
    rows = len(hosts)
    bounds = np.zeros(rows + 1, dtype=np.intp)
    pieces = []
    for start in range(0, rows, PIECE_ROWS):
        stop = min(start + PIECE_ROWS, rows)
        cells = np.empty((stop - start, 5), dtype=object)
        cells[:, 0] = hosts[start:stop]
        cells[:, 1] = paths[start:stop]
        cells[:, 2] = "?"
        cells[:, 3] = queries[start:stop]
        cells[:, 4] = "\0"
        piece = "".join(cells.ravel().tolist())
        del cells
        if not piece.isascii():
            return None
        piece = piece.lower()
        ends = np.flatnonzero(
            np.frombuffer(piece.encode("ascii"), dtype=np.uint8) == 0
        )
        if len(ends) != stop - start:  # a value holds a NUL
            return None
        bounds[start + 1:stop + 1] = bounds[start] + ends + 1
        # The piece's last NUL is implied.
        pieces.append(piece[:-1])
    return MatchableTexts(pieces, bounds)


class AllowedTokens:
    """Whether a ``[a-z0-9]+`` token occurs in allowed traffic: exactly
    ``token in "\\n".join(<lowered matchable texts of the
    OBSERVED-allowed rows>)``, without building or scanning that corpus.

    Such a token can only occur inside one maximal ``[a-z0-9]`` run of
    a lowered text, so the distinct runs of the distinct allowed host,
    path and query values answer it.  The ``?`` and the row separator
    end every run; only a host's last run and its path's first run can
    join, when the lowered path starts with ``[a-z0-9]``, so those rows
    add the runs of ``host + path``.  ``str.lower`` maps each character
    on its own except the Greek final sigma, which never lowers into
    ``[a-z0-9]``, so lowering distinct values, a piece at a time, gives
    the runs that lowering whole texts gives.  Values are lowered
    before the ASCII encoding: U+212A KELVIN SIGN lowers to ``k``.

    The index is one bytes object: every distinct run followed by a
    newline, longest runs first and runs of one length in sorted
    order, so the runs of each length are a fixed-width sorted array.
    A token equal to a run is found by binary search among the runs of
    its length; any other occurrence is a proper substring of a longer
    run, searched in the part of the index that holds the runs longer
    than the token.  The index is built on first use.
    """

    def __init__(self, frame: LogFrame):
        self._frame = frame
        self._runs: bytes | None = None
        self._answers: dict[str, bool] = {}

    def __contains__(self, token: str) -> bool:
        answer = self._answers.get(token)
        if answer is None:
            if self._runs is None:
                self._build()
            answer = self._answers[token] = self._occurs(token.encode("ascii"))
        return answer

    def _occurs(self, key: bytes) -> bool:
        size = len(key)
        longer, same = self._end_of_longer(size), self._end_of_longer(size - 1)
        if same > longer:
            exact = np.frombuffer(
                self._runs, dtype=f"S{size + 1}",
                count=(same - longer) // (size + 1), offset=longer,
            )
            probe = key + b"\n"
            index = int(exact.searchsorted(probe))
            if index < len(exact) and exact[index] == probe:
                return True
        return self._runs.find(key, 0, longer) >= 0

    def _end_of_longer(self, size: int) -> int:
        """End of the runs longer than *size*; they come first."""
        through = self._through
        return int(through[size + 1]) if size + 1 < len(through) else 0

    def _build(self) -> None:
        # Run length -> sorted distinct runs of that length, per piece.
        found: dict[int, list[np.ndarray]] = {}
        for values in _allowed_values(self._frame):
            runs = sorted(set(
                "\n".join(values).lower().encode("ascii", "replace")
                .translate(_RUN_BYTES).split()
            ), key=len)
            for size, group in groupby(runs, key=len):
                found.setdefault(size, []).append(
                    np.array(list(group), dtype=f"S{size}")
                )
        # through[size]: bytes of the runs at least *size* long.
        through = np.zeros(max(found, default=0) + 2, dtype=np.intp)
        groups = []
        for size in sorted(found, reverse=True):
            runs = np.concatenate(found.pop(size))
            runs.sort()
            # np.unique would import numpy.ma for a bytes array.
            runs = runs[np.concatenate(([True], runs[1:] != runs[:-1]))]
            # Widened by one NUL byte, which becomes the newline.
            lines = runs.astype(f"S{size + 1}")
            lines.view(np.uint8)[size::size + 1] = ord("\n")
            groups.append(lines.tobytes())
            through[size] = len(runs) * (size + 1)
        self._runs = b"".join(groups)
        self._through = np.cumsum(through[::-1])[::-1]


def _allowed_values(frame: LogFrame) -> Iterator[Iterable[str]]:
    """The values whose runs answer :class:`AllowedTokens`, in pieces:
    the distinct hosts of the OBSERVED-allowed rows, then per piece of
    rows the distinct paths and queries of those rows, plus ``host +
    path`` where the lowered path starts with ``[a-z0-9]``."""
    allowed = observed_allowed_mask(frame)
    distinct_hosts, host_codes = frame.factorize("cs_host")
    yield distinct_hosts[
        np.bincount(host_codes[allowed], minlength=len(distinct_hosts)) > 0
    ].tolist()
    hosts = frame.col("cs_host")
    paths = frame.col("cs_uri_path")
    queries = frame.col("cs_uri_query")
    for start in range(0, len(frame), PIECE_ROWS):
        rows = slice(start, start + PIECE_ROWS)
        mask = allowed[rows]
        piece_paths = paths[rows][mask].tolist()
        values = set(piece_paths)
        joining = {
            path for path in values if path[:1].lower()[:1] in _RUN_CHARS
        }
        values.update(queries[rows][mask].tolist())
        if joining:
            values.update(
                host + path
                for host, path in zip(hosts[rows][mask].tolist(), piece_paths)
                if path in joining
            )
        yield values


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
    return _suspected_domains(frame, AllowedTokens(frame), min_censored)


def _suspected_domains(
    frame: LogFrame, allowed_tokens: AllowedTokens, min_censored: int
) -> list[SuspectedDomain]:
    censored = censored_mask(frame)
    allowed = observed_allowed_mask(frame)
    proxied = proxied_mask(frame)
    unique_domains, inverse = domain_codes(frame)
    n = len(unique_domains)
    censored_counts = np.bincount(inverse, weights=censored, minlength=n).astype(int)
    allowed_counts = np.bincount(inverse, weights=allowed, minlength=n).astype(int)
    proxied_counts = np.bincount(inverse, weights=proxied, minlength=n).astype(int)

    # Bare request: no query and at most one '/', so nothing beyond
    # the hostname to blame.  CONNECT rows log path/query as '-'.
    censored_rows = np.flatnonzero(censored)
    paths = frame.col("cs_uri_path")[censored_rows].tolist()
    queries = frame.col("cs_uri_query")[censored_rows].tolist()
    bare = np.fromiter(
        (q in ("", "-") and p.count("/") <= 1 for p, q in zip(paths, queries)),
        dtype=bool, count=len(censored_rows),
    )
    bare_censored = np.bincount(inverse[censored_rows[bare]], minlength=n)
    censored_domains = inverse[censored_rows]

    def domain_attributable(domain_index: int) -> bool:
        # Fallback evidence for a domain with no bare censored request.
        rows = np.flatnonzero(censored_domains == domain_index)
        for row in rows[:50].tolist():  # a handful of requests decide it
            text = f"{paths[row]}?{queries[row]}".lower()
            tokens = [
                t for t in set(_TOKEN_RE.findall(text))
                if not _looks_like_identifier(t)
            ]
            if all(t in allowed_tokens for t in tokens):
                return True
        return False

    total_censored = int(censored.sum())
    # A domain with no censored request never qualifies.
    qualified = (censored_counts >= max(min_censored, 1)) & (allowed_counts == 0)
    suspected = []
    for i in np.flatnonzero(qualified).tolist():
        domain = str(unique_domains[i])
        if is_ip_like(domain):
            continue  # IP-based filtering is analyzed separately
        if bare_censored[i] >= 1 or domain_attributable(i):
            suspected.append(SuspectedDomain(
                domain=domain,
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
    unique_hosts, inverse = frame.factorize("cs_host")
    n = len(unique_hosts)
    censored_counts = np.bincount(inverse, weights=censored, minlength=n).astype(int)
    allowed_counts = np.bincount(inverse, weights=allowed, minlength=n).astype(int)
    censored_rows = np.flatnonzero(censored)
    bare = np.fromiter(
        (
            p in ("/", "", "-") and q in ("", "-")
            for p, q in zip(
                frame.col("cs_uri_path")[censored_rows].tolist(),
                frame.col("cs_uri_query")[censored_rows].tolist(),
            )
        ),
        dtype=bool, count=len(censored_rows),
    )
    bare_censored = np.bincount(inverse[censored_rows[bare]], minlength=n)

    qualified = (
        (censored_counts >= min_censored)
        & (allowed_counts == 0)
        & (bare_censored >= 1)
    )
    results = []
    for i in np.flatnonzero(qualified).tolist():
        host = str(unique_hosts[i])
        if is_ip_like(host) or registered_domain(host) in exclude_domains:
            continue
        results.append(SuspectedHost(host, int(censored_counts[i])))
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
    return _recover_keywords(
        frame, AllowedTokens(frame), exclude_domains, exclude_hosts,
        min_coverage, max_keywords, candidate_pool, exclude_ambiguous,
    )


def _recover_keywords(
    frame: LogFrame,
    allowed_tokens: AllowedTokens,
    exclude_domains: set[str] | frozenset[str],
    exclude_hosts: set[str] | frozenset[str],
    min_coverage: int,
    max_keywords: int,
    candidate_pool: int,
    exclude_ambiguous: bool,
) -> list[RecoveredKeyword]:
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
    rows = np.flatnonzero(censored).tolist()
    if not rows:
        return []
    texts = matchable_texts(frame).take(rows)
    hosts = frame.col("cs_host")[rows].tolist()

    token_counts: dict[str, int] = {}
    for row in range(len(texts)):
        for token in set(_TOKEN_RE.findall(texts[row])):
            token_counts[token] = token_counts.get(token, 0) + 1
    candidates = sorted(
        token_counts, key=lambda t: (-token_counts[t], t)
    )[:candidate_pool]
    # A blacklist string must never appear in allowed traffic.
    candidates = [c for c in candidates if c not in allowed_tokens]

    covers = {token: set(texts.rows_containing(token)) for token in candidates}
    remaining = set(range(len(texts)))
    keywords: list[RecoveredKeyword] = []
    for _ in range(max_keywords):
        best_token = None
        best_score = (0, 0)
        for token in candidates:
            covered = covers[token] & remaining
            if not covered:
                continue
            # Tie-break on host diversity: a genuine policy string cuts
            # across hosts (toolbar + plugins + ads), whereas a merely
            # correlated token (e.g. 'plugins') is host-local.
            diversity = len({hosts[row] for row in covered})
            score = (len(covered), diversity)
            if score > best_score or (
                score == best_score
                and best_token is not None
                and token < best_token
            ):
                best_token, best_score = token, score
        if best_token is None or best_score[0] < min_coverage:
            break
        keywords.append(RecoveredKeyword(best_token, best_score[0]))
        remaining -= covers[best_token]
        candidates.remove(best_token)
    return keywords


@dataclass(frozen=True)
class PolicyRecovery:
    """Section 5.4's recovery of one frame: every suspected domain
    (at least one censored request), the hosts blocked individually
    under the other domains, and the keywords found outside both."""

    domains: list[SuspectedDomain]
    hosts: list[SuspectedHost]
    keywords: list[RecoveredKeyword]

    def suspected_domains(self, min_censored: int = 3) -> list[SuspectedDomain]:
        """:func:`recover_censored_domains` at *min_censored*: the
        threshold is the only thing that differs."""
        floor = max(min_censored, 1)
        return [row for row in self.domains if row.censored >= floor]


def recover_policy(frame: LogFrame) -> PolicyRecovery:
    """Run the Section 5.4 recovery once.

    Keyword recovery excludes every domain and host with domain-level
    blocking evidence regardless of volume (``min_censored=1``): a
    rarely-visited blocked domain would otherwise leak its name tokens
    into the candidate pool.  One :class:`AllowedTokens` index serves
    the domains' fallback evidence and the keyword candidates.
    """
    allowed_tokens = AllowedTokens(frame)
    domains = _suspected_domains(frame, allowed_tokens, min_censored=1)
    exclusion = {row.domain for row in domains}
    hosts = recover_censored_hosts(
        frame, exclude_domains=exclusion, min_censored=1
    )
    keywords = _recover_keywords(
        frame, allowed_tokens, exclusion, {row.host for row in hosts},
        min_coverage=5, max_keywords=10, candidate_pool=400,
        exclude_ambiguous=True,
    )
    return PolicyRecovery(domains, hosts, keywords)


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
    first = matchable_texts(frame).first_match(keywords)
    counts = {k: [0, 0, 0] for k in keywords}  # censored, allowed, proxied
    for index, keyword in enumerate(keywords):
        matched = first == index
        # A row counts once: as censored, else proxied, else allowed.
        uncensored = matched & ~censored
        counts[keyword][0] += int(np.count_nonzero(matched & censored))
        counts[keyword][1] += int(np.count_nonzero(uncensored & ~proxied & allowed))
        counts[keyword][2] += int(np.count_nonzero(uncensored & proxied))
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
