"""Section 6: censorship of social media.

Table 13 — allowed/censored/proxied per watched social network;
Table 14 — the Facebook pages targeted by the custom category;
Table 15 — the social-plugin elements whose URLs trip the ``proxy``
keyword.
"""

from __future__ import annotations

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
from repro.catalog.socialnetworks import OSN_WATCHLIST
from repro.frame import LogFrame


@dataclass(frozen=True)
class OsnRow:
    """One Table 13 row."""

    network: str
    censored: int
    censored_share_pct: float  # of all censored traffic
    allowed: int
    proxied: int


def osn_breakdown(
    frame: LogFrame,
    watchlist: tuple[str, ...] = OSN_WATCHLIST,
    top: int | None = 10,
) -> list[OsnRow]:
    """Compute Table 13 over the watchlist.

    Watchlist entries are registered domains, except
    ``plus.google.com`` which is matched as a host prefix (otherwise
    google.com's traffic would swallow it).
    """
    domains, domain_of_row = domain_codes(frame)
    hosts, host_of_row = frame.factorize("cs_host")
    censored = censored_mask(frame)
    allowed = observed_allowed_mask(frame)
    proxied = proxied_mask(frame)
    total_censored = int(censored.sum())
    rows = []
    for network in watchlist:
        if "." in network and network.count(".") >= 2:
            of_network = (hosts == network)[host_of_row]
        else:
            of_network = (domains == network)[domain_of_row]
        rows.append(OsnRow(
            network=network,
            censored=int((of_network & censored).sum()),
            censored_share_pct=percent(
                int((of_network & censored).sum()), total_censored
            ),
            allowed=int((of_network & allowed).sum()),
            proxied=int((of_network & proxied).sum()),
        ))
    rows.sort(key=lambda r: (-r.censored, r.network))
    if top is not None:
        rows = rows[:top]
    return rows


_FACEBOOK_HOSTS = ("www.facebook.com", "ar-ar.facebook.com", "facebook.com")


@dataclass(frozen=True)
class FacebookPageRow:
    """One Table 14 row."""

    page: str
    censored: int
    allowed: int
    proxied: int
    custom_category_hits: int  # rows labelled with the custom category


def facebook_pages(frame: LogFrame, min_requests: int = 1) -> list[FacebookPageRow]:
    """Compute Table 14: per-page outcomes for Facebook page visits.

    A page visit is a request to a Facebook host whose path is a
    single segment that is not a known application endpoint; matching
    is case-sensitive (``Syrian.Revolution`` and ``Syrian.revolution``
    are distinct pages in the logs).
    """
    of_facebook = isin_column(frame, "cs_host", _FACEBOOK_HOSTS)
    paths = frame.col("cs_uri_path")
    censored = censored_mask(frame)
    allowed = observed_allowed_mask(frame)
    proxied = proxied_mask(frame)
    categories = frame.col("cs_categories")

    page_rows: dict[str, list[int]] = {}
    for i in np.flatnonzero(of_facebook):
        page = _page_of(paths[i])
        if page is None:
            continue
        stats = page_rows.setdefault(page, [0, 0, 0, 0])
        if censored[i]:
            stats[0] += 1
        elif proxied[i]:
            stats[2] += 1
        elif allowed[i]:
            stats[1] += 1
        if categories[i].startswith("Blocked sites"):
            stats[3] += 1
    rows = [
        FacebookPageRow(page, c, a, p, hits)
        for page, (c, a, p, hits) in page_rows.items()
        if c + a + p >= min_requests
    ]
    rows.sort(key=lambda r: (-r.censored, -r.allowed, r.page))
    return rows


_APP_ENDPOINTS = frozenset({
    "home.php", "profile.php", "photo.php", "friends", "groups", "notes",
    "plugins", "extern", "fbml", "connect", "ajax", "platform", "", "-",
})


def _page_of(path: str) -> str | None:
    """Extract a page name from a path, or None for app endpoints."""
    trimmed = path.strip("/")
    if "/" in trimmed:
        first = trimmed.split("/", 1)[0]
        if first in _APP_ENDPOINTS:
            return None
        return first if _looks_like_page(first) else None
    if trimmed in _APP_ENDPOINTS:
        return None
    return trimmed if _looks_like_page(trimmed) else None


def _looks_like_page(segment: str) -> bool:
    return bool(segment) and not segment.endswith(".php")


@dataclass(frozen=True)
class PluginRow:
    """One Table 15 row."""

    element: str  # the plugin path
    censored: int
    censored_share_pct: float  # of censored facebook traffic
    allowed: int
    proxied: int


def facebook_plugins(frame: LogFrame, top: int = 10) -> list[PluginRow]:
    """Compute Table 15: per-plugin-element outcomes on facebook.com."""
    of_facebook = isin_column(frame, "cs_host", _FACEBOOK_HOSTS)
    paths = frame.col("cs_uri_path")
    censored = censored_mask(frame)
    allowed = observed_allowed_mask(frame)
    proxied = proxied_mask(frame)
    censored_fb_total = int((of_facebook & censored).sum())

    stats: dict[str, list[int]] = {}
    for i in np.flatnonzero(of_facebook):
        path = str(paths[i])
        if not _is_plugin_path(path):
            continue
        row = stats.setdefault(path, [0, 0, 0])
        if censored[i]:
            row[0] += 1
        elif proxied[i]:
            row[2] += 1
        elif allowed[i]:
            row[1] += 1
    rows = [
        PluginRow(
            element=path,
            censored=c,
            censored_share_pct=percent(c, censored_fb_total),
            allowed=a,
            proxied=p,
        )
        for path, (c, a, p) in stats.items()
    ]
    rows.sort(key=lambda r: (-r.censored, r.element))
    return rows[:top]


_PLUGIN_PREFIXES = (
    "/plugins/", "/extern/", "/fbml/", "/connect/", "/platform/",
    "/ajax/proxy.php",
)


def _is_plugin_path(path: str) -> bool:
    return any(path.startswith(prefix) for prefix in _PLUGIN_PREFIXES)
