"""Section 5.4's IP-based censorship analysis (Tables 11 and 12).

Builds D_IPv4 — the requests whose ``cs_host`` is a raw IPv4 address —
geolocates destinations with the GeoIP substrate, computes per-country
censorship ratios, and zooms into the Israeli subnets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import (
    allowed_mask,
    censored_mask,
    ip_host_mask,
    percent,
    proxied_mask,
)
from repro.categorizer import TrustedSourceCategorizer
from repro.frame import LogFrame, factorize
from repro.geoip import GeoIPDatabase
from repro.net.ip import IPv4Network, parse_ipv4


def ipv4_subset(frame: LogFrame) -> LogFrame:
    """D_IPv4: the raw-IP-destination slice of a dataset."""
    return frame.where(ip_host_mask(frame))


@dataclass(frozen=True)
class CountryCensorship:
    """One Table 11 row."""

    country: str
    censored: int
    allowed: int
    ratio_pct: float  # censored / (censored + allowed)


def country_censorship_ratio(
    ip_frame: LogFrame, geoip: GeoIPDatabase
) -> list[CountryCensorship]:
    """Compute Table 11 over a D_IPv4 frame.

    Countries with zero censored requests are omitted, as in the paper
    ("top censored countries"); rows sort by ratio.
    """
    if len(ip_frame) == 0:
        return []
    unique_hosts, inverse = ip_frame.factorize("cs_host")
    addresses = np.array([parse_ipv4(h) for h in unique_hosts], dtype=np.int64)
    countries, country_of_host = factorize(geoip.lookup_many(addresses))
    codes = country_of_host[inverse]

    censored_counts = np.bincount(
        codes[censored_mask(ip_frame)], minlength=len(countries)
    )
    allowed_counts = np.bincount(
        codes[allowed_mask(ip_frame)], minlength=len(countries)
    )
    rows = []
    for country, n_censored, n_allowed in zip(
        countries, censored_counts.tolist(), allowed_counts.tolist()
    ):
        if n_censored == 0:
            continue
        rows.append(CountryCensorship(
            country=str(country),
            censored=n_censored,
            allowed=n_allowed,
            ratio_pct=percent(n_censored, n_censored + n_allowed),
        ))
    rows.sort(key=lambda r: (-r.ratio_pct, r.country))
    return rows


@dataclass(frozen=True)
class SubnetRow:
    """One Table 12 row."""

    subnet: str
    censored_requests: int
    censored_ips: int
    allowed_requests: int
    allowed_ips: int
    proxied_requests: int
    proxied_ips: int


def israeli_subnets(
    ip_frame: LogFrame,
    subnets: tuple[IPv4Network, ...],
    top: int = 10,
) -> list[SubnetRow]:
    """Compute Table 12: per-subnet request and address counts."""
    if len(ip_frame) == 0:
        return []
    unique_hosts, inverse = ip_frame.factorize("cs_host")
    addresses = np.array([parse_ipv4(h) for h in unique_hosts], dtype=np.int64)
    censored = censored_mask(ip_frame)
    allowed = allowed_mask(ip_frame)
    proxied = proxied_mask(ip_frame)

    rows = []
    for subnet in subnets:
        host_in_subnet = (addresses & subnet.netmask) == subnet.network
        row_in_subnet = host_in_subnet[inverse]

        def stats(mask: np.ndarray) -> tuple[int, int]:
            selected = row_in_subnet & mask
            requests = int(selected.sum())
            ips = int(np.count_nonzero(
                np.bincount(inverse[selected], minlength=len(unique_hosts))
            ))
            return requests, ips

        c_req, c_ips = stats(censored)
        a_req, a_ips = stats(allowed)
        p_req, p_ips = stats(proxied)
        rows.append(SubnetRow(
            subnet=str(subnet),
            censored_requests=c_req,
            censored_ips=c_ips,
            allowed_requests=a_req,
            allowed_ips=a_ips,
            proxied_requests=p_req,
            proxied_ips=p_ips,
        ))
    rows.sort(key=lambda r: (-r.censored_requests, r.subnet))
    return rows[:top]


def censored_anonymizer_addresses(
    ip_frame: LogFrame,
    geoip: GeoIPDatabase,
    categorizer: TrustedSourceCategorizer,
    country: str = "IL",
) -> tuple[int, int]:
    """The paper's cross-check: how many censored addresses in
    *country* categorize as Anonymizer hosts?  Returns
    (anonymizer count, total censored addresses)."""
    censored = ip_frame.where(censored_mask(ip_frame))
    hosts, _ = censored.factorize("cs_host")
    in_country = [h for h in hosts if geoip.lookup(str(h)) == country]
    anonymizers = sum(
        1 for h in in_country if categorizer.categorize(str(h)) == "Anonymizer"
    )
    return anonymizers, len(in_country)
