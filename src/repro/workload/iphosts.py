"""Raw-IP destination traffic (Tables 11 and 12 of the paper).

A slice of the traffic addresses hosts by IPv4 address rather than by
name — CDN fetches, P2P signalling, anonymizer endpoints, streaming
servers.  The component reproduces the paper's country mix, the
Israeli-subnet structure of Table 12 (blocked blocks with many client
-visible addresses vs. the mostly-allowed 212.150.0.0/16), and the
anonymizer endpoints abroad whose addresses the policy blocks
individually (the censored NL/GB/RU addresses of Table 11).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.ip import format_ipv4, parse_network
from repro.traffic import (
    RequestBatch,
    connect_rows,
    constant_column,
    request_defaults,
)
from repro.workload.diurnal import TrafficCalendar
from repro.workload.population import ClientPopulation
from repro.stats.draws import GroupedCdf, cdf, inverse_cdf
from repro.workload.stream import generate_blocks


@dataclass(frozen=True, slots=True)
class AddressPool:
    """A set of destination addresses with a traffic share."""

    name: str
    addresses: tuple[str, ...]
    share: float
    connect_share: float  # fraction of requests that are CONNECT/443
    blocked: bool  # ground truth: does the policy block this pool?


def _addresses_from(block: str, count: int, rng: np.random.Generator) -> tuple[str, ...]:
    net = parse_network(block)
    offsets = rng.choice(net.size - 2, size=min(count, net.size - 2), replace=False) + 1
    return tuple(format_ipv4(net.nth(int(o))) for o in offsets)


def build_address_pools(seed: int = 1211) -> list[AddressPool]:
    """The destination-address population.

    Shares are fractions of the IP-host component volume, calibrated
    from Table 11 (allowed+censored per country) and Table 12 (per
    -subnet request and address counts).
    """
    rng = np.random.default_rng(seed)
    pools: list[AddressPool] = []

    # --- Israel (Table 12) ------------------------------------------------
    # Wholesale-blocked subnets, with the paper's distinct-address counts.
    pools.append(AddressPool(
        "il-84.229.0.0/16", _addresses_from("84.229.0.0/16", 198, rng),
        share=0.000135, connect_share=0.3, blocked=True))
    pools.append(AddressPool(
        "il-46.120.0.0/15", _addresses_from("46.120.0.0/15", 11, rng),
        share=0.000130, connect_share=0.3, blocked=True))
    pools.append(AddressPool(
        "il-89.138.0.0/15", _addresses_from("89.138.0.0/15", 148, rng),
        share=0.000115, connect_share=0.3, blocked=True))
    pools.append(AddressPool(
        "il-212.235.64.0/19", _addresses_from("212.235.64.0/19", 5, rng),
        share=0.000112, connect_share=0.3, blocked=True))
    # Individually blocked addresses inside the otherwise-allowed /16
    # (the policy lists them in BLOCKED_IL_ADDRESSES).
    pools.append(AddressPool(
        "il-212.150-blocked",
        ("212.150.13.20", "212.150.77.45", "212.150.201.8"),
        share=0.0000444, connect_share=0.5, blocked=True))
    pools.append(AddressPool(
        "il-212.150-clean", _addresses_from("212.150.0.0/16", 12, rng),
        share=0.00060, connect_share=0.1, blocked=False))
    pools.append(AddressPool(
        "il-other", _addresses_from("79.176.0.0/13", 220, rng),
        share=0.0062, connect_share=0.05, blocked=False))

    # --- anonymizer endpoints abroad (censored rows of Table 11) ----------
    pools.append(AddressPool(
        "nl-anonymizers", _addresses_from("77.160.0.0/13", 12, rng),
        share=0.00115, connect_share=0.8, blocked=True))
    pools.append(AddressPool(
        "gb-anonymizers", _addresses_from("212.58.224.0/19", 5, rng),
        share=0.000235, connect_share=0.8, blocked=True))
    pools.append(AddressPool(
        "ru-anonymizers", _addresses_from("95.24.0.0/13", 4, rng),
        share=0.0000905, connect_share=0.8, blocked=True))
    pools.append(AddressPool(
        "kw-anonymizers", _addresses_from("168.187.0.0/16", 1, rng),
        share=0.0000015, connect_share=0.8, blocked=True))
    pools.append(AddressPool(
        "sg-anonymizers", _addresses_from("203.116.0.0/16", 1, rng),
        share=0.0000018, connect_share=0.8, blocked=True))
    pools.append(AddressPool(
        "bg-anonymizers", _addresses_from("87.120.0.0/14", 1, rng),
        share=0.0000013, connect_share=0.8, blocked=True))

    # --- clean hosting traffic ---------------------------------------------
    pools.append(AddressPool(
        "nl-hosting", _addresses_from("145.0.0.0/11", 300, rng),
        share=0.668, connect_share=0.08, blocked=False))
    pools.append(AddressPool(
        "gb-hosting", _addresses_from("81.128.0.0/12", 120, rng),
        share=0.0889, connect_share=0.08, blocked=False))
    pools.append(AddressPool(
        "ru-hosting", _addresses_from("178.64.0.0/11", 60, rng),
        share=0.01407, connect_share=0.05, blocked=False))
    pools.append(AddressPool(
        "kw-hosting", _addresses_from("168.187.0.0/16", 8, rng),
        share=0.0000732, connect_share=0.05, blocked=False))
    pools.append(AddressPool(
        "sg-hosting", _addresses_from("203.116.0.0/16", 10, rng),
        share=0.00176, connect_share=0.05, blocked=False))
    pools.append(AddressPool(
        "bg-hosting", _addresses_from("87.120.0.0/14", 10, rng),
        share=0.00176, connect_share=0.05, blocked=False))
    pools.append(AddressPool(
        "us-hosting", _addresses_from("204.0.0.0/8", 250, rng),
        share=0.179, connect_share=0.06, blocked=False))
    pools.append(AddressPool(
        "de-hosting", _addresses_from("91.32.0.0/12", 50, rng),
        share=0.0152, connect_share=0.05, blocked=False))
    pools.append(AddressPool(
        "fr-hosting", _addresses_from("90.64.0.0/12", 40, rng),
        share=0.0088, connect_share=0.05, blocked=False))

    total = sum(pool.share for pool in pools)
    return [
        AddressPool(p.name, p.addresses, p.share / total, p.connect_share, p.blocked)
        for p in pools
    ]


def blocked_endpoint_addresses(pools: list[AddressPool]) -> tuple[str, ...]:
    """Addresses the policy must block individually (non-IL pools).

    The Israeli subnets are blocked by the subnet rules; everything
    else blocked-tagged here is an individually-listed address.
    """
    addresses: list[str] = []
    for pool in pools:
        if pool.blocked and not pool.name.startswith("il-84") and not (
            pool.name.startswith(("il-46", "il-89", "il-212.235"))
        ):
            addresses.extend(pool.addresses)
    return tuple(addresses)


#: The uniforms each raw-IP request draws, one column per purpose.
DRAW_COLUMNS = (
    "bin_u", "second_u", "pool_u", "address_u", "client_u", "connect_u",
    "path_u", "data_u",
)
BIN_U, SECOND_U, POOL_U, ADDRESS_U, CLIENT_U, CONNECT_U, PATH_U, DATA_U = (
    range(len(DRAW_COLUMNS))
)
DRAWS = len(DRAW_COLUMNS)

#: Share of plain-HTTP raw-IP requests for ``/``; the rest fetch
#: ``/data/<n>``.
ROOT_PATH_SHARE = 0.7


class IPHostsComponent:
    """Generates the raw-IP destination traffic."""

    def __init__(
        self,
        population: ClientPopulation,
        calendar: TrafficCalendar,
        pools: list[AddressPool] | None = None,
        seed: int = 1211,
    ):
        self.pools = pools if pools is not None else build_address_pools(seed)
        self.population = population
        self.calendar = calendar
        self._pool_cdf = cdf([pool.share for pool in self.pools])
        self._connect_share = np.array(
            [pool.connect_share for pool in self.pools]
        )
        # Zipf-ish weights over addresses inside each pool: a few
        # endpoints absorb most of the traffic.
        self._addresses = GroupedCdf([
            1.0 / np.arange(1, len(pool.addresses) + 1, dtype=float) ** 0.8
            for pool in self.pools
        ])
        self._address = np.array(
            [address for pool in self.pools for address in pool.addresses],
            dtype=object,
        )

    def generate(
        self, day: str, count: int, rng: np.random.Generator
    ) -> RequestBatch:
        return generate_blocks(
            count, DRAWS, rng, lambda u: self._columns(day, u)
        )

    def _columns(self, day: str, u: np.ndarray) -> dict[str, np.ndarray]:
        count = len(u)
        pools = inverse_cdf(self._pool_cdf, u[:, POOL_U])
        clients = self.population.pick(u[:, CLIENT_U])
        connect = u[:, CONNECT_U] < self._connect_share[pools]
        paths = constant_column("/", count)
        data = np.flatnonzero(~connect & (u[:, PATH_U] >= ROOT_PATH_SHARE))
        paths[data] = [
            f"/data/{n}"
            for n in (u[data, DATA_U] * 10**6).astype(np.int64).tolist()
        ]
        columns = request_defaults(
            count,
            epoch=self.calendar.epochs(day, u[:, BIN_U], u[:, SECOND_U]),
            c_ip=self.population.c_ips[clients],
            user_agent=self.population.user_agents[clients],
            host=self._address[self._addresses.pick(pools, u[:, ADDRESS_U])],
            path=paths,
            component=constant_column("iphosts", count),
        )
        connect_rows(columns, connect)
        columns["port"][connect] = 443
        return columns
