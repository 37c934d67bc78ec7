"""Tor traffic component (Section 7.1 of the paper).

Two traffic classes: Tor_http — directory-protocol requests to relays'
Dir ports (73 % of the paper's Tor traffic) — and Tor_onion — OR
connections carrying circuits (CONNECT to a relay's OR port).  Volume
peaks on the Aug 3 protest day (Fig. 8a).
"""

from __future__ import annotations

import numpy as np

from repro.timeline import PROTEST_DAY
from repro.stats.draws import uniform_index
from repro.tornet import TorDirectory
from repro.traffic import (
    RequestBatch,
    connect_rows,
    constant_column,
    request_defaults,
)
from repro.workload.diurnal import TrafficCalendar
from repro.workload.population import Client, ClientPopulation
from repro.workload.stream import generate_blocks

#: Share of Tor requests that are directory (HTTP) signaling.
TOR_HTTP_SHARE = 0.73

#: Extra volume multiplier per day (relative to the component rate).
TOR_DAY_MULTIPLIERS: dict[str, float] = {
    PROTEST_DAY: 1.9,
    "2011-08-04": 1.3,
}

#: Fraction of the population that uses Tor at all.
TOR_USER_SHARE = 0.004


#: The uniforms each Tor request draws, one column per purpose.
DRAW_COLUMNS = (
    "bin_u", "second_u", "user_u", "http_u", "dir_relay_u", "dir_path_u",
    "fingerprint_u", "onion_relay_u",
)
(
    BIN_U, SECOND_U, USER_U, HTTP_U, DIR_RELAY_U, DIR_PATH_U,
    FINGERPRINT_U, ONION_RELAY_U,
) = range(len(DRAW_COLUMNS))
DRAWS = len(DRAW_COLUMNS)


class TorComponent:
    """Generates Tor directory and OR-port traffic."""

    def __init__(
        self,
        directory: TorDirectory,
        population: ClientPopulation,
        calendar: TrafficCalendar,
        seed: int = 443,
    ):
        self.directory = directory
        self.calendar = calendar
        dir_relays = [r for r in directory.relays if r.dir_port != 0]
        self._dir_ips = np.array([r.ip for r in dir_relays], dtype=object)
        self._dir_ports = np.array(
            [r.dir_port for r in dir_relays], dtype=np.int64
        )
        self._or_ips = np.array(
            [r.ip for r in directory.relays], dtype=object
        )
        self._or_ports = np.array(
            [r.or_port for r in directory.relays], dtype=np.int64
        )
        rng = np.random.default_rng(seed)
        pool_size = max(3, int(len(population) * TOR_USER_SHARE))
        indices = rng.choice(len(population), size=pool_size, replace=False)
        self.users: list[Client] = [population.clients[int(i)] for i in indices]
        self._user_ips = np.array([c.c_ip for c in self.users], dtype=object)

    def generate(
        self, day: str, count: int, rng: np.random.Generator
    ) -> RequestBatch:
        count = int(round(count * TOR_DAY_MULTIPLIERS.get(day, 1.0)))
        return generate_blocks(
            count, DRAWS, rng, lambda u: self._columns(day, u)
        )

    def _columns(self, day: str, u: np.ndarray) -> dict[str, np.ndarray]:
        count = len(u)
        # Directory fetches: plain HTTP to a relay's Dir port; the rest
        # is circuit traffic, CONNECT to a bandwidth-weighted relay's
        # OR port.
        http = u[:, HTTP_U] < (TOR_HTTP_SHARE if len(self._dir_ips) else 0.0)
        onion = self.directory.pick_relays(u[:, ONION_RELAY_U])
        hosts = self._or_ips[onion]
        ports = self._or_ports[onion]
        paths = constant_column("", count)
        components = constant_column("tor-onion", count)
        if http.any():
            relay = uniform_index(len(self._dir_ips), u[http, DIR_RELAY_U])
            hosts[http] = self._dir_ips[relay]
            ports[http] = self._dir_ports[relay]
            paths[http] = self.directory.directory_paths(
                u[http, DIR_PATH_U], u[http, FINGERPRINT_U]
            )
            components[http] = "tor-http"
        columns = request_defaults(
            count,
            epoch=self.calendar.epochs(day, u[:, BIN_U], u[:, SECOND_U]),
            c_ip=self._user_ips[uniform_index(len(self.users), u[:, USER_U])],
            # The tor daemon sends no user agent.
            user_agent=constant_column("-", count),
            host=hosts,
            path=paths,
            port=ports,
            content_type=constant_column("application/octet-stream", count),
            component=components,
        )
        connect_rows(columns, ~http)
        return columns
