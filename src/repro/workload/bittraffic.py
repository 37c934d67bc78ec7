"""BitTorrent announce traffic (Section 7.3 of the paper).

Clients announce to HTTP trackers; the announce URL carries the
content's info hash and the client's peer id (the field the paper uses
to count unique users).  Announces to ``tracker-proxy.furk.net`` are
censored by the ``proxy`` keyword; everything else is allowed.
"""

from __future__ import annotations

import numpy as np

from repro.bittorrent import TorrentCatalog
from repro.bittorrent.catalog import TRACKERS, make_peer_id
from repro.net.useragent import BITTORRENT_AGENTS
from repro.stats.draws import uniform_index
from repro.traffic import RequestBatch, constant_column, request_defaults
from repro.workload.diurnal import TrafficCalendar
from repro.workload.population import Client, ClientPopulation
from repro.workload.stream import generate_blocks

#: Fraction of the population running a BitTorrent client; the paper
#: sees 38,575 peer ids over 9 days.
BT_USER_SHARE = 0.10

_EVENTS = ("started", "", "", "", "stopped", "completed")
_EVENT_SUFFIXES = np.array(
    [f"&event={event}" if event else "" for event in _EVENTS], dtype=object
)

_TRACKER_HOSTS = np.array([host for host, _ in TRACKERS], dtype=object)
_TRACKER_PORTS = np.array([port for _, port in TRACKERS], dtype=np.int64)

#: The uniforms each announce draws, one column per purpose.
DRAW_COLUMNS = (
    "bin_u", "second_u", "user_u", "content_u", "tracker_u", "event_u",
    "left_u",
)
BIN_U, SECOND_U, USER_U, CONTENT_U, TRACKER_U, EVENT_U, LEFT_U = range(
    len(DRAW_COLUMNS)
)
DRAWS = len(DRAW_COLUMNS)

_QUERY = (
    "info_hash={}&peer_id={}&port={}&uploaded=0&downloaded=0&left={}"
    "&compact=1{}"
)


class BitTorrentComponent:
    """Generates tracker announce requests."""

    def __init__(
        self,
        catalog: TorrentCatalog,
        population: ClientPopulation,
        calendar: TrafficCalendar,
        seed: int = 6881,
    ):
        self.catalog = catalog
        self.calendar = calendar
        rng = np.random.default_rng(seed)
        pool_size = max(5, int(len(population) * BT_USER_SHARE))
        indices = rng.choice(len(population), size=pool_size, replace=False)
        self.users: list[Client] = [population.clients[int(i)] for i in indices]
        self._peer_ids = [make_peer_id(int(i)) for i in indices]
        self._agents = [
            BITTORRENT_AGENTS[int(rng.integers(len(BITTORRENT_AGENTS)))].string
            for _ in indices
        ]
        self._user_ips = np.array([c.c_ip for c in self.users], dtype=object)
        self._user_agents = np.array(self._agents, dtype=object)
        self._user_peer_ids = np.array(self._peer_ids, dtype=object)

    def generate(
        self, day: str, count: int, rng: np.random.Generator
    ) -> RequestBatch:
        return generate_blocks(
            count, DRAWS, rng, lambda u: self._columns(day, u)
        )

    def _columns(self, day: str, u: np.ndarray) -> dict[str, np.ndarray]:
        count = len(u)
        users = uniform_index(len(self.users), u[:, USER_U])
        trackers = self.catalog.pick_trackers(u[:, TRACKER_U])
        left = 10**6 + (u[:, LEFT_U] * (10**9 - 10**6)).astype(np.int64)
        queries = np.empty(count, dtype=object)
        queries[:] = list(map(
            _QUERY.format,
            self.catalog.info_hashes[
                self.catalog.pick_contents(u[:, CONTENT_U])
            ].tolist(),
            self._user_peer_ids[users].tolist(),
            (6881 + users % 9).tolist(),
            left.tolist(),
            _EVENT_SUFFIXES[
                uniform_index(len(_EVENTS), u[:, EVENT_U])
            ].tolist(),
        ))
        return request_defaults(
            count,
            epoch=self.calendar.epochs(day, u[:, BIN_U], u[:, SECOND_U]),
            c_ip=self._user_ips[users],
            user_agent=self._user_agents[users],
            host=_TRACKER_HOSTS[trackers],
            path=constant_column("/announce", count),
            query=queries,
            port=_TRACKER_PORTS[trackers],
            content_type=constant_column("text/plain", count),
            component=constant_column("bittorrent", count),
        )
