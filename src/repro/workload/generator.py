"""The top-level traffic generator.

Assembles the components over a :class:`~repro.workload.config.
ScenarioConfig` and builds one day's merged, time-ordered request
stream as a :class:`~repro.traffic.RequestBatch`.  Also exposes the
ground-truth artifacts the policy builder and the analyses need: the
site universe, the Tor directory, the torrent catalog, and the blocked
anonymizer endpoint addresses.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bittorrent import TorrentCatalog
from repro.catalog.domains import SiteSpec, build_domain_universe
from repro.metrics import current_registry
from repro.tornet import TorDirectory
from repro.traffic import REQUEST_COLUMNS, RequestBatch
from repro.workload.bittraffic import BitTorrentComponent
from repro.workload.browsing import BrowsingComponent
from repro.workload.config import ScenarioConfig
from repro.workload.diurnal import TrafficCalendar
from repro.workload.fbpages import RedirectTargetsComponent
from repro.workload.gcache import GoogleCacheComponent
from repro.workload.iphosts import (
    IPHostsComponent,
    blocked_endpoint_addresses,
    build_address_pools,
)
from repro.workload.population import ClientPopulation, population_size_for
from repro.workload.tortraffic import TorComponent


class TrafficGenerator:
    """Generates a scenario's request stream, one log-day at a time."""

    def __init__(self, config: ScenarioConfig, sites: list[SiteSpec] | None = None):
        self.config = config
        self.sites = sites if sites is not None else build_domain_universe(
            tail_count=config.tail_domains,
            suspected_count=config.suspected_domains,
        )
        self.population = ClientPopulation(
            population_size_for(config.total_requests, config.user_scale),
            seed=config.seed + 1,
        )
        self.calendar = TrafficCalendar()
        self.tor_directory = TorDirectory(config.tor_relays, seed=config.seed + 2)
        self.torrent_catalog = TorrentCatalog(
            config.torrent_contents, seed=config.seed + 3
        )
        self.address_pools = build_address_pools(seed=config.seed + 4)

        self._browsing = BrowsingComponent(self.sites, self.population, self.calendar)
        self._iphosts = IPHostsComponent(
            self.population, self.calendar, pools=self.address_pools
        )
        self._tor = TorComponent(
            self.tor_directory, self.population, self.calendar,
            seed=config.seed + 5,
        )
        self._bittorrent = BitTorrentComponent(
            self.torrent_catalog, self.population, self.calendar,
            seed=config.seed + 6,
        )
        self._redirects = RedirectTargetsComponent(self.population, self.calendar)
        self._gcache = GoogleCacheComponent(
            self.sites, self.population, self.calendar
        )

    def blocked_anonymizer_addresses(self) -> tuple[str, ...]:
        """Endpoint addresses the policy must block individually."""
        return blocked_endpoint_addresses(self.address_pools)

    def generate_day(self, day: str, rng: np.random.Generator) -> RequestBatch:
        """The complete request stream of one day, time-ordered.

        The components run in a fixed order on the day's *rng*
        (workload stream v2, :mod:`repro.workload.stream`), and one
        stable argsort on epoch merges them; each column is gathered
        once.  Each call is one span of the ``workload.seconds``
        metrics timer.
        """
        started = time.perf_counter()
        weight = self.config.day_weights()[day]
        parts = [
            self._browsing.generate(
                day, self.config.browsing_requests(weight), rng
            ),
            *(
                component.generate(
                    day, self.config.component_requests(name, weight), rng
                )
                for name, component in (
                    ("iphosts", self._iphosts),
                    ("tor", self._tor),
                    ("bittorrent", self._bittorrent),
                    ("redirect-targets", self._redirects),
                    ("google-cache", self._gcache),
                )
            ),
        ]
        order = np.argsort(
            np.concatenate([part.col("epoch") for part in parts]),
            kind="stable",
        )
        batch = RequestBatch({
            name: np.concatenate(
                [part.columns.pop(name) for part in parts]
            )[order]
            for name in REQUEST_COLUMNS
        })
        registry = current_registry()
        if registry is not None:
            registry.observe("workload.seconds", time.perf_counter() - started)
        return batch

