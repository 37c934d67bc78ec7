"""Google-cache traffic (Section 7.4 of the paper).

A small number of users fetch cached copies of pages — including pages
whose origin sites are censored — through
``webcache.googleusercontent.com``.  Nearly all of these fetches are
allowed; the rare censored ones carry a blacklisted keyword in the
cache URL itself.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.domains import SiteSpec, UrlPattern
from repro.stats.draws import cdf, inverse_cdf
from repro.traffic import RequestBatch, constant_column, request_defaults
from repro.workload.diurnal import TrafficCalendar
from repro.workload.population import ClientPopulation
from repro.workload.stream import generate_blocks


#: The uniforms each cache fetch draws, one column per purpose.
DRAW_COLUMNS = (
    "bin_u", "second_u", "client_u", "template_u",
    "slot_u0", "slot_u1", "slot_u2",
)
BIN_U, SECOND_U, CLIENT_U, TEMPLATE_U, SLOT_U = range(len(DRAW_COLUMNS) - 2)
DRAWS = len(DRAW_COLUMNS)


class GoogleCacheComponent:
    """Generates cache fetches from the webcache site spec."""

    def __init__(
        self,
        sites: list[SiteSpec],
        population: ClientPopulation,
        calendar: TrafficCalendar,
    ):
        cache_sites = [site for site in sites if site.tagged("google-cache")]
        if not cache_sites:
            raise ValueError("universe has no google-cache site")
        self.site = cache_sites[0]
        self._template_cdf = cdf([t.weight for t in self.site.templates])
        self._patterns = [
            UrlPattern(t.path, t.query) for t in self.site.templates
        ]
        if max(len(p.kinds) for p in self._patterns) > DRAWS - SLOT_U:
            raise ValueError("a cache template has too many placeholders")
        self.population = population
        self.calendar = calendar

    def generate(
        self, day: str, count: int, rng: np.random.Generator
    ) -> RequestBatch:
        return generate_blocks(
            count, DRAWS, rng, lambda u: self._columns(day, u)
        )

    def _columns(self, day: str, u: np.ndarray) -> dict[str, np.ndarray]:
        count = len(u)
        clients = self.population.pick(u[:, CLIENT_U])
        template = inverse_cdf(self._template_cdf, u[:, TEMPLATE_U])
        paths = np.empty(count, dtype=object)
        queries = np.empty(count, dtype=object)
        # Distinct codes by bincount: a plain np.unique imports numpy.ma.
        for code in np.flatnonzero(np.bincount(template)).tolist():
            rows = np.flatnonzero(template == code)
            paths[rows], queries[rows] = self._patterns[code].fill(
                u[rows, SLOT_U:]
            )
        return request_defaults(
            count,
            epoch=self.calendar.epochs(day, u[:, BIN_U], u[:, SECOND_U]),
            c_ip=self.population.c_ips[clients],
            user_agent=self.population.user_agents[clients],
            host=constant_column(self.site.host, count),
            path=paths,
            query=queries,
            component=constant_column("google-cache", count),
        )
