"""Redirect-target traffic: Facebook pages and redirect hosts.

Covers the two policy_redirect mechanisms the paper studies together
in Sections 5.3 and 6: visits to the watched political Facebook pages
(custom category, Table 14) and requests to the host-redirect list
dominated by ``upload.youtube.com`` (Table 7).  They share one
component so a single boost factor preserves their relative volumes.
"""

from __future__ import annotations

import numpy as np

from repro.catalog import facebook as fb
from repro.stats.draws import cdf, inverse_cdf, uniform_index
from repro.traffic import RequestBatch, constant_column, request_defaults
from repro.workload.diurnal import TrafficCalendar
from repro.workload.population import ClientPopulation
from repro.workload.stream import generate_blocks

#: Share of the component that is Facebook page visits vs redirect
#: hosts, calibrated from Tables 7 and 14 (upload.youtube.com's 12,978
#: redirects dominate the ~7,000 page visits).
PAGE_VISIT_SHARE = 0.347

#: Redirect hosts with their visit weights (within the redirect part).
REDIRECT_HOST_WEIGHTS: tuple[tuple[str, str, float], ...] = (
    # (host, path, weight)
    ("upload.youtube.com", "/my_videos_upload", 0.924),
    ("upload.youtube.com", "/", 0.061),
    ("competition.mbc.net", "/vote.php", 0.008),
    ("sharek.aljazeera.net", "/upload", 0.007),
)


#: The uniforms each request of the component draws, one column per
#: purpose.
DRAW_COLUMNS = (
    "bin_u", "second_u", "client_u", "visit_u", "page_u", "page_host_u",
    "blocked_u", "form_u", "redirect_u",
)
(
    BIN_U, SECOND_U, CLIENT_U, VISIT_U, PAGE_U, PAGE_HOST_U, BLOCKED_U,
    FORM_U, REDIRECT_U,
) = range(len(DRAW_COLUMNS))
DRAWS = len(DRAW_COLUMNS)

_BLOCKED_FORMS = np.array(fb.BLOCKED_QUERY_FORMS, dtype=object)


class RedirectTargetsComponent:
    """Generates page visits plus redirect-host traffic."""

    def __init__(
        self,
        population: ClientPopulation,
        calendar: TrafficCalendar,
    ):
        self.population = population
        self.calendar = calendar
        self.pages = list(fb.ALL_PAGES)
        self._page_cdf = cdf([page.weight for page in self.pages])
        self._page_paths = np.array(
            [f"/{page.name}" for page in self.pages], dtype=object
        )
        self._blocked_share = np.array(
            [page.blocked_share for page in self.pages]
        )
        self._page_hosts = np.array(
            [host for host, _ in fb.PAGE_HOSTS], dtype=object
        )
        self._page_host_cdf = cdf([w for _, w in fb.PAGE_HOSTS])
        self._redirect_cdf = cdf([w for _, _, w in REDIRECT_HOST_WEIGHTS])
        self._redirect_hosts = np.array(
            [host for host, _, _ in REDIRECT_HOST_WEIGHTS], dtype=object
        )
        self._redirect_paths = np.array(
            [path for _, path, _ in REDIRECT_HOST_WEIGHTS], dtype=object
        )

    def generate(
        self, day: str, count: int, rng: np.random.Generator
    ) -> RequestBatch:
        return generate_blocks(
            count, DRAWS, rng, lambda u: self._columns(day, u)
        )

    def _columns(self, day: str, u: np.ndarray) -> dict[str, np.ndarray]:
        count = len(u)
        clients = self.population.pick(u[:, CLIENT_U])
        redirect = inverse_cdf(self._redirect_cdf, u[:, REDIRECT_U])
        hosts = self._redirect_hosts[redirect]
        paths = self._redirect_paths[redirect]
        queries = constant_column("", count)
        visits = np.flatnonzero(u[:, VISIT_U] < PAGE_VISIT_SHARE)
        if len(visits):
            pages = inverse_cdf(self._page_cdf, u[visits, PAGE_U])
            hosts[visits] = self._page_hosts[
                inverse_cdf(self._page_host_cdf, u[visits, PAGE_HOST_U])
            ]
            paths[visits] = self._page_paths[pages]
            blocked = u[visits, BLOCKED_U] < self._blocked_share[pages]
            forms = constant_column(fb.ESCAPING_QUERY_FORM, len(visits))
            forms[blocked] = _BLOCKED_FORMS[
                uniform_index(len(_BLOCKED_FORMS), u[visits[blocked], FORM_U])
            ]
            queries[visits] = forms
        return request_defaults(
            count,
            epoch=self.calendar.epochs(day, u[:, BIN_U], u[:, SECOND_U]),
            c_ip=self.population.c_ips[clients],
            user_agent=self.population.user_agents[clients],
            host=hosts,
            path=paths,
            query=queries,
            component=constant_column("redirect-targets", count),
        )
