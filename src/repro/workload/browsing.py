"""The web-browsing traffic component.

Covers ~98.5 % of the volume: the population browsing the site
universe.  Site choice follows the calibrated popularity weights, URL
choice follows each site's template mix, HTTPS arises from per-site
CONNECT shares, and the Aug 3 IM surges are generated as an extra
stream over the IM-tagged sites (Section 5.1 of the paper).

Workload stream v2: every request draws the :data:`DRAWS` uniforms of
:data:`DRAW_COLUMNS` (see :mod:`repro.workload.stream`).
"""

from __future__ import annotations

import numpy as np

from repro.catalog.domains import SiteSpec, UrlPattern
from repro.net.useragent import ALL_AGENTS
from repro.traffic import RequestBatch, connect_rows, request_defaults
from repro.workload.diurnal import SurgeEvent, TrafficCalendar
from repro.workload.population import ClientPopulation
from repro.stats.draws import GroupedCdf, cdf, inverse_cdf
from repro.workload.stream import concat_requests, generate_blocks

_AGENT_BY_FAMILY = {agent.family: agent.string for agent in ALL_AGENTS}

#: Relative weights of IM-tagged hosts inside a demand surge: Skype
#: dominates (Table 5 shows it at 29 % of censored traffic during the
#: 8-10 am peak), with the MSN gateway second.
_SURGE_HOST_WEIGHTS: dict[str, float] = {
    "www.skype.com": 0.30,
    "ui.skype.com": 0.18,
    "download.skype.com": 0.07,
    "messenger.live.com": 0.30,
    "ceipmsn.com": 0.10,
    "jumblo.com": 0.05,
}

#: The uniforms each browsing request draws, one column per purpose
#: (a surge request uses ``bin_u`` as its offset in the surge window).
DRAW_COLUMNS = (
    "bin_u", "second_u", "site_u", "client_u", "template_u", "risk_u",
    "risk_client_u", "cluster_u", "cluster_offset_u", "https_u",
    "slot_u0", "slot_u1", "slot_u2",
)
(
    BIN_U, SECOND_U, SITE_U, CLIENT_U, TEMPLATE_U, RISK_U,
    RISK_CLIENT_U, CLUSTER_U, CLUSTER_OFFSET_U, HTTPS_U, SLOT_U,
) = range(len(DRAW_COLUMNS) - 2)
DRAWS = len(DRAW_COLUMNS)

#: Placeholders a browsable template may hold (one uniform slot each).
PLACEHOLDER_SLOTS = DRAWS - SLOT_U

#: Share of risky-template requests that go to the risk pool.
RISK_SHARE = 0.85

#: Share of non-risky asset requests that cluster on the site's latest
#: page view, and the spread of their delay in seconds.
CLUSTER_SHARE = 0.6
CLUSTER_SECONDS = 5


class BrowsingComponent:
    """Generates browsing requests from the site universe."""

    def __init__(
        self,
        sites: list[SiteSpec],
        population: ClientPopulation,
        calendar: TrafficCalendar,
    ):
        # Google-cache and redirect-host traffic have their own
        # components; everything else in the universe is browsable.
        self.sites = [
            site
            for site in sites
            if not site.tagged("google-cache") and not site.tagged("redirect-host")
        ]
        weights = np.array([site.weight for site in self.sites], dtype=float)
        if weights.sum() <= 0:
            raise ValueError("site universe has no weight")
        self._site_cdf = cdf(weights)
        self._hosts = np.array(
            [site.host for site in self.sites], dtype=object
        )
        self._https_share = np.array([site.https_share for site in self.sites])
        # Sites whose audience is inherently niche (blocked domains,
        # circumvention services): their visitors come from the risk
        # pool, concentrating censorship on few, active users (Fig. 4).
        risky_tags = {"suspected", "blocked-host", "il", "keyword-host",
                      "anonymizer"}
        self._templates = GroupedCdf(
            [[t.weight for t in site.templates] for site in self.sites]
        )
        templates = [
            (site, template)
            for site in self.sites for template in site.templates
        ]
        self._risky = np.array([
            template.risky or bool(risky_tags & set(site.tags))
            for site, template in templates
        ])
        self._html = np.array(
            [t.content_type == "text/html" for _, t in templates]
        )
        self._method = np.array([t.method for _, t in templates], dtype=object)
        self._content_type = np.array(
            [t.content_type for _, t in templates], dtype=object
        )
        self._agent = np.array(
            [_AGENT_BY_FAMILY.get(t.agent) if t.agent else None
             for _, t in templates],
            dtype=object,
        )
        patterns: dict[tuple[str, str], int] = {}
        self._pattern = np.array([
            patterns.setdefault((t.path, t.query), len(patterns))
            for _, t in templates
        ], dtype=np.intp)
        self._patterns = [UrlPattern(*key) for key in patterns]
        for pattern in self._patterns:
            if len(pattern.kinds) > PLACEHOLDER_SLOTS:
                raise ValueError(
                    f"template {pattern.path}?{pattern.query} has more than "
                    f"{PLACEHOLDER_SLOTS} placeholders"
                )
        self._filled = np.array([bool(p.kinds) for p in self._patterns])
        self._paths = np.array([p.path for p in self._patterns], dtype=object)
        self._queries = np.array(
            [p.query for p in self._patterns], dtype=object
        )
        self.population = population
        self.calendar = calendar
        self._surge_sites, self._surge_cdf = self._build_surge_pool()

    def _build_surge_pool(self) -> tuple[np.ndarray, np.ndarray]:
        indices: list[int] = []
        weights: list[float] = []
        for i, site in enumerate(self.sites):
            if site.host in _SURGE_HOST_WEIGHTS:
                indices.append(i)
                weights.append(_SURGE_HOST_WEIGHTS[site.host])
        if not indices:
            return np.empty(0, dtype=np.intp), np.empty(0)
        return np.array(indices, dtype=np.intp), cdf(weights)

    def generate(
        self, day: str, count: int, rng: np.random.Generator
    ) -> RequestBatch:
        """Base browsing requests for one day, then its surges."""
        views = _PageViews(len(self.sites))

        def block(u: np.ndarray) -> dict[str, np.ndarray]:
            epochs = self.calendar.epochs(day, u[:, BIN_U], u[:, SECOND_U])
            sites = inverse_cdf(self._site_cdf, u[:, SITE_U])
            return self._columns(u, sites, epochs, views)

        parts = [generate_blocks(count, DRAWS, rng, block)]
        if len(self._surge_sites):
            for surge, surge_count in self.calendar.surge_requests(day, count):
                parts.append(self._surge(surge, surge_count, rng))
        return concat_requests([part.columns for part in parts])

    def _surge(
        self, surge: SurgeEvent, count: int, rng: np.random.Generator
    ) -> RequestBatch:
        views = _PageViews(len(self.sites))

        def block(u: np.ndarray) -> dict[str, np.ndarray]:
            epochs = self.calendar.window_epochs(surge, u[:, BIN_U])
            sites = self._surge_sites[
                inverse_cdf(self._surge_cdf, u[:, SITE_U])
            ]
            return self._columns(u, sites, epochs, views)

        return generate_blocks(count, DRAWS, rng, block)

    def _columns(
        self,
        u: np.ndarray,
        sites: np.ndarray,
        epochs: np.ndarray,
        views: "_PageViews",
    ) -> dict[str, np.ndarray]:
        count = len(u)
        population = self.population
        template = self._templates.pick(sites, u[:, TEMPLATE_U])
        clients = population.pick(u[:, CLIENT_U])
        risky = self._risky[template]
        pooled = np.flatnonzero(risky & (u[:, RISK_U] < RISK_SHARE))
        clients[pooled] = population.pick_risk(u[pooled, RISK_CLIENT_U])
        views.cluster(
            sites, ~risky, self._html[template], clients, epochs,
            u[:, CLUSTER_U], u[:, CLUSTER_OFFSET_U],
        )
        agents = self._agent[template]
        own_agent = np.equal(agents, None)
        agents[own_agent] = population.user_agents[clients[own_agent]]

        connect = u[:, HTTPS_U] < self._https_share[sites]
        pattern = self._pattern[template]
        paths = self._paths[pattern]
        queries = self._queries[pattern]
        filled = self._filled[pattern] & ~connect
        # Distinct codes by bincount: a plain np.unique imports numpy.ma.
        for code in np.flatnonzero(np.bincount(pattern[filled])).tolist():
            rows = np.flatnonzero(filled & (pattern == code))
            paths[rows], queries[rows] = self._patterns[code].fill(
                u[rows, SLOT_U:]
            )
        columns = request_defaults(
            count,
            epoch=epochs,
            c_ip=population.c_ips[clients],
            user_agent=agents,
            host=self._hosts[sites],
            path=paths,
            query=queries,
            method=self._method[template],
            content_type=self._content_type[template],
        )
        connect_rows(columns, connect)
        columns["port"][connect] = 443
        return columns


class _PageViews:
    """Page-view clustering state: each site's latest page view.

    An allowed page fans out into asset requests from the same client
    moments later (the paper's request-level logging inflation); a
    censored page never loads its assets, so risky requests neither
    record nor join a view.  A non-risky asset request joins, with
    probability :data:`CLUSTER_SHARE`, the latest earlier non-risky
    HTML request to its site in generation order: it takes that
    view's client and its epoch plus ``floor(u * 5)`` seconds.  The
    latest view per site carries from block to block.
    """

    def __init__(self, sites: int):
        self.client = np.full(sites, -1, dtype=np.intp)
        self.epoch = np.zeros(sites, dtype=np.int64)

    def cluster(
        self,
        sites: np.ndarray,
        eligible: np.ndarray,
        html: np.ndarray,
        clients: np.ndarray,
        epochs: np.ndarray,
        cluster_u: np.ndarray,
        offset_u: np.ndarray,
    ) -> None:
        """Rewrite *clients* and *epochs* of clustered asset requests
        in place, and record the block's latest view per site."""
        rows = np.flatnonzero(eligible)
        if not len(rows):
            return
        rows = rows[np.argsort(sites[rows], kind="stable")]
        site = sites[rows]
        is_view = html[rows]
        # Position of the latest view at or before each position, in
        # site-sorted generation order; -1 before a site's first view.
        position = np.arange(len(rows))
        latest = np.maximum.accumulate(np.where(is_view, position, -1))
        first_of_site = np.r_[True, site[1:] != site[:-1]]
        group_start = np.maximum.accumulate(
            np.where(first_of_site, position, 0)
        )
        in_block = latest >= group_start
        view_rows = rows[np.maximum(latest, 0)]
        view_client = np.where(
            in_block, clients[view_rows], self.client[site]
        )
        view_epoch = np.where(in_block, epochs[view_rows], self.epoch[site])
        # Record the block's last view per site before rewriting.
        last_of_site = np.r_[site[1:] != site[:-1], True]
        ends = np.flatnonzero(last_of_site & in_block)
        self.client[site[ends]] = clients[view_rows[ends]]
        self.epoch[site[ends]] = epochs[view_rows[ends]]
        joins = (
            ~is_view & (view_client >= 0)
            & (cluster_u[rows] < CLUSTER_SHARE)
        )
        joined = rows[joins]
        clients[joined] = view_client[joins]
        epochs[joined] = view_epoch[joins] + (
            offset_u[joined] * CLUSTER_SECONDS
        ).astype(np.int64)
