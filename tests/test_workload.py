"""Tests for the workload package: config, population, calendar,
components, generator."""

import numpy as np
import pytest

from repro.catalog.domains import build_domain_universe
from repro.timeline import LOG_DAYS, PROTEST_DAY, day_epoch, day_span
from repro.tornet import TorDirectory
from repro.bittorrent import TorrentCatalog
from repro.workload import DEFAULT_BOOSTS, ScenarioConfig, TrafficGenerator
from repro.workload.bittraffic import BitTorrentComponent
from repro.workload.browsing import BrowsingComponent
from repro.workload.config import COMPONENT_SHARES, small_config
from repro.workload.diurnal import (
    BINS_PER_DAY,
    DEFAULT_SURGES,
    TrafficCalendar,
)
from repro.workload.fbpages import RedirectTargetsComponent
from repro.workload.gcache import GoogleCacheComponent
from repro.workload.iphosts import (
    IPHostsComponent,
    blocked_endpoint_addresses,
    build_address_pools,
)
from repro.workload.population import ClientPopulation, population_size_for
from repro.workload.tortraffic import TorComponent
from tests.helpers import rng


@pytest.fixture(scope="module")
def population():
    return ClientPopulation(400, seed=5)


@pytest.fixture(scope="module")
def calendar():
    return TrafficCalendar()


class TestConfig:
    def test_component_request_counts(self):
        config = ScenarioConfig(total_requests=1_000_000)
        weight = 1.0
        tor = config.component_requests("tor", weight)
        assert tor == round(1_000_000 * COMPONENT_SHARES["tor"])

    def test_boost_scales_component(self):
        config = ScenarioConfig(total_requests=1_000_000).with_boosts(tor=10)
        assert config.component_requests("tor", 1.0) == round(
            1_000_000 * COMPONENT_SHARES["tor"] * 10
        )

    def test_browsing_absorbs_remainder(self):
        config = ScenarioConfig(total_requests=100_000)
        total = config.browsing_requests(1.0) + sum(
            config.component_requests(c, 1.0) for c in COMPONENT_SHARES
        )
        assert abs(total - 100_000) <= len(COMPONENT_SHARES) + 1

    def test_day_weights_normalized(self):
        config = ScenarioConfig()
        weights = config.day_weights()
        assert set(weights) == set(LOG_DAYS)
        assert abs(sum(weights.values()) - 1.0) < 1e-9

    def test_friday_slowdown(self):
        weights = ScenarioConfig().day_weights()
        assert weights["2011-08-05"] < weights["2011-08-03"] * 0.7

    def test_user_day_boost(self):
        base = ScenarioConfig().day_weights()["2011-07-22"]
        boosted = ScenarioConfig(user_day_boost=10).day_weights()["2011-07-22"]
        assert boosted > base * 5

    def test_small_config_has_boosts(self):
        boosts = small_config().boosts
        for component, factor in DEFAULT_BOOSTS.items():
            if component == "redirect-targets":
                assert boosts[component] >= factor  # extra test boost
            else:
                assert boosts[component] == factor


class TestPopulation:
    def test_size(self, population):
        assert len(population) == 400

    def test_clients_have_syrian_addresses(self, population):
        assert all(c.c_ip.startswith("31.9.") for c in population.clients)

    def test_activity_normalized(self, population):
        total = sum(c.activity for c in population.clients)
        assert abs(total - 1.0) < 1e-6

    def test_sampling_prefers_active_users(self, population):
        sampled = population.pick(rng(0).random(3000))
        top_user = max(
            range(len(population)),
            key=lambda i: population.clients[i].activity,
        )
        hits = int((sampled == top_user).sum())
        assert hits > 3000 / 400  # above uniform expectation

    def test_nat_shares_addresses(self, population):
        addresses = [c.c_ip for c in population.clients]
        assert len(set(addresses)) < len(addresses)

    def test_risk_pool_sampling(self, population):
        risk = [
            population.clients[i]
            for i in population.pick_risk(rng(1).random(50))
        ]
        assert len(risk) == 50
        distinct = {(c.c_ip, c.user_agent) for c in risk}
        assert len(distinct) <= max(2, int(400 * 0.025))

    def test_population_size_for(self):
        assert population_size_for(45_000) == 1000
        assert population_size_for(10) == 50  # floor

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ClientPopulation(0)


class TestCalendar:
    def test_bin_weights_normalized(self, calendar):
        weights = calendar.bin_weights("2011-08-02")
        assert len(weights) == BINS_PER_DAY
        assert abs(weights.sum() - 1.0) < 1e-9

    def test_morning_busier_than_night(self, calendar):
        weights = calendar.bin_weights("2011-08-02")
        morning = weights[9 * 12: 11 * 12].sum()
        night = weights[2 * 12: 4 * 12].sum()
        assert morning > night * 3

    def test_dip_reduces_window(self, calendar):
        weights = calendar.bin_weights(PROTEST_DAY)
        plain = calendar.bin_weights("2011-08-02")
        dip_bin = int(13.2 * 12)
        assert weights[dip_bin] < plain[dip_bin] * 0.5

    def test_sample_epochs_within_day(self, calendar):
        u = rng(0).random((500, 2))
        epochs = calendar.epochs("2011-08-03", u[:, 0], u[:, 1])
        start, end = day_span("2011-08-03")
        assert len(epochs) == 500
        assert epochs.min() >= start and epochs.max() < end
        edges = calendar.epochs(
            "2011-08-03", np.array([0.0, 1 - 1e-16]), np.array([0.0, 1 - 1e-16])
        )
        assert edges.tolist() == [start, end - 1]

    def test_sample_zero(self, calendar):
        empty = np.empty(0)
        assert len(calendar.epochs("2011-08-03", empty, empty)) == 0

    def test_surges_only_on_protest_day(self, calendar):
        assert calendar.surge_requests("2011-08-02", 100_000) == []
        surges = calendar.surge_requests(PROTEST_DAY, 100_000)
        assert len(surges) == len(DEFAULT_SURGES)
        assert all(count > 0 for _, count in surges)

    def test_surge_epochs_within_window(self, calendar):
        surge = DEFAULT_SURGES[1]
        epochs = calendar.window_epochs(surge, rng(0).random(200))
        base = day_epoch(surge.day)
        assert epochs.min() >= base + surge.start_hour * 3600
        assert epochs.max() < base + surge.end_hour * 3600


class TestBrowsingComponent:
    @pytest.fixture(scope="class")
    def component(self, population, calendar):
        sites = build_domain_universe(tail_count=50)
        return BrowsingComponent(sites, population, calendar)

    def test_generates_requested_count_plus_surges(self, component):
        requests = component.generate("2011-08-02", 800, rng(0))
        assert len(requests) == 800  # no surge on a plain day

    def test_protest_day_adds_surge_requests(self, component):
        requests = component.generate(PROTEST_DAY, 3000, rng(0))
        assert len(requests) > 3000

    def test_requests_well_formed(self, component):
        for request in component.generate("2011-08-02", 300, rng(1)):
            assert request.host
            assert request.component == "browsing"
            if request.method == "CONNECT":
                assert request.port == 443
                assert request.path == ""
            else:
                assert request.path.startswith("/")
                assert "{" not in request.path and "{" not in request.query

    def test_popular_sites_dominate(self, component):
        requests = component.generate("2011-08-02", 4000, rng(2))
        google = sum(1 for r in requests if r.host == "www.google.com")
        assert google > 100

    def test_excludes_special_component_sites(self, component):
        requests = component.generate("2011-08-02", 4000, rng(3))
        hosts = {r.host for r in requests}
        assert "webcache.googleusercontent.com" not in hosts
        assert "upload.youtube.com" not in hosts


class TestIPHosts:
    def test_pools_normalized(self):
        pools = build_address_pools(seed=1)
        assert abs(sum(p.share for p in pools) - 1.0) < 1e-9

    def test_blocked_endpoints_exclude_il_subnet_pools(self):
        pools = build_address_pools(seed=1)
        blocked = blocked_endpoint_addresses(pools)
        assert "212.150.13.20" in blocked
        for pool in pools:
            if pool.name.startswith("il-84"):
                assert not any(a in blocked for a in pool.addresses)

    def test_generates_ip_hosts(self, population, calendar):
        component = IPHostsComponent(population, calendar)
        requests = component.generate("2011-08-02", 400, rng(0))
        assert len(requests) == 400
        for request in requests:
            parts = request.host.split(".")
            assert len(parts) == 4 and all(p.isdigit() for p in parts)
            assert request.component == "iphosts"


class TestTorComponent:
    @pytest.fixture(scope="class")
    def component(self, population, calendar):
        return TorComponent(TorDirectory(80, seed=2), population, calendar)

    def test_http_share(self, component):
        requests = component.generate("2011-08-02", 600, rng(0))
        http = sum(1 for r in requests if r.component == "tor-http")
        assert 0.6 < http / len(requests) < 0.85

    def test_http_requests_use_directory_paths(self, component):
        for request in component.generate("2011-08-02", 200, rng(1)):
            if request.component == "tor-http":
                assert request.path.startswith("/tor/")
                assert request.method == "GET"
            else:
                assert request.method == "CONNECT"

    def test_protest_day_boost(self, component):
        plain = component.generate("2011-08-02", 300, rng(2))
        protest = component.generate(PROTEST_DAY, 300, rng(2))
        assert len(protest) > len(plain) * 1.5


class TestBitTorrentComponent:
    def test_announce_requests(self, population, calendar):
        component = BitTorrentComponent(
            TorrentCatalog(100, seed=3), population, calendar
        )
        requests = component.generate("2011-08-02", 250, rng(0))
        assert len(requests) == 250
        for request in requests:
            assert request.path == "/announce"
            assert "info_hash=" in request.query
            assert "peer_id=-UT" in request.query


class TestRedirectTargets:
    def test_mix(self, population, calendar):
        component = RedirectTargetsComponent(population, calendar)
        requests = component.generate("2011-08-02", 600, rng(0))
        uploads = sum(1 for r in requests if r.host == "upload.youtube.com")
        pages = sum(1 for r in requests if "facebook" in r.host)
        assert uploads > pages  # Table 7 dominance
        assert pages > 50


class TestGoogleCache:
    def test_cache_requests(self, population, calendar):
        sites = build_domain_universe(tail_count=10)
        component = GoogleCacheComponent(sites, population, calendar)
        requests = component.generate("2011-08-02", 100, rng(0))
        assert all(
            r.host == "webcache.googleusercontent.com" for r in requests
        )
        assert all("q=cache:" in r.query for r in requests)


class TestGenerator:
    @pytest.fixture(scope="class")
    def generator(self):
        return TrafficGenerator(small_config(8000, seed=3))

    def test_generates_every_day(self, generator):
        days = [day for day, _ in generator.generate()]
        assert days == list(LOG_DAYS)

    def test_day_stream_sorted(self, generator):
        _, requests = next(iter(generator.generate()))
        epochs = [r.epoch for r in requests]
        assert epochs == sorted(epochs)

    def test_total_volume_close_to_configured(self, generator):
        total = sum(len(reqs) for _, reqs in generator.generate())
        assert 0.9 * 8000 < total < 1.25 * 8000

    def test_blocked_anonymizer_addresses_exposed(self, generator):
        blocked = generator.blocked_anonymizer_addresses()
        assert len(blocked) > 10
