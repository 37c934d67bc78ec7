"""Tests for the Tor substrate."""

import numpy as np

from repro.geoip import builtin_registry
from repro.tornet import TorDirectory
from tests.helpers import rng


class TestTorDirectory:
    def test_population_size(self):
        assert len(TorDirectory(100, seed=3)) == 100

    def test_deterministic_for_seed(self):
        a = TorDirectory(60, seed=5)
        b = TorDirectory(60, seed=5)
        assert [r.ip for r in a.relays] == [r.ip for r in b.relays]

    def test_different_seeds_differ(self):
        a = TorDirectory(60, seed=5)
        b = TorDirectory(60, seed=6)
        assert [r.ip for r in a.relays] != [r.ip for r in b.relays]

    def test_or_endpoints_unique(self):
        directory = TorDirectory(200, seed=1)
        assert len(directory.or_endpoints()) == 200

    def test_dir_endpoints_subset_of_relays(self):
        directory = TorDirectory(120, seed=2)
        ips = directory.relay_ips()
        for ip, _port in directory.dir_endpoints():
            assert ip in ips

    def test_relays_geolocate_outside_syria(self):
        geo = builtin_registry()
        directory = TorDirectory(80, seed=4)
        countries = {geo.lookup(r.ip) for r in directory.relays}
        assert "SY" not in countries
        assert countries <= {"US", "DE", "FR", "NL", "SE"}

    def test_or_port_9001_dominates(self):
        directory = TorDirectory(400, seed=7)
        count_9001 = sum(1 for r in directory.relays if r.or_port == 9001)
        assert count_9001 > 400 * 0.45

    def test_sample_relay_prefers_bandwidth(self):
        directory = TorDirectory(100, seed=8)
        counts = {}
        for index in directory.pick_relays(rng(0).random(800)):
            relay = directory.relays[index]
            counts[relay.nickname] = counts.get(relay.nickname, 0) + 1
        top = max(counts, key=counts.get)
        top_bandwidth = next(
            r.bandwidth for r in directory.relays if r.nickname == top
        )
        median = float(np.median([r.bandwidth for r in directory.relays]))
        assert top_bandwidth > median

    def test_sample_directory_path(self):
        directory = TorDirectory(30, seed=9)
        u = rng(1).random((20, 2))
        paths = directory.directory_paths(u[:, 0], u[:, 1])
        assert len(paths) == 20
        for path in paths:
            assert path.startswith("/tor/")
            assert "{fingerprint}" not in path
        fingerprints = {relay.fingerprint for relay in directory.relays}
        by_fingerprint = directory.directory_paths(
            np.full(5, 4.5 / 6), rng(2).random(5)
        )
        assert all(
            path.removeprefix("/tor/server/fp/").removesuffix(".z")
            in fingerprints for path in by_fingerprint
        )

    def test_is_tor_endpoint(self):
        directory = TorDirectory(30, seed=10)
        relay = directory.relays[0]
        assert directory.is_tor_endpoint(relay.ip, relay.or_port)
        assert not directory.is_tor_endpoint("9.9.9.9", 9001)
