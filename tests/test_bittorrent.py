"""Tests for the BitTorrent substrate."""

from repro.bittorrent import TRACKERS, TitleDatabase, TorrentCatalog
from repro.bittorrent.catalog import make_peer_id
from tests.helpers import rng


class TestTorrentCatalog:
    def test_population_size(self):
        assert len(TorrentCatalog(200, seed=1)) == 200

    def test_deterministic(self):
        a = TorrentCatalog(100, seed=2)
        b = TorrentCatalog(100, seed=2)
        assert [c.info_hash for c in a.contents] == [
            c.info_hash for c in b.contents
        ]

    def test_info_hashes_are_40_hex_and_unique(self):
        catalog = TorrentCatalog(300, seed=3)
        hashes = [c.info_hash for c in catalog.contents]
        assert len(set(hashes)) == 300
        for info_hash in hashes:
            assert len(info_hash) == 40
            assert all(ch in "0123456789abcdef" for ch in info_hash)

    def test_kind_mix(self):
        catalog = TorrentCatalog(500, seed=4)
        kinds = {}
        for content in catalog.contents:
            kinds[content.kind] = kinds.get(content.kind, 0) + 1
        assert kinds["media"] > 400
        assert kinds.get("anticensor", 0) >= 5
        assert kinds.get("im-software", 0) >= 5

    def test_circumvention_titles_named(self):
        catalog = TorrentCatalog(500, seed=5)
        titles = " ".join(
            c.title for c in catalog.contents if c.kind == "anticensor"
        ).lower()
        assert "ultrasurf" in titles
        assert "hidemyass" in titles

    def test_tracker_proxy_host_present(self):
        hosts = [host for host, _ in TRACKERS]
        assert "tracker-proxy.furk.net" in hosts

    def test_sampling(self):
        catalog = TorrentCatalog(50, seed=6)
        u = rng(0).random((200, 2))
        contents = catalog.pick_contents(u[:, 0])
        assert contents.min() >= 0 and contents.max() < len(catalog)
        assert catalog.info_hashes[contents[0]] == (
            catalog.contents[contents[0]].info_hash
        )
        trackers = catalog.pick_trackers(u[:, 1])
        assert set(trackers.tolist()) <= set(range(len(TRACKERS)))

    def test_peer_id_format(self):
        assert make_peer_id(7).startswith("-UT2210-")
        assert make_peer_id(7) != make_peer_id(8)


class TestTitleDatabase:
    def test_resolve_rate_close_to_target(self):
        catalog = TorrentCatalog(1000, seed=7)
        db = TitleDatabase(catalog, resolve_rate=0.774)
        assert 0.70 < len(db) / 1000 < 0.85

    def test_resolution_consistency(self):
        catalog = TorrentCatalog(100, seed=8)
        db = TitleDatabase(catalog)
        for content in catalog.contents:
            title = db.resolve(content.info_hash)
            assert title is None or title == content.title

    def test_unknown_hash_unresolved(self):
        db = TitleDatabase(TorrentCatalog(10, seed=9))
        assert db.resolve("f" * 40) is None

    def test_resolve_many(self):
        catalog = TorrentCatalog(60, seed=10)
        db = TitleDatabase(catalog)
        hashes = [c.info_hash for c in catalog.contents]
        resolved, unresolved = db.resolve_many(hashes)
        assert len(resolved) + len(unresolved) == 60
        assert len(resolved) == len(db)

    def test_rate_validation(self):
        import pytest

        with pytest.raises(ValueError):
            TitleDatabase(TorrentCatalog(10, seed=11), resolve_rate=1.5)

    def test_full_rate_resolves_everything(self):
        catalog = TorrentCatalog(40, seed=12)
        db = TitleDatabase(catalog, resolve_rate=1.0)
        assert len(db) == 40
