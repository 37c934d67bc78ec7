"""Torrent content catalog and tracker inventory."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.catalog.words import QUERY_WORDS
from repro.stats.draws import cdf, inverse_cdf

#: Tracker hosts clients announce to.  ``tracker-proxy.furk.net``
#: reproduces the paper's observation that announces to it are always
#: censored (the hostname carries the ``proxy`` keyword).
TRACKERS: tuple[tuple[str, int], ...] = (
    ("tracker.openbittorrent.com", 80),
    ("tracker.publicbt.com", 80),
    ("denis.stalker.h3q.com", 6969),
    ("tracker.torrentbay.to", 6969),
    ("exodus.desync.com", 6969),
    ("tracker-proxy.furk.net", 80),
)

_TRACKER_WEIGHTS = (0.35, 0.28, 0.14, 0.12, 0.10, 0.01)
_TRACKER_CDF = cdf(_TRACKER_WEIGHTS)

#: Content kinds and their catalog shares.  The paper finds mostly
#: media, plus anti-censorship tools (UltraSurf, HideMyAss, Auto Hide
#: IP, anonymous browsers) and IM installers (Skype/MSN/Yahoo) that
#: cannot be downloaded directly because their websites are censored.
_KIND_SHARES: tuple[tuple[str, float], ...] = (
    ("media", 0.924),
    ("anticensor", 0.030),
    ("im-software", 0.030),
    ("software", 0.016),
)

_ANTICENSOR_TITLES = (
    "UltraSurf {version} portable",
    "HideMyAss VPN client",
    "Auto Hide IP {version} + crack",
    "Anonymous Browser Toolkit {version}",
)

_IM_TITLES = (
    "Skype {version} offline installer",
    "MSN Messenger 2011 setup",
    "Yahoo Messenger {version} full",
)

_SOFTWARE_TITLES = (
    "Office suite {version} activated",
    "Antivirus {version} with key",
    "Photo editor {version} portable",
)


@dataclass(frozen=True, slots=True)
class TorrentContent:
    """One shared content item."""

    info_hash: str  # 40-char hex digest of the 20-byte hash
    title: str
    kind: str


class TorrentCatalog:
    """Deterministic torrent population with Zipf popularity."""

    def __init__(self, content_count: int = 1200, seed: int = 6881):
        rng = np.random.default_rng(seed)
        kinds: list[str] = []
        for kind, share in _KIND_SHARES:
            kinds.extend([kind] * max(1, int(round(share * content_count))))
        kinds = kinds[:content_count]
        while len(kinds) < content_count:
            kinds.append("media")
        rng.shuffle(kinds)  # type: ignore[arg-type]
        # Pin a few high-popularity ranks to the tool categories: the
        # paper finds UltraSurf and IM installers among the most-shared
        # content (their websites being censored drives demand).
        if content_count >= 8:
            kinds[1] = "anticensor"
            kinds[3] = "im-software"
            kinds[6] = "anticensor"
        self.contents: list[TorrentContent] = []
        for i, kind in enumerate(kinds):
            info_hash = format(int(rng.integers(16**15)), "015x") + format(i, "025x")
            self.contents.append(
                TorrentContent(info_hash[:40], self._title(kind, i, rng), kind)
            )
        ranks = np.arange(1, content_count + 1, dtype=float)
        self._cdf = cdf(1.0 / ranks**0.9)
        self.info_hashes = np.array(
            [content.info_hash for content in self.contents], dtype=object
        )

    @staticmethod
    def _title(kind: str, index: int, rng: np.random.Generator) -> str:
        version = f"{int(rng.integers(1, 12))}.{int(rng.integers(0, 10))}"
        if kind == "anticensor":
            template = _ANTICENSOR_TITLES[index % len(_ANTICENSOR_TITLES)]
        elif kind == "im-software":
            template = _IM_TITLES[index % len(_IM_TITLES)]
        elif kind == "software":
            template = _SOFTWARE_TITLES[index % len(_SOFTWARE_TITLES)]
        else:
            word_a = QUERY_WORDS[index % len(QUERY_WORDS)]
            word_b = QUERY_WORDS[(index * 7 + 3) % len(QUERY_WORDS)]
            template = f"{word_a} {word_b} {{version}} DVDRip"
        return template.format(version=version)

    def __len__(self) -> int:
        return len(self.contents)

    def pick_contents(self, u: np.ndarray) -> np.ndarray:
        """Popularity-weighted content indices, one per uniform."""
        return inverse_cdf(self._cdf, u)

    @staticmethod
    def pick_trackers(u: np.ndarray) -> np.ndarray:
        """Weighted indices into :data:`TRACKERS`, one per uniform."""
        return inverse_cdf(_TRACKER_CDF, u)

    def by_hash(self) -> dict[str, TorrentContent]:
        """Index the catalog by info hash."""
        return {content.info_hash: content for content in self.contents}


def make_peer_id(user_index: int) -> str:
    """A 20-byte peer id in uTorrent convention (urlencoded form).

    The paper counts unique users by the announce ``peer_id`` field.
    """
    return f"-UT2210-{user_index:012d}"
