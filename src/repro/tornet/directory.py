"""Synthetic Tor relay directory."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.ip import format_ipv4, parse_network
from repro.stats.draws import cdf, inverse_cdf, uniform_index

# Address pools relays are drawn from (synthetic allocations in the
# built-in GeoIP registry, so relays geolocate to plausible countries).
_RELAY_POOLS = (
    ("US", "8.8.0.0/16"),
    ("US", "64.12.0.0/16"),
    ("DE", "91.10.0.0/16"),
    ("FR", "90.20.0.0/16"),
    ("NL", "145.10.0.0/16"),
    ("SE", "78.70.0.0/16"),
)

# OR-port mix observed in the wild circa 2011: the default 9001
# dominates, with 443 used by relays dodging egress filtering.
_OR_PORTS = (9001, 443, 9090, 8080)
_OR_PORT_WEIGHTS = (0.62, 0.26, 0.07, 0.05)

_DIR_PORTS = (9030, 80, 0)  # 0 = no directory port
_DIR_PORT_WEIGHTS = (0.65, 0.20, 0.15)

#: Directory-protocol request paths (HTTP signaling, "Tor_http").
DIRECTORY_PATHS: tuple[str, ...] = (
    "/tor/server/authority.z",
    "/tor/status-vote/current/consensus.z",
    "/tor/server/all.z",
    "/tor/keys/all.z",
    "/tor/server/fp/{fingerprint}.z",
    "/tor/extra/recent.z",
)
_FINGERPRINT_PATH = 4
_DIRECTORY_PATH_COLUMN = np.array(DIRECTORY_PATHS, dtype=object)


@dataclass(frozen=True, slots=True)
class Relay:
    """One Tor relay: endpoints plus a consensus bandwidth weight."""

    nickname: str
    fingerprint: str
    ip: str
    or_port: int
    dir_port: int
    bandwidth: float

    @property
    def or_endpoint(self) -> tuple[str, int]:
        return (self.ip, self.or_port)

    @property
    def dir_endpoint(self) -> tuple[str, int] | None:
        if self.dir_port == 0:
            return None
        return (self.ip, self.dir_port)


class TorDirectory:
    """A deterministic synthetic relay population.

    The paper matches 95 K requests against 1,111 distinct relays; the
    default population size matches.  Construction is fully determined
    by the seed, so the generator and the analysis can independently
    reconstruct the same directory — mirroring how both the censor's
    victims and the researchers consult the same public consensus.
    """

    def __init__(self, relay_count: int = 1111, seed: int = 9001):
        rng = np.random.default_rng(seed)
        self.relays: list[Relay] = []
        used: set[tuple[str, int]] = set()
        pools = [parse_network(block) for _, block in _RELAY_POOLS]
        while len(self.relays) < relay_count:
            pool = pools[int(rng.integers(len(pools)))]
            address = format_ipv4(pool.nth(int(rng.integers(1, pool.size - 1))))
            or_port = int(rng.choice(_OR_PORTS, p=_OR_PORT_WEIGHTS))
            if (address, or_port) in used:
                continue
            used.add((address, or_port))
            dir_port = int(rng.choice(_DIR_PORTS, p=_DIR_PORT_WEIGHTS))
            index = len(self.relays)
            self.relays.append(Relay(
                nickname=f"relay{index:04d}",
                fingerprint=format(int(rng.integers(16**10)), "010x").upper(),
                ip=address,
                or_port=or_port,
                dir_port=dir_port,
                # Consensus weights are heavy-tailed; exit/guard relays
                # carry most traffic.
                bandwidth=float(rng.pareto(1.3) + 0.1),
            ))
        self._relay_cdf = cdf([relay.bandwidth for relay in self.relays])
        self._fingerprint_paths = np.array([
            DIRECTORY_PATHS[_FINGERPRINT_PATH].format(
                fingerprint=relay.fingerprint
            )
            for relay in self.relays
        ], dtype=object)
        self._or_endpoints = {relay.or_endpoint for relay in self.relays}
        self._dir_endpoints = {
            relay.dir_endpoint
            for relay in self.relays
            if relay.dir_endpoint is not None
        }

    def __len__(self) -> int:
        return len(self.relays)

    def or_endpoints(self) -> set[tuple[str, int]]:
        """All ``(ip, or-port)`` pairs — the paper's matching triplets."""
        return self._or_endpoints

    def dir_endpoints(self) -> set[tuple[str, int]]:
        return self._dir_endpoints

    def relay_ips(self) -> set[str]:
        return {relay.ip for relay in self.relays}

    def pick_relays(self, u: np.ndarray) -> np.ndarray:
        """Bandwidth-weighted relay indices (how clients pick relays),
        one per uniform."""
        return inverse_cdf(self._relay_cdf, u)

    def directory_paths(
        self, template_u: np.ndarray, relay_u: np.ndarray
    ) -> np.ndarray:
        """Directory-protocol paths for Tor_http requests: a uniform
        template per *template_u*, and for the fingerprint template a
        uniform relay per *relay_u*."""
        template = uniform_index(len(DIRECTORY_PATHS), template_u)
        paths = _DIRECTORY_PATH_COLUMN[template]
        by_fingerprint = np.flatnonzero(template == _FINGERPRINT_PATH)
        paths[by_fingerprint] = self._fingerprint_paths[
            uniform_index(len(self.relays), relay_u[by_fingerprint])
        ]
        return paths

    def is_tor_endpoint(self, host: str, port: int) -> bool:
        """True when (host, port) is a known relay OR or Dir endpoint."""
        return (host, port) in self._or_endpoints or (host, port) in self._dir_endpoints
