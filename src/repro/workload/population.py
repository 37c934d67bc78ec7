"""The client population.

Clients sit behind the STE backbone; the paper identifies a user as a
unique (c-ip, cs-user-agent) pair (Section 4, following Yen et al.),
counting 147,802 users over the July 22–23 slice.  The model assigns
each user a Syrian address, one user agent, and a heavy-tailed
activity weight; requests pick users proportionally to activity, by
an inverse-CDF lookup of one uniform per request.

The paper's Fig. 4 correlation — censored users are far more active
than non-censored ones — *emerges* from this model: active users send
more requests and therefore hit keyword-bearing URLs (plugins, ads,
toolbars) more often; no censorship flag is assigned per user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.ip import format_ipv4, parse_network
from repro.net.useragent import BROWSERS
from repro.stats.draws import cdf, inverse_cdf

# Syrian access ranges clients are drawn from (synthetic allocation,
# registered to SY in the built-in GeoIP registry).
_CLIENT_POOL = parse_network("31.9.0.0/16")

# A NAT gateway serves several distinct browsers from one address;
# this share of users gets a shared address.
_NAT_SHARE = 0.12


@dataclass(frozen=True, slots=True)
class Client:
    """One (address, agent) identity."""

    c_ip: str
    user_agent: str
    activity: float


class ClientPopulation:
    """The sampled user base."""

    def __init__(self, size: int, seed: int = 31):
        if size < 1:
            raise ValueError("population must have at least one client")
        rng = np.random.default_rng(seed)
        nat_count = int(size * _NAT_SHARE)
        distinct_count = size - nat_count

        addresses: list[str] = []
        host_indices = rng.choice(
            _CLIENT_POOL.size - 2, size=distinct_count, replace=False
        ) + 1
        for index in host_indices:
            addresses.append(format_ipv4(_CLIENT_POOL.nth(int(index))))
        # NAT users share a smaller address pool (several agents per ip).
        nat_pool = addresses[: max(1, distinct_count // 20)]
        for i in range(nat_count):
            addresses.append(nat_pool[i % len(nat_pool)])

        agents = [
            BROWSERS[int(rng.integers(len(BROWSERS)))].string for _ in range(size)
        ]
        # Heavy-tailed activity: a few users generate most requests
        # (50 % of censored users send >100 requests in the paper).
        activity = rng.lognormal(mean=0.0, sigma=1.6, size=size)
        activity /= activity.sum()

        self.clients = [
            Client(c_ip=ip, user_agent=agent, activity=float(weight))
            for ip, agent, weight in zip(addresses, agents, activity)
        ]
        #: Per-client columns, indexed by what :meth:`pick` returns.
        self.c_ips = np.array(addresses, dtype=object)
        self.user_agents = np.array(agents, dtype=object)
        self._cdf = cdf(activity)
        # The risk pool: the small user subset that actually touches
        # keyword-bearing content (plugin-heavy browsing, toolbars,
        # IM clients).  2.5 % of users, biased towards active ones.
        pool_size = max(2, int(size * 0.025))
        self._risk_indices = np.argsort(-activity)[: pool_size * 3]
        self._risk_indices = rng.choice(
            self._risk_indices, size=pool_size, replace=False
        )
        self._risk_cdf = cdf(activity[self._risk_indices])

    def __len__(self) -> int:
        return len(self.clients)

    def pick(self, u: np.ndarray) -> np.ndarray:
        """Activity-weighted client indices, one per uniform."""
        return inverse_cdf(self._cdf, u)

    def pick_risk(self, u: np.ndarray) -> np.ndarray:
        """Client indices from the risk pool (activity-weighted)."""
        return self._risk_indices[inverse_cdf(self._risk_cdf, u)]

    def distinct_identities(self) -> int:
        """Number of unique (c-ip, agent) pairs — the paper's user unit."""
        return len({(c.c_ip, c.user_agent) for c in self.clients})


def population_size_for(total_requests: int, user_scale: float = 1.0) -> int:
    """Derive a population size from the request volume.

    The paper sees ~43 requests per user on the D_user slice; we keep
    the same order of magnitude, bounded for tiny test scenarios.
    """
    return max(50, int(total_requests / 45 * user_scale))
