"""Section 4's user-based analysis (Fig. 4).

Users are unique (c-ip, cs-user-agent) pairs on the D_user slice
(July 22–23, hashed addresses).  A *censored user* has at least one
policy-censored request.  The paper finds 147,802 users, 1.57 % of
them censored, with censored users markedly more active.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import censored_mask, percent
from repro.frame import LogFrame, top_counts
from repro.stats.distributions import cdf_points


@dataclass(frozen=True)
class UserAnalysis:
    """Fig. 4 data plus the headline user counts."""

    total_users: int
    censored_users: int
    censored_user_pct: float
    #: Fig. 4(a): histogram of censored-requests-per-censored-user.
    censored_requests_histogram: tuple[tuple[int, float], ...]
    #: Fig. 4(b): CDFs of total requests per user, both groups.
    censored_activity_cdf: tuple[tuple[float, float], ...]
    noncensored_activity_cdf: tuple[tuple[float, float], ...]
    #: Share of users with > 100 requests, per group (the paper quotes
    #: ~50 % vs ~5 %).
    active_share_censored_pct: float
    active_share_noncensored_pct: float


@dataclass(frozen=True)
class SoftwareAgentRow:
    """One software user-agent with its censorship profile."""

    user_agent: str
    users: int
    requests: int
    censored: int
    censored_pct: float
    top_censored_host: str | None


def software_agent_analysis(
    user_frame: LogFrame, interactive_agents: frozenset[str] | None = None
) -> list[SoftwareAgentRow]:
    """The paper's Section 4 observation: some "users" are software
    agents hammering a censored endpoint (the Skype updater retrying
    skype.com), inflating censored users' apparent activity.

    Classifies user agents as software when their string is not a
    known browser string (or not in *interactive_agents* when given)
    and reports the censorship profile of each.
    """
    if interactive_agents is None:
        from repro.net.useragent import BROWSERS

        interactive_agents = frozenset(agent.string for agent in BROWSERS)
    agents, agent_codes = user_frame.factorize("cs_user_agent")
    censored = censored_mask(user_frame)
    hosts, host_codes = user_frame.factorize("cs_host")
    clients, client_codes = user_frame.factorize("c_ip")
    rows: list[SoftwareAgentRow] = []
    for code, agent in enumerate(agents):
        if str(agent) in interactive_agents or str(agent) == "-":
            continue
        of_agent = agent_codes == code
        requests = int(of_agent.sum())
        agent_censored = of_agent & censored
        censored_count = int(agent_censored.sum())
        top_host = None
        if censored_count:
            [(host, _)] = top_counts(hosts, host_codes[agent_censored], 1)
            top_host = str(host)
        users = np.bincount(client_codes[of_agent], minlength=len(clients))
        rows.append(SoftwareAgentRow(
            user_agent=str(agent),
            users=int(np.count_nonzero(users)),
            requests=requests,
            censored=censored_count,
            censored_pct=percent(censored_count, requests),
            top_censored_host=top_host,
        ))
    rows.sort(key=lambda r: (-r.censored, r.user_agent))
    return rows


def user_analysis(user_frame: LogFrame, active_threshold: int = 100) -> UserAnalysis:
    """Compute Fig. 4 over the D_user dataset."""
    if len(user_frame) == 0:
        return UserAnalysis(0, 0, 0.0, (), (), (), 0.0, 0.0)
    identities = np.array(
        [
            f"{ip}\x00{agent}"
            for ip, agent in zip(
                user_frame.col("c_ip"), user_frame.col("cs_user_agent")
            )
        ],
        dtype=object,
    )
    users, inverse = np.unique(identities, return_inverse=True)
    total_per_user = np.bincount(inverse, minlength=len(users))
    censored = censored_mask(user_frame)
    censored_per_user = np.bincount(
        inverse, weights=censored.astype(float), minlength=len(users)
    ).astype(int)

    is_censored_user = censored_per_user > 0
    censored_users = int(is_censored_user.sum())

    # Fig. 4(a): % of censored users with k censored requests.
    histogram: list[tuple[int, float]] = []
    if censored_users:
        values, counts = np.unique(
            censored_per_user[is_censored_user], return_counts=True
        )
        histogram = [
            (int(v), percent(int(c), censored_users)) for v, c in zip(values, counts)
        ]

    censored_activity = total_per_user[is_censored_user]
    noncensored_activity = total_per_user[~is_censored_user]

    return UserAnalysis(
        total_users=len(users),
        censored_users=censored_users,
        censored_user_pct=percent(censored_users, len(users)),
        censored_requests_histogram=tuple(histogram),
        censored_activity_cdf=tuple(cdf_points(censored_activity)),
        noncensored_activity_cdf=tuple(cdf_points(noncensored_activity)),
        active_share_censored_pct=percent(
            int((censored_activity > active_threshold).sum()),
            max(len(censored_activity), 1),
        ),
        active_share_noncensored_pct=percent(
            int((noncensored_activity > active_threshold).sum()),
            max(len(noncensored_activity), 1),
        ),
    )
