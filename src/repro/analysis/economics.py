"""Censorship-economics indices (extension of the paper's Section 8).

The paper frames the Syrian policy through Danezis & Anderson's
cost/benefit lens: blanket blocking is cheap but provokes unrest;
targeted blocking is subtle but leaks.  These indices quantify the
trade-off directly from the logs:

* **collateral index** — share of censored requests whose domain also
  serves allowed traffic (the request was caught by a substring, not by
  intent: Google toolbar, Facebook plugins, ads);
* **stealth index** — share of users who never see a censored
  response (high = censorship invisible to most of the population);
* **precision index** — share of censored requests attributable to a
  deliberate target (a never-allowed domain/host, an IP rule, or a
  redirect) rather than keyword collateral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import (
    censored_mask,
    domain_codes,
    observed_allowed_mask,
    percent,
)
from repro.frame import LogFrame


@dataclass(frozen=True)
class EconomicsIndices:
    """The three indices plus their raw components."""

    censored_total: int
    collateral_requests: int
    collateral_index_pct: float
    targeted_requests: int
    precision_index_pct: float
    total_users: int
    unaffected_users: int
    stealth_index_pct: float


def censorship_economics(frame: LogFrame) -> EconomicsIndices:
    """Compute the indices over one dataset.

    The user-level stealth index needs client identities, so it is
    meaningful on D_user (hashed addresses); on zeroed datasets it
    degenerates to 0/1 and should be read accordingly.
    """
    censored = censored_mask(frame)
    censored_total = int(censored.sum())

    allowed = observed_allowed_mask(frame)
    unique_domains, inverse = domain_codes(frame)
    allowed_per_domain = np.bincount(
        inverse, weights=allowed, minlength=len(unique_domains)
    )
    domain_has_allowed = allowed_per_domain[inverse] > 0
    collateral = censored & domain_has_allowed
    targeted = censored & ~domain_has_allowed

    identities = np.array(
        [
            f"{c}\x00{a}"
            for c, a in zip(frame.col("c_ip"), frame.col("cs_user_agent"))
        ],
        dtype=object,
    )
    users, user_inverse = np.unique(identities, return_inverse=True)
    censored_per_user = np.bincount(
        user_inverse, weights=censored, minlength=len(users)
    )
    unaffected = int((censored_per_user == 0).sum())

    return EconomicsIndices(
        censored_total=censored_total,
        collateral_requests=int(collateral.sum()),
        collateral_index_pct=percent(int(collateral.sum()), censored_total),
        targeted_requests=int(targeted.sum()),
        precision_index_pct=percent(int(targeted.sum()), censored_total),
        total_users=len(users),
        unaffected_users=unaffected,
        stealth_index_pct=percent(unaffected, len(users)),
    )


def compare_policies(
    baseline: LogFrame, alternative: LogFrame
) -> dict[str, tuple[float, float]]:
    """Index-by-index comparison of two policy runs.

    Returns {index name: (baseline value, alternative value)} — the
    shape the what-if experiments report.
    """
    a = censorship_economics(baseline)
    b = censorship_economics(alternative)
    return {
        "collateral_index_pct": (a.collateral_index_pct, b.collateral_index_pct),
        "precision_index_pct": (a.precision_index_pct, b.precision_index_pct),
        "stealth_index_pct": (a.stealth_index_pct, b.stealth_index_pct),
    }
