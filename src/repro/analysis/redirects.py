"""Section 5.3: denied vs redirected traffic (Table 7).

``policy_redirect`` requests are redirected rather than dropped; the
paper finds only 11 hosts triggering it, dominated by
``upload.youtube.com`` and the targeted Facebook pages.  It also
checks for follow-up requests right after a redirect (finding none,
concluding the redirect target bypasses the logged proxies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import percent
from repro.frame import LogFrame, top_counts


@dataclass(frozen=True)
class RedirectHosts:
    """Table 7: hosts raising policy_redirect."""

    total_redirects: int
    rows: tuple[tuple[str, int, float], ...]  # (host, count, % of redirects)


def redirect_hosts(frame: LogFrame, top: int = 10) -> RedirectHosts:
    """Compute Table 7.

    Counts every row whose exception is ``policy_redirect`` regardless
    of filter result (the paper's Table 7 includes PROXIED rows).
    """
    mask = frame.col("x_exception_id") == "policy_redirect"
    hosts, codes = frame.factorize("cs_host")
    total = int(mask.sum())
    rows = tuple(
        (str(host), count, percent(count, total))
        for host, count in top_counts(hosts, codes[mask], top)
    )
    return RedirectHosts(total_redirects=total, rows=rows)


def followup_requests_after_redirect(
    frame: LogFrame, window_seconds: int = 2
) -> int:
    """Count requests arriving within *window_seconds* after a redirect
    from the same client (the paper's secondary-request check).

    On the released logs most client addresses are zeroed, so — like
    the paper — this is meaningful only on slices with hashed
    addresses.
    """
    redirect_mask = frame.col("x_exception_id") == "policy_redirect"
    if not redirect_mask.any():
        return 0
    epochs = frame.col("epoch")
    clients = frame.col("c_ip")
    redirect_epochs = epochs[redirect_mask]
    redirect_clients = clients[redirect_mask]
    count = 0
    # Redirects are rare (tens of rows), so a per-redirect scan over a
    # sorted-epoch index is fine.
    order = np.argsort(epochs, kind="stable")
    sorted_epochs = epochs[order]
    for r_epoch, r_client in zip(redirect_epochs, redirect_clients):
        low = np.searchsorted(sorted_epochs, r_epoch, side="right")
        high = np.searchsorted(sorted_epochs, r_epoch + window_seconds, side="right")
        window_rows = order[low:high]
        if np.any(clients[window_rows] == r_client):
            count += 1
    return count
