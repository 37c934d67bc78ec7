"""Section 5.2: comparing the seven proxies.

Fig. 7 — per-proxy share of total and censored traffic over time;
Table 6 — cosine similarity between the proxies' censored-domain
vectors; plus the category-label observation (``none`` vs
``unavailable`` per proxy) the paper uses as configuration evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import censored_mask, domain_column
from repro.frame import LogFrame
from repro.logmodel.fields import PROXY_NAMES, proxy_name_from_ip
from repro.stats.similarity import pairwise_cosine
from repro.timeline import day_span


def proxy_names_column(frame: LogFrame) -> np.ndarray:
    """Map ``s_ip`` to SG-NN names, vectorized over distinct values."""
    unique_ips, inverse = frame.factorize("s_ip")
    names = np.array([proxy_name_from_ip(ip) for ip in unique_ips], dtype=object)
    return names[inverse]


@dataclass(frozen=True)
class ProxyLoadTimeseries:
    """Fig. 7: per-proxy request share per time bin."""

    bin_epochs: np.ndarray
    proxies: tuple[str, ...]
    total_shares: np.ndarray  # shape (proxies, bins), percent
    censored_shares: np.ndarray  # same, censored traffic only


def proxy_load_timeseries(
    frame: LogFrame,
    start_epoch: int,
    end_epoch: int,
    bin_seconds: int = 3600,
) -> ProxyLoadTimeseries:
    """Compute Fig. 7 over [start, end)."""
    epochs = frame.col("epoch")
    in_range = (epochs >= start_epoch) & (epochs < end_epoch)
    names = proxy_names_column(frame)
    censored = censored_mask(frame)
    bins = np.arange(start_epoch, end_epoch + bin_seconds, bin_seconds)
    n_bins = len(bins) - 1

    total_counts = np.zeros((len(PROXY_NAMES), n_bins))
    censored_counts = np.zeros((len(PROXY_NAMES), n_bins))
    for i, proxy in enumerate(PROXY_NAMES):
        of_proxy = in_range & (names == proxy)
        total_counts[i], _ = np.histogram(epochs[of_proxy], bins=bins)
        censored_counts[i], _ = np.histogram(
            epochs[of_proxy & censored], bins=bins
        )

    def shares(counts: np.ndarray) -> np.ndarray:
        totals = counts.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(totals > 0, 100.0 * counts / np.maximum(totals, 1), 0.0)

    return ProxyLoadTimeseries(
        bin_epochs=bins[:-1],
        proxies=PROXY_NAMES,
        total_shares=shares(total_counts),
        censored_shares=shares(censored_counts),
    )


def censored_domain_vectors(
    frame: LogFrame, day: str | None = None
) -> dict[str, dict[str, int]]:
    """Per-proxy censored-request counts by domain (Table 6 input)."""
    mask = censored_mask(frame)
    if day is not None:
        start, end = day_span(day)
        epochs = frame.col("epoch")
        mask &= (epochs >= start) & (epochs < end)
    censored = frame.where(mask)
    names = proxy_names_column(censored)
    domains = domain_column(censored)
    vectors: dict[str, dict[str, int]] = {name: {} for name in PROXY_NAMES}
    for name, domain in zip(names, domains):
        vector = vectors[name]
        vector[domain] = vector.get(domain, 0) + 1
    return vectors


@dataclass(frozen=True)
class ProxySimilarity:
    """Table 6: the similarity matrix."""

    proxies: tuple[str, ...]
    matrix: tuple[tuple[float, ...], ...]

    def value(self, a: str, b: str) -> float:
        """Similarity between proxies *a* and *b*."""
        return self.matrix[self.proxies.index(a)][self.proxies.index(b)]


def proxy_similarity(frame: LogFrame, day: str | None = None) -> ProxySimilarity:
    """Compute Table 6 (optionally restricted to one day, as the paper
    does for 2011-08-03)."""
    vectors = censored_domain_vectors(frame, day)
    names, matrix = pairwise_cosine(vectors, order=list(PROXY_NAMES))
    return ProxySimilarity(
        proxies=tuple(names),
        matrix=tuple(tuple(row) for row in matrix),
    )


def category_labels_by_proxy(frame: LogFrame) -> dict[str, dict[str, int]]:
    """Distinct ``cs_categories`` values per proxy with counts.

    Reproduces the paper's observation that the default category is
    named ``none`` on two proxies and ``unavailable`` on the rest.
    """
    names = proxy_names_column(frame)
    labels, codes = frame.factorize("cs_categories")
    result: dict[str, dict[str, int]] = {}
    for proxy in PROXY_NAMES:
        counts = np.bincount(codes[names == proxy], minlength=len(labels))
        result[proxy] = {
            str(labels[i]): int(counts[i]) for i in np.flatnonzero(counts)
        }
    return result
