"""Inverse-CDF draws: weighted choices made from given uniforms.

The traffic generator's random stream (workload stream v2,
:mod:`repro.workload.stream`) draws a fixed number of uniforms per
request and turns them into choices here, with one ``searchsorted``
per column instead of a generator call per request.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def cdf(weights: Sequence[float]) -> np.ndarray:
    """The cumulative distribution of *weights* (last entry exactly 1)."""
    cumulative = np.cumsum(np.asarray(weights, dtype=float))
    cumulative /= cumulative[-1]
    cumulative[-1] = 1.0
    return cumulative


def inverse_cdf(cumulative: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The index each uniform in *u* selects from a :func:`cdf`."""
    return np.minimum(
        np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1
    )


def uniform_index(count: int, u: np.ndarray) -> np.ndarray:
    """A uniform choice among *count* items per uniform in *u*."""
    return np.minimum((u * count).astype(np.intp), count - 1)


class GroupedCdf:
    """One weighted choice per request within the request's group.

    The groups' CDFs are laid end to end, group *g*'s shifted by *g*,
    so a single ``searchsorted`` of ``g + u`` picks within group *g*
    (a rows-by-items comparison would cost memory per row).
    """

    def __init__(self, groups: Sequence[Sequence[float]]):
        sizes = [len(weights) for weights in groups]
        self.starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(
            np.intp
        )
        self.ends = self.starts + np.asarray(sizes, dtype=np.intp)
        self.flat = np.concatenate(
            [group + cdf(weights) for group, weights in enumerate(groups)]
        )

    def pick(self, groups: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The flat item index each request selects in its group."""
        found = np.searchsorted(self.flat, groups + u, side="right")
        return np.minimum(found, self.ends[groups] - 1)
