"""Group-by aggregation for :class:`~repro.frame.logframe.LogFrame`.

Implemented over the frame's cached column codes
(:meth:`~repro.frame.logframe.LogFrame.factorize`) + ``np.bincount``,
which keeps group-bys over millions of rows in vectorized numpy code.
"""

from __future__ import annotations

import numpy as np

from repro.frame.logframe import LogFrame, top_counts


class GroupBy:
    """Lazy group-by over one key column."""

    def __init__(self, frame: LogFrame, key: str):
        self._frame = frame
        self._key = key
        self._groups, self._inverse = frame.factorize(key)

    @property
    def groups(self) -> np.ndarray:
        """The distinct key values, in sorted order."""
        return self._groups

    def count(self) -> dict[object, int]:
        """Rows per group."""
        counts = np.bincount(self._inverse, minlength=len(self._groups))
        return {group: int(count) for group, count in zip(self._groups, counts)}

    def sum(self, column: str) -> dict[object, float]:
        """Per-group sum of a numeric column."""
        values = np.asarray(self._frame.col(column), dtype=float)
        sums = np.bincount(self._inverse, weights=values, minlength=len(self._groups))
        return {group: float(total) for group, total in zip(self._groups, sums)}

    def count_where(self, mask: np.ndarray) -> dict[object, int]:
        """Rows per group that satisfy *mask* (a frame-length boolean)."""
        if len(mask) != len(self._frame):
            raise ValueError("mask length mismatch")
        counts = np.bincount(
            self._inverse, weights=mask.astype(float), minlength=len(self._groups)
        )
        return {group: int(count) for group, count in zip(self._groups, counts)}

    def mean(self, column: str) -> dict[object, float]:
        """Per-group mean of a numeric column."""
        sums = self.sum(column)
        counts = self.count()
        return {group: sums[group] / counts[group] for group in sums}

    def min(self, column: str) -> dict[object, float]:
        """Per-group minimum of a numeric column."""
        return self._extreme(column, np.minimum, np.inf)

    def max(self, column: str) -> dict[object, float]:
        """Per-group maximum of a numeric column."""
        return self._extreme(column, np.maximum, -np.inf)

    def _extreme(self, column: str, op, identity: float) -> dict[object, float]:
        values = np.asarray(self._frame.col(column), dtype=float)
        out = np.full(len(self._groups), identity)
        op.at(out, self._inverse, values)
        return {group: float(v) for group, v in zip(self._groups, out)}

    def nunique(self, column: str) -> dict[object, int]:
        """Per-group distinct count of another column."""
        # Deduplicate (group, value) pairs, then count pairs per group.
        _, value_codes = self._frame.factorize(column)
        width = int(value_codes.max()) + 1 if len(value_codes) else 1
        pairs = self._inverse.astype(np.int64) * width + value_codes
        unique_pairs = np.unique(pairs)
        group_of_pair = unique_pairs // width
        counts = np.bincount(group_of_pair, minlength=len(self._groups))
        return {group: int(count) for group, count in zip(self._groups, counts)}

    def indices(self) -> dict[object, np.ndarray]:
        """Per-group row indices into the source frame."""
        order = np.argsort(self._inverse, kind="stable")
        sorted_inverse = self._inverse[order]
        boundaries = np.searchsorted(sorted_inverse, np.arange(len(self._groups) + 1))
        return {
            group: order[boundaries[i]: boundaries[i + 1]]
            for i, group in enumerate(self._groups)
        }

    def frames(self) -> dict[object, LogFrame]:
        """Materialize one sub-frame per group (small group counts only)."""
        return {
            group: self._frame.take(rows) for group, rows in self.indices().items()
        }

    def top(self, n: int) -> list[tuple[object, int]]:
        """The *n* largest groups by row count, ties broken by key."""
        return top_counts(self._groups, self._inverse, n)
