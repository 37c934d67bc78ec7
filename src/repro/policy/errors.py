"""Network-error injection model.

The paper's Table 3 breaks the denied traffic into eight network-error
exceptions.  The model injects these at calibrated per-request rates;
components with distinct error profiles (e.g. Tor OR connections,
16.2 % of which fail with TCP errors) override the default profile.
"""

from __future__ import annotations

import numpy as np

# Default per-request error probabilities, calibrated to Table 3's
# D_full column (fractions of total traffic).
DEFAULT_ERROR_RATES: dict[str, float] = {
    "tcp_error": 0.0286,
    "internal_error": 0.0196,
    "invalid_request": 0.0036,
    "unsupported_protocol": 0.0010,
    "dns_unresolved_hostname": 0.0002,
    "dns_server_failure": 0.0001,
    "unsupported_encoding": 0.0000004,
    "invalid_response": 0.00000001,
}

# Tor OR connections observed in the paper fail far more often.
TOR_ERROR_RATES: dict[str, float] = {
    "tcp_error": 0.162,
    "internal_error": 0.004,
}

# The D_user slice (proxy SG-42, July 22-23) shows a different error
# mix: fewer TCP errors, more internal errors (Table 3, D_user column).
USER_SLICE_ERROR_RATES: dict[str, float] = {
    "tcp_error": 0.0088,
    "internal_error": 0.0325,
    "invalid_request": 0.0059,
    "unsupported_protocol": 0.0002,
    "dns_unresolved_hostname": 0.0006,
    "dns_server_failure": 0.0001,
}


class ErrorModel:
    """Samples a network-error exception (or None) per request."""

    def __init__(self, rates: dict[str, float] | None = None):
        self._rates = dict(DEFAULT_ERROR_RATES if rates is None else rates)
        total = sum(self._rates.values())
        if total >= 1.0:
            raise ValueError(f"error rates sum to {total} >= 1")
        self._exceptions = list(self._rates)
        self._probabilities = np.array(
            [self._rates[e] for e in self._exceptions] + [1.0 - total]
        )
        self._outcomes = self._exceptions + [None]
        # Cumulative thresholds for a single-uniform draw: cheaper than
        # rng.choice(p=...) in the per-request hot path.
        self._cumulative = np.cumsum(self._probabilities)

    @property
    def rates(self) -> dict[str, float]:
        return dict(self._rates)

    def sample(self, rng: np.random.Generator) -> str | None:
        """One draw: an exception id, or None for no error."""
        index = int(np.searchsorted(self._cumulative, rng.random(), side="right"))
        return self._outcomes[min(index, len(self._outcomes) - 1)]

    def sample_many(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Vectorized draws (object array of exception ids / None)."""
        return self.outcomes(rng.random(count))

    def outcomes(self, uniforms: np.ndarray) -> np.ndarray:
        """The outcome each uniform in [0, 1) selects (object array of
        exception ids / None) — :meth:`sample` without the draw."""
        indices = np.minimum(
            np.searchsorted(self._cumulative, uniforms, side="right"),
            len(self._outcomes) - 1,
        )
        return np.array(self._outcomes, dtype=object)[indices]
