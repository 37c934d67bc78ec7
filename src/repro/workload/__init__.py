"""Synthetic Syrian traffic generation.

The generator stands in for the Syrian user population whose traffic
the leaked logs captured.  It is organized as independent *components*
— web browsing, raw-IP destinations, Tor, BitTorrent, Facebook page
visits, Google-cache fetches — each emitting request columns
(:class:`~repro.traffic.RequestBatch`) whose volume, timing and URL
mix are calibrated to the paper's findings, on the fixed per-request
draw layout of :mod:`repro.workload.stream`.

Entry point: :class:`~repro.workload.generator.TrafficGenerator`.
"""

from repro.workload.config import DEFAULT_BOOSTS, ScenarioConfig
from repro.workload.generator import TrafficGenerator

__all__ = ["ScenarioConfig", "DEFAULT_BOOSTS", "TrafficGenerator"]
