"""End-to-end scenario build: traffic → policy → fleet → datasets.

The serial builders here run on the same fused Source → Stage → Sink
pipeline as the sharded engine: records stream generator → fleet →
anonymizer straight into columnar buffers, so a scenario build never
materializes its record list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.catalog.categories import Category
from repro.categorizer import TrustedSourceCategorizer
from repro.frame import LogFrame
from repro.pipeline import (
    AnonymizeStage,
    FleetStage,
    FrameSink,
    Pipeline,
)
from repro.regimes import ApplianceFleet, get_regime
from repro.timeline import USER_SLICE_DAYS, day_span
from repro.workload import ScenarioConfig, TrafficGenerator

DEFAULT_SAMPLE_FRACTION = 0.04


@dataclass
class ScenarioDatasets:
    """The four analysis datasets plus the scenario's ground truth."""

    full: LogFrame
    sample: LogFrame
    user: LogFrame
    denied: LogFrame
    config: ScenarioConfig
    #: the regime's policy object — :class:`~repro.policy.syria.
    #: SyrianPolicy` for the default regime, whatever the registered
    #: profile builds otherwise.
    policy: Any
    generator: TrafficGenerator
    categorizer: TrustedSourceCategorizer
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION
    records_by_day: dict[str, int] = field(default_factory=dict)

    def summary(self) -> dict[str, int]:
        """Dataset sizes, mirroring the paper's Table 1."""
        return {
            "full": len(self.full),
            "sample": len(self.sample),
            "user": len(self.user),
            "denied": len(self.denied),
        }


def _build_categorizer(generator: TrafficGenerator) -> TrustedSourceCategorizer:
    categorizer = TrustedSourceCategorizer(generator.sites)
    # Anonymizer endpoints addressed by raw IP categorize as
    # "Anonymizer" — the check the paper runs on censored addresses.
    for address in generator.blocked_anonymizer_addresses():
        categorizer.add_host(address, Category.ANONYMIZER)
    # The paper finds exactly one censored Israeli address categorized
    # as an Anonymizer host (Section 5.4).
    for pool in generator.address_pools:
        if pool.name == "il-84.229.0.0/16":
            categorizer.add_host(pool.addresses[0], Category.ANONYMIZER)
            break
    return categorizer


def assemble_datasets_from_frame(
    full: LogFrame,
    records_by_day: dict[str, int],
    config: ScenarioConfig,
    generator: TrafficGenerator,
    policy: Any,
    rng: np.random.Generator,
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
) -> ScenarioDatasets:
    """Assemble the four analysis datasets from the D_full frame.

    Shared tail of every scenario build (serial, custom-policy, and
    the sharded engine): the D_sample draw from *rng* and the
    D_user/D_denied masks.  Taking the frame (rather than records)
    keeps fused builds single-pass — a :class:`~repro.pipeline.sinks.
    FrameSink` feeds straight in.
    """
    sample = full.sample(sample_fraction, rng)
    user_spans = [day_span(day) for day in USER_SLICE_DAYS]
    user_mask = np.zeros(len(full), dtype=bool)
    epochs = full.col("epoch")
    for start, end in user_spans:
        user_mask |= (epochs >= start) & (epochs < end)
    return ScenarioDatasets(
        full=full,
        sample=sample,
        user=full.where(user_mask),
        denied=full.where(full.col("x_exception_id") != "-"),
        config=config,
        policy=policy,
        generator=generator,
        categorizer=_build_categorizer(generator),
        sample_fraction=sample_fraction,
        records_by_day=records_by_day,
    )


def simulate_scenario_frame(
    generator: TrafficGenerator,
    fleet: ApplianceFleet,
    rng: np.random.Generator,
) -> tuple[LogFrame, dict[str, int]]:
    """One fused pass over every log-day of the serial stream layout.

    Records flow generator → fleet → anonymizer → columnar buffers
    without a record list ever existing; *rng* is shared across days
    (the legacy single-stream layout, unlike the engine's per-day
    shard streams).  Returns the D_full frame and the per-day counts.
    """
    user_spans = [day_span(day) for day in USER_SLICE_DAYS]
    stages = (FleetStage(fleet, rng), AnonymizeStage(user_spans))
    sink = FrameSink()
    records_by_day: dict[str, int] = {}
    for day, requests in generator.generate():
        before = len(sink)
        Pipeline([requests], stages).run(sink)
        records_by_day[day] = len(sink) - before
    return sink.frame(), records_by_day


def build_scenario(
    config: ScenarioConfig | None = None,
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
) -> ScenarioDatasets:
    """Simulate a scenario and assemble its four datasets.

    Deterministic for a given config (all randomness flows from
    ``config.seed``); the config's regime profile supplies the
    workload, policy, and fleet.
    """
    config = config or ScenarioConfig()
    profile = get_regime(config.regime)
    generator = profile.build_workload(config)
    policy = profile.build_policy(generator)
    fleet = profile.build_fleet(policy)

    rng = np.random.default_rng(config.seed + 1000)
    full, records_by_day = simulate_scenario_frame(generator, fleet, rng)
    return assemble_datasets_from_frame(
        full, records_by_day, config, generator, policy, rng,
        sample_fraction,
    )
