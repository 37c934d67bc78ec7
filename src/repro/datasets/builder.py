"""The four analysis datasets, assembled from a simulated D_full frame.

The scenario build itself — traffic → policy → fleet → frame — is the
sharded engine's :func:`repro.engine.simulate.build_scenario`; this
module holds the dataset container and the assembly tail it ends with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.catalog.categories import Category
from repro.categorizer import TrustedSourceCategorizer
from repro.frame import LogFrame
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
) -> ScenarioDatasets:
    """Assemble the four analysis datasets from the D_full frame.

    The tail of the scenario build: the 4 % D_sample draw from *rng*
    and the D_user/D_denied masks.  Taking the frame (rather than
    records) keeps the build single-pass — a :class:`~repro.pipeline.
    sinks.FrameSink` feeds straight in.
    """
    sample = full.sample(DEFAULT_SAMPLE_FRACTION, rng)
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
        records_by_day=records_by_day,
    )

