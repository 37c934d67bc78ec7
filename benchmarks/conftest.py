"""Benchmark fixtures.

Four session-scoped scenarios:

* ``bench_scenario`` — the main deployment most benches analyze: the
  scenario ``repro report`` builds (default boosts, July days ×12);
* ``social_scenario`` — redirect-target traffic boosted hard, for the
  Table 7/14 benches whose subject is a few thousand requests out of
  751 M in the paper;
* ``ip_scenario`` — raw-IP traffic boosted, for the Table 11/12
  benches;
* ``unboosted_scenario`` — the paper's true proportions, for the
  ablations.

Scale via the REPRO_BENCH_SCALE environment variable (total requests
of the main scenario; default 200000).
"""

from __future__ import annotations

import os

import pytest

from repro.datasets import build_scenario
from repro.workload.config import DEFAULT_BOOSTS, ScenarioConfig, report_config

BENCH_SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "200000"))


@pytest.fixture(scope="session")
def bench_scenario():
    """What ``repro report --requests BENCH_SCALE --seed 2014`` builds."""
    return build_scenario(report_config(BENCH_SCALE, seed=2014))


@pytest.fixture(scope="session")
def social_scenario():
    config = ScenarioConfig(
        total_requests=max(BENCH_SCALE // 3, 30_000),
        seed=2015,
        boosts=dict(DEFAULT_BOOSTS) | {"redirect-targets": 600.0},
    )
    return build_scenario(config)


@pytest.fixture(scope="session")
def ip_scenario():
    config = ScenarioConfig(
        total_requests=max(BENCH_SCALE // 3, 30_000),
        seed=2016,
        boosts=dict(DEFAULT_BOOSTS) | {"iphosts": 60.0},
    )
    return build_scenario(config)


@pytest.fixture(scope="session")
def unboosted_scenario():
    """True paper proportions, no boosts — used by the ablations."""
    config = ScenarioConfig(
        total_requests=BENCH_SCALE,
        seed=2017,
        boosts={},
    )
    return build_scenario(config)
