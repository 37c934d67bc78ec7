"""Dataset construction (Section 3.3 of the paper).

Builds the four datasets the paper analyzes from one simulated
scenario:

* ``D_full`` — every log record;
* ``D_sample`` — a 4 % uniform random sample of D_full;
* ``D_user`` — the July 22–23 slice, whose client addresses the
  release hashed instead of zeroing;
* ``D_denied`` — all records with a non-dash exception id.

The builder is the sharded engine's
(:func:`repro.engine.simulate.build_scenario`); it is imported on first
use, because the engine itself imports this package.
"""

from repro.datasets.builder import ScenarioDatasets
from repro.datasets.sampling import proportion_confidence_interval

__all__ = ["ScenarioDatasets", "build_scenario", "proportion_confidence_interval"]


def __getattr__(name: str):
    if name == "build_scenario":
        from repro.engine.simulate import build_scenario

        return build_scenario
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
