"""The regime-profile abstraction.

A :class:`RegimeProfile` bundles everything one censorship deployment
needs to run through the shared pipeline: how to build the workload,
how to turn that workload's ground truth into a policy, which
appliance model filters the traffic (a caching proxy fleet, a single
gateway that logs DNS injection or RST teardown — anything satisfying
:class:`ApplianceFleet`), and how to re-derive the deployed rules from
the logs the appliances emit.

The registry maps regime names (``ScenarioConfig.regime``,
``--regime``) to profiles.  Registering a new regime is additive: the
engine, the checkpoint ledger, the batch path, and ``repro compare``
pick it up by name without modification.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

if TYPE_CHECKING:  # imported for annotations only — keeps this module light
    import numpy as np

    from repro.frame import LogFrame
    from repro.frame.batch import RecordBatch
    from repro.traffic import RequestBatch
    from repro.workload import ScenarioConfig, TrafficGenerator


@runtime_checkable
class ApplianceFleet(Protocol):
    """What the engine requires of a regime's filtering layer.

    ``process_batch`` filters a chunk of a day's requests into its log
    columns; *rng* is the shard's dedicated fleet stream.  The fleet
    stage hands it the day's :class:`~repro.traffic.RequestBatch` in
    chunks of ``batch_size``, so the fleet must draw the same values
    however the stream is chunked.  The shipped fleets take a fixed
    number of uniforms per request: the Syrian
    :class:`~repro.proxy.fleet.ProxyFleet` ten (fleet stream v2), the
    Pakistan and Turkmenistan :class:`~repro.regimes.gateway.Gateway`
    six (gateway stream 3).
    """

    def process_batch(
        self, requests: "RequestBatch", rng: "np.random.Generator"
    ) -> "RecordBatch": ...


@dataclass(frozen=True)
class RuleRecovery:
    """One recovered rule set scored against the deployed ground truth.

    ``recovered`` is what the regime's recovery analysis re-derived
    from the logs alone; ``truth`` is the rule set the policy actually
    deployed.  Precision/recall follow the usual definitions, with the
    empty-set conventions that make small smoke workloads well-defined
    (no recoveries → precision 1.0; no truth → recall 1.0).
    """

    kind: str
    recovered: tuple[str, ...]
    truth: tuple[str, ...]

    @property
    def true_positives(self) -> int:
        return len(set(self.recovered) & set(self.truth))

    @property
    def precision(self) -> float:
        if not self.recovered:
            return 1.0
        return self.true_positives / len(set(self.recovered))

    @property
    def recall(self) -> float:
        if not self.truth:
            return 1.0
        return self.true_positives / len(set(self.truth))


@dataclass(frozen=True)
class RegimeProfile:
    """One registered censorship deployment.

    The four bundled capabilities:

    ``build_workload``
        :class:`~repro.workload.ScenarioConfig` → traffic generator —
        the regime's traffic-mixture spec (most regimes share the
        canonical generator so ``repro compare`` can hold the workload
        fixed across regimes).
    ``build_policy``
        generator → the regime's policy object (any type; the fleet
        and the recovery own its interpretation).
    ``build_fleet``
        policy → an :class:`ApplianceFleet`; ``fleet_stream`` is the
        version of that fleet's random-stream layout, a facet of the
        run fingerprints, so a ledger written under another layout
        never resumes.
    ``recover_rules``
        (D_full frame, policy) → scored :class:`RuleRecovery` rows —
        the Section 5.4-style analysis that re-derives the regime's
        rules from its own logs.

    ``censor_exceptions`` names the verdict signatures this regime
    emits; every id must be a member of
    :data:`repro.logmodel.classify.CENSOR_EXCEPTIONS` so the shared
    classification, masks, and streaming accumulators count it.
    """

    name: str
    description: str
    mechanisms: tuple[str, ...]
    censor_exceptions: frozenset[str]
    build_workload: Callable[["ScenarioConfig"], "TrafficGenerator"]
    build_policy: Callable[["TrafficGenerator"], Any]
    build_fleet: Callable[[Any], ApplianceFleet]
    fleet_stream: int
    recover_rules: Callable[["LogFrame", Any], tuple[RuleRecovery, ...]]


class UnknownRegimeError(ValueError):
    """Raised for a regime name with no registered profile."""


_REGISTRY: dict[str, RegimeProfile] = {}


def register_regime(profile: RegimeProfile, replace: bool = False) -> RegimeProfile:
    """Add *profile* to the registry (idempotent re-registration of
    the same object is allowed; silently replacing a different profile
    under an existing name is not, unless ``replace=True``)."""
    existing = _REGISTRY.get(profile.name)
    if existing is not None and existing is not profile and not replace:
        raise ValueError(
            f"regime {profile.name!r} is already registered; pass "
            "replace=True to override it"
        )
    _REGISTRY[profile.name] = profile
    return profile


def get_regime(name: str) -> RegimeProfile:
    """Look up a registered profile by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownRegimeError(
            f"unknown regime {name!r}; registered regimes: "
            f"{', '.join(available_regimes())}"
        ) from None


def available_regimes() -> tuple[str, ...]:
    """The registered regime names, sorted."""
    return tuple(sorted(_REGISTRY))
