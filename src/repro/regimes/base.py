"""The regime-profile abstraction.

A :class:`RegimeProfile` bundles everything one censorship deployment
needs to run through the shared pipeline: how to build the workload,
how to turn that workload's ground truth into a policy, which
appliance model filters the traffic (a caching proxy fleet, a DNS
injector, a bidirectional-RST DPI box — anything satisfying
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
    from repro.logmodel.record import LogRecord
    from repro.traffic import Request
    from repro.workload import ScenarioConfig, TrafficGenerator


@runtime_checkable
class ApplianceFleet(Protocol):
    """What the engine requires of a regime's filtering layer.

    One request in, one log record out; *rng* is the shard's dedicated
    fleet stream.  A fleet may also offer ``process_batch(requests,
    rng) -> RecordBatch``; the fleet stage then hands it the day's
    :class:`~repro.traffic.RequestBatch` in chunks, so the fleet must
    draw the same values however the stream is chunked (and
    ``process`` must equal a one-request ``process_batch``).
    :class:`~repro.proxy.fleet.ProxyFleet` and the single
    :class:`~repro.proxy.sg9000.SG9000` do, on fleet stream v2 (ten
    uniforms per request); a fleet without ``process_batch`` — the
    Pakistan and Turkmenistan ones — is called once per request, in
    stream order.
    """

    def process(
        self, request: "Request", rng: "np.random.Generator"
    ) -> "LogRecord": ...


#: Status codes for network-error exceptions, shared by appliance
#: models that inject errors via :class:`~repro.policy.errors.
#: ErrorModel` (same vocabulary as the SG-9000's SGOS conventions).
STATUS_BY_ERROR_EXCEPTION: dict[str, int] = {
    "tcp_error": 503,
    "internal_error": 500,
    "invalid_request": 400,
    "unsupported_protocol": 501,
    "dns_unresolved_hostname": 503,
    "dns_server_failure": 503,
    "unsupported_encoding": 415,
    "invalid_response": 502,
}


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
        policy → an :class:`ApplianceFleet`.
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
