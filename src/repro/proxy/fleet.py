"""The seven-proxy deployment.

The paper's Section 5.2 shows load fairly balanced across proxies,
with evidence of *domain-based redirection*: more than 95 % of
metacafe.com requests are processed by SG-48, SG-44 alone censors Tor,
and the proxies fall into similarity clusters (Table 6).  The fleet
model reproduces this: uniform balancing by default, with per-domain
routing overrides, per-proxy category naming, and day-dependent
availability (July days exist only for SG-42).

The fleet filters requests a chunk at a time (:meth:`ProxyFleet.
process_batch`): routing is vectorized over the chunk, and each
request's log fields are computed with its appliance's configuration
in one columnar pass.  Every request consumes exactly ten uniforms of the
fleet rng (fleet stream v2, see :mod:`repro.proxy.sg9000`), so the
output does not depend on how the stream is chunked.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

import numpy as np

from repro.frame.batch import RecordBatch
from repro.logmodel.classify import NO_EXCEPTION
from repro.logmodel.fields import PROXY_NAMES
from repro.logmodel.record import LogRecord
from repro.metrics import current_registry
from repro.net.url import registered_domain
from repro.policy.cache import CacheModel
from repro.policy.errors import (
    ErrorModel,
    TOR_ERROR_RATES,
    USER_SLICE_ERROR_RATES,
)
from repro.policy.syria import SyrianPolicy
from repro.proxy.sg9000 import (
    CACHE_U,
    ROUTE_IDX,
    ROUTE_U,
    SG9000,
    CategoryNaming,
    draw_uniforms,
    filter_requests,
    identity_codes,
)
from repro.timeline import SG42_ONLY_DAYS, USER_SLICE_DAYS, day_span
from repro.traffic import Request, RequestBatch

#: Proxies that log the default category as ``none`` (the paper finds
#: this configuration on SG-43 and SG-48 only).
_NONE_LABEL_PROXIES = frozenset({"SG-43", "SG-48"})

#: Default domain-based routing overrides: registered domain ->
#: list of (proxy, probability); residual probability is balanced
#: uniformly.  Calibrated to reproduce Table 6's similarity structure.
DEFAULT_ROUTING_OVERRIDES: dict[str, tuple[tuple[str, float], ...]] = {
    "metacafe.com": (("SG-48", 0.95), ("SG-45", 0.04)),
    "skype.com": (("SG-48", 0.60), ("SG-45", 0.10)),
    "trafficholder.com": (("SG-47", 0.90),),
    "conduitapps.com": (("SG-47", 0.85),),
    "hotsptshld.com": (("SG-47", 0.85),),
    "live.com": (("SG-42", 0.40),),
}


class RoutingPolicy:
    """Chooses the appliance for a request."""

    def __init__(
        self,
        overrides: dict[str, tuple[tuple[str, float], ...]] | None = None,
        proxies: Iterable[str] = PROXY_NAMES,
    ):
        self.proxies = tuple(proxies)
        self.overrides = dict(
            DEFAULT_ROUTING_OVERRIDES if overrides is None else overrides
        )
        for domain, targets in self.overrides.items():
            total = sum(share for _, share in targets)
            if total > 1.0 + 1e-9:
                raise ValueError(f"override shares for {domain} exceed 1: {total}")
        self._target_index = {
            domain: index for index, domain in enumerate(self.overrides)
        }
        self._targets = list(self.overrides.values())

    def route(
        self,
        request: Request,
        active: tuple[str, ...],
        rng: np.random.Generator,
    ) -> str:
        """Pick the proxy that handles *request* (two uniforms)."""
        share_u, index_u = rng.random(2)
        index = self.assign(
            np.array([request.host], dtype=object), active,
            np.array([share_u]), np.array([index_u]),
        )
        return active[int(index[0])]

    def assign(
        self,
        hosts: np.ndarray,
        active: tuple[str, ...],
        share_u: np.ndarray,
        index_u: np.ndarray,
    ) -> np.ndarray:
        """The index into *active* of each request's proxy.

        A request whose registered domain has overrides goes to the
        first active target whose cumulative share exceeds its
        *share_u*; every other request is balanced uniformly by
        *index_u*.
        """
        choice = (index_u * len(active)).astype(np.intp)
        if len(active) == 1 or not self.overrides:
            return choice
        host_list = hosts.tolist()
        target_of = {
            host: self._target_index.get(registered_domain(host), -1)
            for host in dict.fromkeys(host_list)
        }
        targets = np.fromiter(
            map(target_of.__getitem__, host_list), dtype=np.intp,
            count=len(host_list),
        )
        for target in sorted(set(target_of.values()) - {-1}):
            rows = np.flatnonzero(targets == target)
            draws = share_u[rows]
            chosen = np.full(len(rows), -1, dtype=np.intp)
            cumulative = 0.0
            for proxy, share in self._targets[target]:
                cumulative += share
                if proxy in active:
                    chosen[(chosen < 0) & (draws < cumulative)] = (
                        active.index(proxy)
                    )
            choice[rows] = np.where(chosen >= 0, chosen, choice[rows])
        return choice


class ProxyFleet:
    """The deployed fleet: routing + seven configured appliances."""

    def __init__(
        self,
        policy: SyrianPolicy,
        routing: RoutingPolicy | None = None,
        cache: CacheModel | None = None,
        error_model: ErrorModel | None = None,
    ):
        self.policy = policy
        self.routing = routing or RoutingPolicy()
        cache = cache or CacheModel()
        base_errors = error_model or ErrorModel()
        component_errors = {
            "tor-onion": ErrorModel(TOR_ERROR_RATES),
            "tor-http": ErrorModel(TOR_ERROR_RATES),
        }
        self.proxies: dict[str, SG9000] = {}
        for name in PROXY_NAMES:
            naming = (
                CategoryNaming("none", "Blocked sites")
                if name in _NONE_LABEL_PROXIES
                else CategoryNaming("unavailable", "Blocked sites; unavailable")
            )
            self.proxies[name] = SG9000(
                name,
                policy.engine_for(name),
                cache=cache,
                error_model=base_errors,
                component_error_models=component_errors,
                naming=naming,
            )
        user_slice_errors = ErrorModel(USER_SLICE_ERROR_RATES)
        self._user_slice_proxies = {
            name: SG9000(
                name,
                proxy.engine,
                cache=proxy.cache,
                error_model=user_slice_errors,
                component_error_models=proxy.component_error_models,
                naming=proxy.naming,
            )
            for name, proxy in self.proxies.items()
        }
        # Appliance codes: PROXY_NAMES order, then the user-slice
        # variants in the same order.
        self._appliances = [
            *self.proxies.values(), *self._user_slice_proxies.values()
        ]
        self._sg42_spans = [day_span(day) for day in SG42_ONLY_DAYS]
        self._user_spans = [day_span(day) for day in USER_SLICE_DAYS]

    def active_proxies(self, epoch: int) -> tuple[str, ...]:
        """Proxies whose logs exist at *epoch* (July = SG-42 only)."""
        for start, end in self._sg42_spans:
            if start <= epoch < end:
                return ("SG-42",)
        return PROXY_NAMES

    def process(self, request: Request, rng: np.random.Generator) -> LogRecord:
        """Route and filter one request (a one-row :meth:`process_batch`)."""
        return self.process_batch(
            RequestBatch.from_requests([request]), rng
        ).to_records()[0]

    def process_all(
        self,
        requests: RequestBatch | Iterable[Request],
        rng: np.random.Generator,
    ) -> list[LogRecord]:
        """Filter a request stream (a batch, or requests)."""
        if not isinstance(requests, RequestBatch):
            requests = RequestBatch.from_requests(requests)
        return self.process_batch(requests, rng).to_records()

    def process_batch(
        self, requests: RequestBatch, rng: np.random.Generator
    ) -> RecordBatch:
        """Route and filter a chunk of requests, in stream order.

        Draws ten uniforms per request.  Routing picks each request's
        appliance; cache lookups then run per cache object in stream
        order (the appliances share one cache), and
        :func:`~repro.proxy.sg9000.filter_requests` emits the columns.
        """
        if not len(requests):
            return RecordBatch.empty()
        columns = requests.columns
        uniforms = draw_uniforms(rng, len(requests))
        appliance = self._route(columns, uniforms)
        cached = self._lookup_caches(appliance, columns, uniforms[:, CACHE_U])

        batch = RecordBatch(filter_requests(
            self._appliances, appliance, columns, uniforms, cached
        ))
        registry = current_registry()
        if registry is not None:
            registry.inc("fleet.requests", len(batch))
            for name, count in Counter(
                batch.col("sc_filter_result").tolist()
            ).items():
                registry.inc("fleet.verdict." + name, count)
            for name, count in Counter(
                batch.col("x_exception_id").tolist()
            ).items():
                if name != NO_EXCEPTION:
                    registry.inc("fleet.exception." + name, count)
        return batch

    def _route(
        self, columns: dict[str, np.ndarray], uniforms: np.ndarray
    ) -> np.ndarray:
        """Each request's appliance code (index into ``_appliances``)."""
        epochs = columns["epoch"]
        code = self.routing.assign(
            columns["host"], PROXY_NAMES,
            uniforms[:, ROUTE_U], uniforms[:, ROUTE_IDX],
        )
        code[_within(epochs, self._sg42_spans)] = PROXY_NAMES.index("SG-42")
        # The July 22-23 slice shows a distinct error mix (Table 3's
        # D_user column): its non-Tor requests go to the variant
        # appliances carrying the user-slice error model.
        components = columns["component"]
        user_slice = _within(epochs, self._user_spans) & ~(
            (components == "tor-onion") | (components == "tor-http")
        )
        code[user_slice] += len(PROXY_NAMES)
        return code

    def _lookup_caches(
        self,
        appliance: np.ndarray,
        columns: dict[str, np.ndarray],
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """Cache hits, looked up per cache object in stream order."""
        caches: list[CacheModel] = []
        cache_code = identity_codes(
            [proxy.cache for proxy in self._appliances], caches, {}
        )
        if len(caches) == 1:
            return caches[0].lookup_many(columns, uniforms)
        cache_code = cache_code[appliance]
        cached = np.zeros(len(appliance), dtype=bool)
        for code, cache in enumerate(caches):
            rows = np.flatnonzero(cache_code == code)
            cached[rows] = cache.lookup_many(
                {name: column[rows] for name, column in columns.items()},
                uniforms[rows],
            )
        return cached


def _within(epochs: np.ndarray, spans: list[tuple[int, int]]) -> np.ndarray:
    """Mask of *epochs* inside any ``[start, end)`` span."""
    mask = np.zeros(len(epochs), dtype=bool)
    for start, end in spans:
        mask |= (epochs >= start) & (epochs < end)
    return mask
