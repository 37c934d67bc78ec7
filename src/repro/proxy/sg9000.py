"""One SG-9000 appliance, the fleet's random-stream layout, and the
log synthesis every appliance model shares.

Fleet stream v2: every request consumes exactly
``len(DRAW_COLUMNS)`` (ten) uniforms of the shard's fleet rng, drawn
row-major as ``rng.random((k, 10))`` for a chunk of *k* requests,
whichever branch the request takes.  Because ``rng.random(a * 10)``
followed by ``rng.random(b * 10)`` yields the same doubles as
``rng.random((a + b) * 10)``, any chunking of a request stream — one
request at a time included — sees the same draws, so output bytes do
not depend on the batch size.  ``docs/ARCHITECTURE.md`` ("Fleet stream
v2") has the full argument and the column table.

The regimes' :class:`~repro.regimes.gateway.Gateway` shares its status
tables, draws, request-derived columns and ``fleet.*`` counters.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.frame.batch import RecordBatch
from repro.logmodel.classify import NO_EXCEPTION
from repro.logmodel.fields import proxy_ip
from repro.logmodel.record import LogRecord
from repro.metrics import current_registry
from repro.net.url import extension_of
from repro.policy.cache import CacheModel
from repro.policy.engine import VIEW_FIELDS, PolicyEngine
from repro.policy.errors import ErrorModel
from repro.policy.rules import Action
from repro.traffic import Request, RequestBatch, constant_column

#: Version of the fleet's random-stream layout; part of the run
#: fingerprint, so a ledger written under another layout never resumes.
FLEET_STREAM = 2

#: The uniforms each request consumes, one column per purpose.
DRAW_COLUMNS = (
    "route_u", "route_idx", "err_u", "cache_u", "clear_u",
    "status_u", "bm_u1", "bm_u2", "err_bytes_u", "cs_bytes_u",
)
(
    ROUTE_U, ROUTE_IDX, ERR_U, CACHE_U, CLEAR_U,
    STATUS_U, BM_U1, BM_U2, ERR_BYTES_U, CS_BYTES_U,
) = range(len(DRAW_COLUMNS))


def draw_uniforms(rng: np.random.Generator, count: int) -> np.ndarray:
    """The ``(count, 10)`` fleet-stream draws for *count* requests."""
    return rng.random((count, len(DRAW_COLUMNS)))


@dataclass(frozen=True, slots=True)
class CategoryNaming:
    """Per-proxy category labels.

    The paper observes two configurations: five proxies log the default
    category as ``unavailable`` and the custom one as
    ``Blocked sites; unavailable``; SG-43 and SG-48 log ``none`` and
    ``Blocked sites`` instead (Sections 4 and 5.2).
    """

    default_label: str = "unavailable"
    custom_label: str = "Blocked sites; unavailable"

    def label(self, custom_category: str | None) -> str:
        return self.custom_label if custom_category else self.default_label


#: Status code per network-error exception id (SGOS conventions), for
#: every appliance model that injects errors via :class:`~repro.policy.
#: errors.ErrorModel`; an unlisted id logs 503.
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

# Status code per exception id an SG-9000 logs.
_STATUS_BY_EXCEPTION = {
    "policy_denied": 403,
    "policy_redirect": 302,
    **STATUS_BY_ERROR_EXCEPTION,
}

_ALLOWED_STATUSES = np.array((200, 304, 302, 404), dtype=np.int64)
_ALLOWED_STATUS_CUMULATIVE = np.cumsum((0.82, 0.11, 0.04, 0.03))


def allowed_status(uniforms: np.ndarray) -> np.ndarray:
    """The status code of an allowed response (200/304/302/404), one
    per uniform."""
    return _ALLOWED_STATUSES[np.minimum(
        np.searchsorted(_ALLOWED_STATUS_CUMULATIVE, uniforms, side="right"),
        len(_ALLOWED_STATUSES) - 1,
    )]


def lognormal_sizes(
    u1: np.ndarray, u2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``sc-bytes`` of an allowed response and ``time-taken``, from one
    Box–Muller standard-normal pair per request (two uniforms each;
    ``1 - u1`` keeps the log finite)."""
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return (
        np.exp(8.0 + 1.3 * radius * np.cos(angle)).astype(np.int64),
        np.exp(4.5 + radius * np.sin(angle)).astype(np.int64),
    )


def uniform_ints(uniforms: np.ndarray, low, high) -> np.ndarray:
    """Each uniform mapped onto the integers ``[low, high)``."""
    return low + (uniforms * (high - low)).astype(np.int64)


def request_log_columns(
    columns: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """The log columns a record takes from its request alone (a
    ``CONNECT`` logs ``-`` for path and query and no extension), and
    the identity fields no appliance model fills."""
    methods = columns["method"]
    connect = methods == "CONNECT"
    paths = columns["path"]
    path_list = paths.tolist()
    extensions = {path: extension_of(path) for path in set(path_list)}
    cs_uri_ext = np.array(
        [extensions[path] for path in path_list], dtype=object
    )
    cs_uri_ext[connect] = ""
    cs_uri_path = paths.copy()
    cs_uri_path[connect] = "-"
    cs_uri_query = columns["query"].copy()
    cs_uri_query[connect] = "-"
    unset = constant_column("-", len(methods))
    return {
        "epoch": columns["epoch"],
        "c_ip": columns["c_ip"],
        "cs_host": columns["host"],
        "cs_uri_scheme": columns["scheme"],
        "cs_uri_port": columns["port"],
        "cs_uri_path": cs_uri_path,
        "cs_uri_query": cs_uri_query,
        "cs_uri_ext": cs_uri_ext,
        "cs_method": methods,
        "cs_user_agent": columns["user_agent"],
        "cs_referer": columns["referer"],
        "cs_username": unset,
        "cs_auth_group": unset,
        "x_virus_id": unset,
    }


def count_fleet_records(batch: RecordBatch) -> None:
    """Add a filtered chunk to the ``fleet.requests``,
    ``fleet.verdict.*`` and ``fleet.exception.*`` counters."""
    registry = current_registry()
    if registry is None:
        return
    registry.inc("fleet.requests", len(batch))
    for name, count in Counter(batch.col("sc_filter_result").tolist()).items():
        registry.inc("fleet.verdict." + name, count)
    for name, count in Counter(batch.col("x_exception_id").tolist()).items():
        if name != NO_EXCEPTION:
            registry.inc("fleet.exception." + name, count)


_FILTER_RESULTS = np.array(["DENIED", "OBSERVED", "PROXIED"], dtype=object)
_S_ACTIONS = np.array(
    ["TCP_ERR_MISS", "TCP_DENIED", "TCP_POLICY_REDIRECT", "TCP_NC_MISS",
     "TCP_TUNNELED", "TCP_HIT"],
    dtype=object,
)


class SG9000:
    """One filtering appliance.

    :meth:`process_batch` turns a
    :class:`~repro.traffic.RequestBatch` into the log columns the
    appliance would emit: policy first, then (for allowed requests)
    error injection, then the cache layer, then log-field synthesis.
    :meth:`process` is the one-request case of the same code.
    """

    def __init__(
        self,
        name: str,
        engine: PolicyEngine,
        cache: CacheModel | None = None,
        error_model: ErrorModel | None = None,
        component_error_models: dict[str, ErrorModel] | None = None,
        naming: CategoryNaming | None = None,
    ):
        if not name.startswith("SG-"):
            raise ValueError(f"proxy names look like SG-42; got {name!r}")
        self.name = name
        self.s_ip = proxy_ip(int(name.split("-")[1]))
        self.engine = engine
        self.cache = cache or CacheModel()
        self.error_model = error_model or ErrorModel()
        self.component_error_models = dict(component_error_models or {})
        self.naming = naming or CategoryNaming()

    def process(self, request: Request, rng: np.random.Generator) -> LogRecord:
        """Filter one request and emit its log record."""
        return self.process_batch(
            RequestBatch.from_requests([request]), rng
        ).to_records()[0]

    def process_batch(
        self, requests: RequestBatch, rng: np.random.Generator
    ) -> RecordBatch:
        """Filter a chunk of requests; draws ten uniforms per request."""
        columns = requests.columns
        uniforms = draw_uniforms(rng, len(requests))
        cached = self.cache.lookup_many(columns, uniforms[:, CACHE_U])
        return RecordBatch(filter_requests(
            [self], np.zeros(len(requests), dtype=np.intp),
            columns, uniforms, cached,
        ))


def _per_appliance(values: list, appliance: np.ndarray) -> np.ndarray:
    """Broadcast one value per appliance to one value per request."""
    return np.array(values, dtype=object)[appliance]


def identity_codes(
    objects: list, distinct: list, index_of: dict[int, int]
) -> np.ndarray:
    """Each of *objects*' index in *distinct*, compared by identity;
    objects not seen yet are appended (*index_of* maps ``id`` to
    index)."""
    for obj in objects:
        if index_of.setdefault(id(obj), len(distinct)) == len(distinct):
            distinct.append(obj)
    return np.array([index_of[id(obj)] for obj in objects], dtype=np.intp)


def filter_requests(
    appliances: Sequence[SG9000],
    appliance: np.ndarray,
    columns: dict[str, np.ndarray],
    uniforms: np.ndarray,
    cached: np.ndarray,
) -> dict[str, np.ndarray]:
    """The log columns a chunk of requests produces.

    Request *i* is handled by ``appliances[appliance[i]]``, consumes
    the fleet-stream row ``uniforms[i]`` and has the cache verdict
    ``cached[i]`` (looked up by the caller: a cache shared by several
    appliances must see its lookups in stream order).  Policy runs
    once per distinct engine over its requests, error injection once
    per distinct error model; everything else is column arithmetic.
    """
    count = len(appliance)
    registry = current_registry()
    if registry is not None:
        for code, requests in enumerate(
            np.bincount(appliance, minlength=len(appliances)).tolist()
        ):
            if requests:
                registry.inc("proxy.requests." + appliances[code].name, requests)

    verdict_of = np.empty(count, dtype=np.intp)
    verdicts: list = []
    engines: list[PolicyEngine] = []
    engine_code = identity_codes([a.engine for a in appliances], engines, {})
    for code, engine in enumerate(engines):
        rows = (
            slice(None) if len(engines) == 1
            else np.flatnonzero(engine_code[appliance] == code)
        )
        codes, found = engine.evaluate_columns(
            {field: columns[field][rows] for field in VIEW_FIELDS}
        )
        verdict_of[rows] = codes + len(verdicts)
        verdicts.extend(found)

    def per_verdict(values: list, dtype=bool) -> np.ndarray:
        return np.array(values, dtype=dtype)[verdict_of]

    exception = per_verdict([v.exception_id for v in verdicts], object)
    allowed = per_verdict([v.action is Action.ALLOW for v in verdicts])
    redirected = per_verdict([
        v.action is Action.REDIRECT and v.exception_id == "policy_redirect"
        for v in verdicts
    ])
    policy_denied = per_verdict(
        [v.exception_id == "policy_denied" for v in verdicts]
    )
    passed = per_verdict([v.exception_id == "-" for v in verdicts])
    custom = per_verdict([bool(v.category) for v in verdicts])

    failed = _inject_errors(
        appliances, appliance, exception, allowed,
        columns["component"], uniforms[:, ERR_U],
    )
    observed = passed & ~failed
    # The paper's PROXIED inconsistency: a cached, censored request
    # whose log line carries no exception id.
    clear_share = np.array(
        [a.cache.clear_exception_share for a in appliances]
    )[appliance]
    cleared = cached & ~observed & (uniforms[:, CLEAR_U] < clear_share)
    exception[cleared] = "-"
    observed |= cleared
    denied = np.flatnonzero(~observed)
    status = allowed_status(uniforms[:, STATUS_U])
    status[denied] = [
        _STATUS_BY_EXCEPTION.get(name, 503)
        for name in exception[denied].tolist()
    ]
    served_bytes, time_taken = lognormal_sizes(
        uniforms[:, BM_U1], uniforms[:, BM_U2]
    )
    sc_bytes = np.where(
        observed, served_bytes, uniform_ints(uniforms[:, ERR_BYTES_U], 0, 700)
    )

    connect = columns["method"] == "CONNECT"
    filter_result = _FILTER_RESULTS[
        np.where(cached, 2, observed.astype(np.intp))
    ]
    s_action = _S_ACTIONS[np.select(
        [
            cached,
            observed & connect,
            observed,
            redirected,
            policy_denied,
        ],
        [5, 4, 3, 2, 1],
        default=0,
    )]
    categories = np.where(
        custom,
        _per_appliance([a.naming.custom_label for a in appliances], appliance),
        _per_appliance([a.naming.default_label for a in appliances], appliance),
    )

    content_type = columns["content_type"].copy()
    content_type[denied] = "-"
    supplier = columns["host"].copy()
    supplier[denied] = "-"
    return {
        **request_log_columns(columns),
        "s_ip": _per_appliance([a.s_ip for a in appliances], appliance),
        "sc_filter_result": filter_result,
        "x_exception_id": exception,
        "cs_categories": categories,
        "sc_status": status,
        "s_action": s_action,
        "rs_content_type": content_type,
        "time_taken": time_taken,
        "sc_bytes": sc_bytes,
        "cs_bytes": uniform_ints(uniforms[:, CS_BYTES_U], 200, 900),
        "s_supplier_name": supplier,
    }


def _inject_errors(
    appliances: Sequence[SG9000],
    appliance: np.ndarray,
    exception: np.ndarray,
    allowed: np.ndarray,
    components: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Overwrite *exception* in place with the network error each
    allowed request draws from its appliance's model for its traffic
    component; returns the mask of requests that failed."""
    models: list[ErrorModel] = []
    index_of: dict[int, int] = {}
    row_model = identity_codes(
        [a.error_model for a in appliances], models, index_of
    )[appliance]
    overridden = {
        component
        for a in appliances for component in a.component_error_models
    }
    for component in overridden:
        rows = np.flatnonzero(components == component)
        if len(rows):
            row_model[rows] = identity_codes(
                [
                    a.component_error_models.get(component, a.error_model)
                    for a in appliances
                ],
                models, index_of,
            )[appliance[rows]]
    failed = np.zeros(len(exception), dtype=bool)
    for code, model in enumerate(models):
        rows = np.flatnonzero(allowed & (row_model == code))
        if not len(rows):
            continue
        outcomes = model.outcomes(uniforms[rows])
        hit = np.not_equal(outcomes, None)
        exception[rows[hit]] = outcomes[hit]
        failed[rows[hit]] = True
    return failed
