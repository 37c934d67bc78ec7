"""The single-chokepoint gateway of the Pakistan and Turkmenistan regimes.

Both regimes filter at one inline appliance with no cache and no
category layer, and differ only in how a censored request is logged:
one :class:`Gateway` serves both, configured with a table of the
regime's censor :class:`Signature` rows.

Gateway stream 3: every request consumes exactly six uniforms
(:data:`DRAW_COLUMNS`) of the shard's fleet rng, drawn row-major as
``rng.random((k, 6))`` for a chunk of *k* requests, so — as for fleet
stream v2 (:mod:`repro.proxy.sg9000`, whose status tables and draws
it shares) — output bytes do not depend on the batch size.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.frame.batch import RecordBatch
from repro.frame.logframe import factorize
from repro.policy.engine import VIEW_FIELDS, PolicyEngine
from repro.policy.errors import ErrorModel
from repro.policy.rules import Action
from repro.proxy.sg9000 import (
    STATUS_BY_ERROR_EXCEPTION,
    allowed_status,
    count_fleet_records,
    lognormal_sizes,
    request_log_columns,
    uniform_ints,
)
from repro.traffic import RequestBatch, constant_column

#: Version of the gateway's random-stream layout: the ``fleet_stream``
#: run-fingerprint facet of every regime that deploys a gateway.
GATEWAY_STREAM = 3

#: The uniforms each request consumes, one column per purpose.
DRAW_COLUMNS = (
    "err_u", "status_u", "bm_u1", "bm_u2", "denied_bytes_u", "cs_bytes_u",
)
ERR_U, STATUS_U, BM_U1, BM_U2, DENIED_BYTES_U, CS_BYTES_U = range(
    len(DRAW_COLUMNS)
)

_OBSERVED_ACTIONS = np.array(["TCP_MISS", "TCP_TUNNELED"], dtype=object)


@dataclass(frozen=True)
class Signature:
    """How a gateway logs a denied request: its status and
    ``s-action``, ``sc-bytes`` drawn from ``[low, high)`` of
    ``denied_bytes``, and the supplier and content type."""

    status: int
    s_action: str
    denied_bytes: tuple[int, int] = (0, 0)
    supplier: str = "-"
    content_type: str = "-"


class Gateway:
    """One inline appliance (an :class:`~repro.regimes.base.
    ApplianceFleet`): policy, error injection for allowed requests,
    then log synthesis.  *signatures* maps each censor exception id to
    its :class:`Signature`; any other denied request is a network
    error."""

    def __init__(
        self,
        s_ip: str,
        engine: PolicyEngine,
        signatures: Mapping[str, Signature],
    ):
        self.s_ip = s_ip
        self.engine = engine
        self.signatures = dict(signatures)
        self.error_model = ErrorModel()

    def process_batch(
        self, requests: RequestBatch, rng: np.random.Generator
    ) -> RecordBatch:
        """Filter a chunk of requests; draws six uniforms per request."""
        count = len(requests)
        if not count:
            return RecordBatch.empty()
        columns = requests.columns
        uniforms = rng.random((count, len(DRAW_COLUMNS)))
        codes, verdicts = self.engine.evaluate_columns(
            {field: columns[field] for field in VIEW_FIELDS}
        )
        exception = np.array(
            [v.exception_id for v in verdicts], dtype=object
        )[codes]
        allowed = np.flatnonzero(
            np.array([v.action is Action.ALLOW for v in verdicts])[codes]
        )
        outcomes = self.error_model.outcomes(uniforms[allowed, ERR_U])
        failed = np.not_equal(outcomes, None)
        exception[allowed[failed]] = outcomes[failed]

        denied = np.flatnonzero(exception != "-")
        names, code = factorize(exception[denied])
        table = [
            self.signatures.get(name) or Signature(
                STATUS_BY_ERROR_EXCEPTION.get(name, 503),
                "TCP_ERR_MISS", (0, 700),
            )
            for name in names.tolist()
        ]

        def per_denied(values: list, dtype=object) -> np.ndarray:
            return np.array(values, dtype=dtype)[code]

        status = allowed_status(uniforms[:, STATUS_U])
        status[denied] = per_denied([s.status for s in table], np.int64)
        sc_bytes, time_taken = lognormal_sizes(
            uniforms[:, BM_U1], uniforms[:, BM_U2]
        )
        sc_bytes[denied] = uniform_ints(
            uniforms[denied, DENIED_BYTES_U],
            per_denied([s.denied_bytes[0] for s in table], np.int64),
            per_denied([s.denied_bytes[1] for s in table], np.int64),
        )
        filter_result = constant_column("OBSERVED", count)
        filter_result[denied] = "DENIED"
        s_action = _OBSERVED_ACTIONS[
            (columns["method"] == "CONNECT").astype(np.intp)
        ]
        s_action[denied] = per_denied([s.s_action for s in table])
        supplier = columns["host"].copy()
        supplier[denied] = per_denied([s.supplier for s in table])
        content_type = columns["content_type"].copy()
        content_type[denied] = per_denied([s.content_type for s in table])
        batch = RecordBatch({
            **request_log_columns(columns),
            "s_ip": constant_column(self.s_ip, count),
            "sc_filter_result": filter_result,
            "x_exception_id": exception,
            "cs_categories": constant_column("-", count),
            "sc_status": status,
            "s_action": s_action,
            "rs_content_type": content_type,
            "time_taken": time_taken,
            "sc_bytes": sc_bytes,
            "cs_bytes": uniform_ints(uniforms[:, CS_BYTES_U], 200, 900),
            "s_supplier_name": supplier,
        })
        count_fleet_records(batch)
        return batch
