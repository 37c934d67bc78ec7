"""Ordered rule evaluation."""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.metrics import current_registry
from repro.policy.rules import (
    ALLOW_VERDICT,
    VIEW_FIELDS,
    ColumnChunk,
    HostIndex,
    RequestView,
    Verdict,
    object_column,
)


class HostVerdicts:
    """A host-only rule's column form: one evaluation per distinct host.

    The verdict of a rule that ``reads`` only the host is a pure
    function of the host, so it is memoized per id of the engine's
    :class:`~repro.policy.rules.HostIndex` for the engine's lifetime;
    a scenario has few distinct hosts.
    """

    def __init__(self, rule):
        self.rule = rule
        self.known = np.zeros(0, dtype=bool)
        self.verdicts = np.empty(0, dtype=object)

    def __call__(self, chunk: ColumnChunk, rows: np.ndarray) -> np.ndarray:
        ids, hosts = chunk.host_ids()
        if len(self.known) < len(hosts):
            grow = max(len(hosts), 2 * len(self.known)) - len(self.known)
            self.known = np.concatenate([self.known, np.zeros(grow, bool)])
            self.verdicts = np.concatenate(
                [self.verdicts, np.full(grow, None, dtype=object)]
            )
        row_ids = ids[rows]
        # Distinct ids by bincount: a plain np.unique imports numpy.ma.
        unseen = np.flatnonzero(np.bincount(row_ids[~self.known[row_ids]]))
        for host_id in unseen.tolist():
            self.verdicts[host_id] = self.rule.evaluate(
                RequestView(hosts[host_id])
            )
        self.known[unseen] = True
        return self.verdicts[row_ids]


class KeyedVerdicts:
    """Any other rule's column form: memoized per chunk on the rule's
    own ``reads`` (every view field when it declares none)."""

    def __init__(self, rule):
        self.rule = rule
        self.reads = tuple(getattr(rule, "reads", None) or VIEW_FIELDS)

    def __call__(self, chunk: ColumnChunk, rows: np.ndarray) -> np.ndarray:
        return chunk.evaluate_keyed(self.rule, rows, self.reads)


def column_rule(rule):
    """*rule*'s column form: ``(chunk, rows) -> verdict-or-None per row``.

    A rule type with a cheaper column form offers it as
    ``evaluate_rows``; otherwise a host-only rule (``reads ==
    ("host",)``) gets :class:`HostVerdicts` and any other rule
    :class:`KeyedVerdicts`.
    """
    if hasattr(rule, "evaluate_rows"):
        return rule.evaluate_rows
    if tuple(getattr(rule, "reads", None) or ()) == ("host",):
        return HostVerdicts(rule)
    return KeyedVerdicts(rule)


class PolicyEngine:
    """Evaluates an ordered rule list; first match wins.

    Mirrors SGOS policy semantics for the subset the paper exercises:
    the custom-category rule is evaluated first (categorization
    precedes the general policy), then redirects, then the deny rules.
    Ordering is the caller's responsibility; :mod:`repro.policy.syria`
    builds the canonical order.

    Each rule may declare the :class:`RequestView` fields its verdict
    depends on as ``reads``; a rule without one is assumed to read the
    whole view (correct, just memoized on every field).
    """

    def __init__(self, rules: Sequence[object], name: str = "policy"):
        for rule in rules:
            if not hasattr(rule, "evaluate"):
                raise TypeError(f"not a rule: {rule!r}")
        self._rules = tuple(rules)
        self._column_rules = tuple(map(column_rule, self._rules))
        self._hosts = HostIndex()
        self.name = name

    @property
    def rules(self) -> tuple[object, ...]:
        return self._rules

    def evaluate(self, request: RequestView) -> Verdict:
        """Return the verdict for *request* (ALLOW when nothing matches)."""
        for rule in self._rules:
            verdict = rule.evaluate(request)
            if verdict is not None:
                return verdict
        return ALLOW_VERDICT

    def evaluate_many(self, views: Sequence[RequestView]) -> list[Verdict]:
        """``[self.evaluate(view) for view in views]``, by columns."""
        codes, verdicts = self.evaluate_columns({
            field: object_column([getattr(view, field) for view in views])
            for field in VIEW_FIELDS
        })
        return [verdicts[code] for code in codes.tolist()]

    def evaluate_columns(
        self, columns: Mapping[str, np.ndarray]
    ) -> tuple[np.ndarray, list[Verdict]]:
        """Verdicts for a chunk of requests held as numpy columns.

        *columns* maps view field names to one value per request; only
        the fields some rule reads are touched.  Rules run in chain
        order, each over the rows no earlier rule decided, so the first
        match wins as in :meth:`evaluate`.  Returns ``(codes,
        verdicts)``: request *i*'s verdict is ``verdicts[codes[i]]``,
        and the verdicts are distinct by value.  Each call is one span
        of the ``policy.seconds`` metrics timer.
        """
        started = time.perf_counter()
        count = len(next(iter(columns.values()))) if columns else 0
        chunk = ColumnChunk(columns, self._hosts)
        codes = np.zeros(count, dtype=np.intp)
        index_of: dict[Verdict, int] = {ALLOW_VERDICT: 0}
        rows = np.arange(count)
        for evaluate_rows in self._column_rules:
            if not len(rows):
                break
            found = evaluate_rows(chunk, rows)
            decided = np.not_equal(found, None)
            codes[rows[decided]] = [
                index_of.setdefault(verdict, len(index_of))
                for verdict in found[decided].tolist()
            ]
            rows = rows[~decided]
        registry = current_registry()
        if registry is not None:
            registry.observe("policy.seconds", time.perf_counter() - started)
        return codes, list(index_of)

    def with_rules(self, extra: Iterable[object], prepend: bool = False) -> "PolicyEngine":
        """A new engine with *extra* rules appended (or prepended)."""
        extra = tuple(extra)
        rules = extra + self._rules if prepend else self._rules + extra
        return PolicyEngine(rules, name=self.name)
