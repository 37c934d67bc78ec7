"""Ordered rule evaluation."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import repeat

import numpy as np

from repro.policy.rules import ALLOW_VERDICT, RequestView, Verdict

#: Every :class:`RequestView` field, in declaration order — what a rule
#: that does not declare the fields it ``reads`` is assumed to read.
VIEW_FIELDS: tuple[str, ...] = RequestView._fields


class PolicyEngine:
    """Evaluates an ordered rule list; first match wins.

    Mirrors SGOS policy semantics for the subset the paper exercises:
    the custom-category rule is evaluated first (categorization
    precedes the general policy), then redirects, then the deny rules.
    Ordering is the caller's responsibility; :mod:`repro.policy.syria`
    builds the canonical order.

    Each rule may declare the :class:`RequestView` fields its verdict
    depends on as ``reads``; a rule without one is assumed to read the
    whole view (correct, just never memoized across requests).
    """

    def __init__(self, rules: Sequence[object], name: str = "policy"):
        for rule in rules:
            if not hasattr(rule, "evaluate"):
                raise TypeError(f"not a rule: {rule!r}")
        self._rules = tuple(rules)
        self.name = name
        read = {
            field for rule in self._rules
            for field in getattr(rule, "reads", None) or VIEW_FIELDS
        }
        self._reads = tuple(field for field in VIEW_FIELDS if field in read)

    @property
    def rules(self) -> tuple[object, ...]:
        return self._rules

    @property
    def reads(self) -> tuple[str, ...]:
        """The union of the rules' ``reads``: requests agreeing on these
        fields always get the same verdict."""
        return self._reads

    def evaluate(self, request: RequestView) -> Verdict:
        """Return the verdict for *request* (ALLOW when nothing matches)."""
        for rule in self._rules:
            verdict = rule.evaluate(request)
            if verdict is not None:
                return verdict
        return ALLOW_VERDICT

    def evaluate_many(self, views: Sequence[RequestView]) -> list[Verdict]:
        """``[self.evaluate(view) for view in views]``, memoized."""
        codes, verdicts = self.evaluate_columns({
            field: [getattr(view, field) for view in views]
            for field in VIEW_FIELDS
        })
        return [verdicts[code] for code in codes.tolist()]

    def evaluate_columns(
        self, columns: Mapping[str, Sequence]
    ) -> tuple[np.ndarray, list[Verdict]]:
        """Verdicts for a chunk of requests held as columns.

        *columns* maps every :data:`VIEW_FIELDS` name to one value per
        request.  Returns ``(codes, verdicts)``: request *i*'s verdict
        is ``verdicts[codes[i]]``.  :meth:`evaluate` runs once per
        distinct combination of :attr:`reads` in the chunk, on the
        first request showing it; the memo lives only for this call.
        """
        count = len(columns[VIEW_FIELDS[0]])
        keys = (
            zip(*(columns[field] for field in self._reads))
            if self._reads else repeat((), count)
        )
        rows = zip(*(columns[field] for field in VIEW_FIELDS))
        memo: dict[tuple, int] = {}
        code_of: dict[int, int] = {}  # id(verdict) -> code
        verdicts: list[Verdict] = []
        codes: list[int] = []
        for key, row in zip(keys, rows):
            code = memo.get(key)
            if code is None:
                verdict = self.evaluate(RequestView._make(row))
                code = code_of.setdefault(id(verdict), len(verdicts))
                if code == len(verdicts):
                    verdicts.append(verdict)
                memo[key] = code
            codes.append(code)
        return np.asarray(codes, dtype=np.intp), verdicts

    def with_rules(self, extra: Iterable[object], prepend: bool = False) -> "PolicyEngine":
        """A new engine with *extra* rules appended (or prepended)."""
        extra = tuple(extra)
        rules = extra + self._rules if prepend else self._rules + extra
        return PolicyEngine(rules, name=self.name)
