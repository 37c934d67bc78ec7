"""Workload stream v2: the traffic generator's random-stream layout.

Every traffic component draws a fixed number *K* of uniforms per
request, as ``rng.random((n, K))`` row-major for a block of *n*
requests, whichever branch a request takes.  The draws are consumed
only through inverse-CDF lookups (one ``searchsorted`` on cumulative
weights) and column arithmetic; nothing draws per request.  Because
``rng.random((a, K))`` followed by ``rng.random((b, K))`` yields the
same doubles as ``rng.random((a + b, K))``, a component generated in
blocks of any size emits the same columns, so generation runs in
bounded blocks.  ``docs/ARCHITECTURE.md`` ("Workload stream v2") has
each component's draw table.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.traffic import REQUEST_COLUMNS, RequestBatch

#: Version of the generator's random-stream layout; part of the run
#: fingerprint, so a ledger written under another layout never resumes.
WORKLOAD_STREAM = 2

#: Requests per generation block: bounds the draw and placeholder
#: temporaries, and does not change a single output value.
BLOCK_ROWS = 4096


def generate_blocks(
    count: int,
    draws: int,
    rng: np.random.Generator,
    block: Callable[[np.ndarray], dict[str, np.ndarray]],
) -> RequestBatch:
    """*count* requests, generated :data:`BLOCK_ROWS` at a time: each
    block's ``(n, draws)`` uniforms go to *block*, which returns its
    columns."""
    parts = []
    for start in range(0, count, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, count - start)
        parts.append(block(rng.random((rows, draws))))
    return concat_requests(parts)


def concat_requests(parts: list[dict[str, np.ndarray]]) -> RequestBatch:
    """One batch of the column dicts *parts*, in order; each part's
    columns are released as they are copied."""
    if not parts:
        return RequestBatch.from_requests([])
    if len(parts) == 1:
        return RequestBatch(parts[0])
    return RequestBatch({
        name: np.concatenate([part.pop(name) for part in parts])
        for name in REQUEST_COLUMNS
    })
