"""Live ELFF ingestion: tail growing logs, accept lines over HTTP,
serve sliding-window analyses.

The batch engine answers "what happened in these files"; this package
answers the same questions *while the files are still growing*.  It is
a thin asyncio shell over the batch machinery — every record, whether
POSTed or tailed, is read by the batch reader and its batches folded
through the same pipeline sink contract into per-day
:class:`~repro.analysis.streaming.StreamingAnalysis` accumulators, so
live answers and batch answers agree byte-for-byte on the same input:

* :class:`WindowStore` — per-day accumulators with sliding-window
  retention (evicting a day = dropping its accumulator; a window's
  analysis = a fresh merge of retained days);
* :class:`LogTailer` — incremental polls over a growing log via the
  torn-tail-safe :func:`~repro.logmodel.elff.tail_batches`;
* :class:`IngestService` — the ``repro serve`` process: stdlib asyncio
  HTTP with bounded-queue backpressure (429 + Retry-After);
* :class:`LoadGenerator` — the ``repro loadgen`` client: shared-
  schedule rate limiting with live delta-snapshot metrics;
* :class:`WorkerStatusServer` — the ``repro run-distributed`` status
  sidecar: ``/healthz``-style progress over a shared queue directory,
  served by the same HTTP layer as :class:`IngestService`.
"""

from repro.service.http import IngestService
from repro.service.loadgen import LoadGenerator, backoff_delay, build_payload
from repro.service.status import WorkerStatusServer, queue_status
from repro.service.tailer import LogTailer
from repro.service.window import WindowStore

__all__ = [
    "IngestService",
    "LoadGenerator",
    "LogTailer",
    "WindowStore",
    "WorkerStatusServer",
    "backoff_delay",
    "build_payload",
    "queue_status",
]
