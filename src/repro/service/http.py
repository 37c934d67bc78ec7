"""The live ingestion service: HTTP + file tailing over asyncio.

``repro serve`` runs one process that accepts ELFF log lines two ways
— POSTed over HTTP and tailed from growing log files — and reads both
with the batch reader, folding its batches through the pipeline's sink
contract into a sliding-window
:class:`~repro.service.window.WindowStore`.  Everything is stdlib: the
HTTP layer, :func:`serve_http`, is ``asyncio.start_server`` plus a
small hand-written HTTP/1.1 parser (keep-alive, Content-Length
framing) that serves any JSON route; it serves these four endpoints
and the ``run-distributed`` status sidecar
(:class:`~repro.service.status.WorkerStatusServer`).

Backpressure is explicit and bounded: POSTed payloads land on a
bounded :class:`asyncio.Queue` and a single fold task drains it.  When
the fold lags and the queue fills, ``/ingest`` answers ``429`` with a
``Retry-After`` header instead of buffering without limit — the
client's load generator treats that as a signal to ease off, and the
queue depth stays bounded at any offered rate.

Endpoints:

* ``POST /ingest`` — body is raw ELFF lines (directives allowed);
  ``202`` with the queue depth, or ``429`` when the queue is full;
* ``GET  /healthz`` — liveness plus queue/fold gauges;
* ``GET  /stats`` — totals since start *and* a delta window since the
  previous ``/stats`` call (per-second rates via
  :meth:`~repro.metrics.MetricsRegistry.delta_since`);
* ``GET  /analysis?window=N`` — the merged analysis over the newest N
  retained log-days (all retained days when omitted).
"""

from __future__ import annotations

import asyncio
import io
import json
import signal
import socket
from collections.abc import Callable
from functools import partial
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.batching import BATCH_SIZE
from repro.logmodel.elff import ReadStats, read_log_batches
from repro.metrics import MetricsRegistry, MetricsSnapshot, use_registry
from repro.service.tailer import LogTailer
from repro.service.window import WindowStore

#: Largest accepted ``/ingest`` body; larger requests get ``413``.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest accepted request head (request line + headers).
_MAX_HEAD_BYTES = 64 * 1024

#: A JSON endpoint set: ``route(method, target, body)`` returns the
#: status code, the JSON payload and any extra response headers.
Route = Callable[[str, str, bytes], tuple[int, dict, dict[str, str]]]


async def serve_http(
    route: Route,
    host: str | None = None,
    port: int | None = None,
    *,
    sock: socket.socket | None = None,
) -> asyncio.Server:
    """Serve *route* over HTTP/1.1 on a new asyncio server, bound to
    *host*/*port* (``port=0`` picks a free port) or listening on an
    already bound *sock*."""
    return await asyncio.start_server(
        partial(_handle_connection, route), host, port, sock=sock
    )


async def _handle_connection(
    route: Route, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        while True:
            request = await _read_request(reader)
            if request is None:
                break
            method, target, headers, body = request
            status, payload, extra = route(method, target, body)
            keep_alive = headers.get("connection", "") != "close"
            writer.write(_encode_response(status, payload, extra, keep_alive))
            await writer.drain()
            if not keep_alive:
                break
    except (
        asyncio.IncompleteReadError,
        ConnectionResetError,
        ValueError,
    ):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one HTTP/1.1 request; None on clean EOF between requests.
    Raises ValueError on malformed input (connection is dropped — a
    framing error leaves no safe way to answer)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise
    except asyncio.LimitOverrunError as error:
        raise ValueError("request head too large") from error
    if len(head) > _MAX_HEAD_BYTES:
        raise ValueError("request head too large")
    request_line, *header_lines = head.decode("latin-1").split("\r\n")
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {request_line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip().lower()
    length = int(headers.get("content-length", "0"))
    if length > MAX_BODY_BYTES:
        raise ValueError(f"body of {length} bytes exceeds the cap")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


_STATUS_LINES = {
    200: "200 OK",
    202: "202 Accepted",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    413: "413 Content Too Large",
    429: "429 Too Many Requests",
}


def _encode_response(
    status: int, payload: dict, extra: dict[str, str], keep_alive: bool
) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    headers = [
        f"HTTP/1.1 {_STATUS_LINES[status]}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    headers.extend(f"{name}: {value}" for name, value in extra.items())
    return "\r\n".join(headers).encode("latin-1") + b"\r\n\r\n" + body


class IngestService:
    """One ingestion process: HTTP server, tailers, fold loop, store.

    The service owns a private :class:`MetricsRegistry` (activated
    around every fold so the reader's ``elff.read.*`` counters land in
    it) and a :class:`WindowStore` that both ingest paths fold into —
    the HTTP path and the tail path produce the same per-day state the
    batch engine would, because they run the same sink fold.
    """

    def __init__(
        self,
        store: WindowStore | None = None,
        *,
        queue_size: int = 64,
        tail_paths: tuple[Path | str, ...] = (),
        poll_interval: float = 0.25,
        retry_after: float = 1.0,
        regime: str = "syria",
    ) -> None:
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        self.store = store if store is not None else WindowStore()
        #: Which regime's logs this service ingests — a label surfaced
        #: on ``/healthz`` (classification is regime-neutral, so the
        #: fold paths need no switching).
        self.regime = regime
        self.registry = MetricsRegistry()
        self.read_stats = ReadStats()
        self.tailers = [LogTailer(path) for path in tail_paths]
        self.poll_interval = poll_interval
        self.retry_after = retry_after
        self.queue: asyncio.Queue[str] = asyncio.Queue(maxsize=queue_size)
        self.max_queue_depth = 0
        self.host: str | None = None
        self.port: int | None = None
        self._server: asyncio.Server | None = None
        self._tasks: list[asyncio.Task] = []
        self._stats_mark: MetricsSnapshot | None = None
        self._started_at: float | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind the server (``port=0`` picks a free port) and launch
        the fold and tail loops."""
        self._server = await serve_http(self._route, host, port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._started_at = asyncio.get_running_loop().time()
        self._stats_mark = self.registry.snapshot()
        self._tasks.append(asyncio.create_task(self._fold_loop()))
        if self.tailers:
            self._tasks.append(asyncio.create_task(self._tail_loop()))

    async def drain(self) -> None:
        """Wait until every queued payload has been folded."""
        await self.queue.join()

    async def stop(self) -> None:
        """Drain the queue, then tear down tasks and the server."""
        await self.drain()
        for tailer in self.tailers:
            self._poll_tailer(tailer)
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        for_seconds: float | None = None,
    ) -> None:
        """Run until SIGINT/SIGTERM (or *for_seconds*), then shut down
        cleanly.  Prints the bound address so callers that asked for
        ``port=0`` — tests, the CI smoke job — can discover it."""
        await self.start(host, port)
        print(
            f"repro serve: listening on http://{self.host}:{self.port}",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        done = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, done.set)
            except NotImplementedError:  # non-Unix event loops
                pass
        try:
            if for_seconds is None:
                await done.wait()
            else:
                try:
                    await asyncio.wait_for(done.wait(), for_seconds)
                except asyncio.TimeoutError:
                    pass
        finally:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.remove_signal_handler(signum)
                except NotImplementedError:
                    pass
            await self.stop()
            print("repro serve: shut down cleanly", flush=True)

    # -- folding -----------------------------------------------------------

    def _fold_payload(self, payload: str) -> int:
        """Fold one POSTed payload's records into the window store.

        The payload is read leniently in column batches, so malformed
        rows are skipped and counted (``read.skipped``).  Any error
        that stops the read — a foreign ``#Fields`` directive, a
        region the csv tokenizer refuses, a numeric cell beyond int64
        — counts as ``service.fold.rejected`` instead of ending the
        fold loop, the queue's only consumer.  The rows before a
        rejected directive or csv region stay folded; a chunk whose
        conversion fails is lost whole.
        """
        before = self.store.total + self.store.evicted_records
        try:
            with use_registry(self.registry):
                for batch in read_log_batches(
                    io.StringIO(payload), BATCH_SIZE,
                    lenient=True, stats=self.read_stats,
                ):
                    self.store.add_batch(batch)
        except Exception:
            self.registry.inc("service.fold.rejected")
        folded = self.store.total + self.store.evicted_records - before
        self.registry.inc("service.fold.records", folded)
        return folded

    async def _fold_loop(self) -> None:
        """The single consumer of the ingest queue."""
        while True:
            payload = await self.queue.get()
            try:
                self._fold_payload(payload)
            finally:
                self.queue.task_done()

    def _poll_tailer(self, tailer: LogTailer) -> int:
        """One poll of one tailed file, folded into the store.

        A poll the reader refuses part-way (a foreign ``#Fields``
        directive), or one that fails any other way, counts as
        ``service.tail.rejected`` instead of ending the tail loop, the
        only consumer of every tailed file.  The rows before a refused
        line still fold, and the next poll resumes past it.
        """
        try:
            with use_registry(self.registry):
                batch = tailer.poll()
                self.store.add_batch(batch)
        except Exception:
            self.registry.inc("service.tail.rejected")
            return 0
        if tailer.refusal is not None:
            self.registry.inc("service.tail.rejected")
        if len(batch):
            self.registry.inc("service.tail.records", len(batch))
        return len(batch)

    async def _tail_loop(self) -> None:
        """Poll every tailed file on a fixed interval."""
        while True:
            for tailer in self.tailers:
                self._poll_tailer(tailer)
            await asyncio.sleep(self.poll_interval)

    # -- the endpoints -----------------------------------------------------

    def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict, dict[str, str]]:
        """Dispatch one request; returns (status, JSON payload, extra
        headers)."""
        url = urlsplit(target)
        if url.path == "/ingest":
            if method != "POST":
                return 405, {"error": "POST only"}, {}
            return self._handle_ingest(body)
        if method != "GET":
            return 405, {"error": "GET only"}, {}
        if url.path == "/healthz":
            return self._handle_healthz()
        if url.path == "/stats":
            return self._handle_stats()
        if url.path == "/analysis":
            return self._handle_analysis(parse_qs(url.query))
        return 404, {"error": f"no such endpoint: {url.path}"}, {}

    def _handle_ingest(self, body: bytes) -> tuple[int, dict, dict]:
        self.registry.inc("service.ingest.requests")
        try:
            payload = body.decode("utf-8")
        except UnicodeDecodeError:
            self.registry.inc("service.ingest.rejected")
            return 400, {"error": "body is not UTF-8"}, {}
        try:
            self.queue.put_nowait(payload)
        except asyncio.QueueFull:
            self.registry.inc("service.ingest.throttled")
            return (
                429,
                {"error": "ingest queue full", "queue_depth": self.queue.qsize()},
                {"Retry-After": f"{self.retry_after:g}"},
            )
        depth = self.queue.qsize()
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        self.registry.inc("service.ingest.accepted")
        return 202, {"accepted": True, "queue_depth": depth}, {}

    def _handle_healthz(self) -> tuple[int, dict, dict]:
        loop = asyncio.get_running_loop()
        uptime = (
            loop.time() - self._started_at if self._started_at is not None
            else 0.0
        )
        return (
            200,
            {
                "status": "ok",
                "regime": self.regime,
                "uptime_seconds": uptime,
                "queue_depth": self.queue.qsize(),
                "max_queue_depth": self.max_queue_depth,
                "records": len(self.store),
                "retained_days": len(self.store.days),
            },
            {},
        )

    def _handle_stats(self) -> tuple[int, dict, dict]:
        """Totals since start plus the delta window since the last
        ``/stats`` call — each scrape advances the mark, so polling
        ``/stats`` every N seconds yields true per-window rates."""
        delta = self.registry.delta_since(self._stats_mark)
        self._stats_mark = self.registry.snapshot()
        return (
            200,
            {
                "records": len(self.store),
                "evicted_days": self.store.evicted_days,
                "evicted_records": self.store.evicted_records,
                "queue_depth": self.queue.qsize(),
                "max_queue_depth": self.max_queue_depth,
                "read": {
                    "records": self.read_stats.records,
                    "skipped": self.read_stats.skipped,
                    "corrupted": self.read_stats.corrupted,
                    "incomplete_tail": self.read_stats.incomplete_tail,
                },
                "totals": {
                    name: self.registry.counters[name]
                    for name in sorted(self.registry.counters)
                },
                "window": delta.to_dict(),
            },
            {},
        )

    def _handle_analysis(self, query: dict) -> tuple[int, dict, dict]:
        window = None
        if "window" in query:
            try:
                window = int(query["window"][0])
                if window < 1:
                    raise ValueError
            except ValueError:
                return 400, {"error": "window must be a positive integer"}, {}
        analysis = self.store.window(window)
        breakdown = analysis.breakdown()
        return (
            200,
            {
                "window_days": window,
                "retained_days": self.store.retained_days(),
                "breakdown": {
                    "total": breakdown.total,
                    "allowed": breakdown.allowed,
                    "censored": breakdown.censored,
                    "errors": breakdown.errors,
                    "proxied": breakdown.proxied,
                    "allowed_pct": breakdown.allowed_pct,
                    "censored_pct": breakdown.censored_pct,
                },
                "top_allowed": analysis.top_allowed(10),
                "top_censored": analysis.top_censored(10),
                "day_volumes": {
                    str(day): analysis.day_volumes[day]
                    for day in sorted(analysis.day_volumes)
                },
            },
            {},
        )

