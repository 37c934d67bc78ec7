"""Worker-status HTTP surface for distributed runs.

``repro run-distributed --status-port N`` starts this tiny read-only
server next to the coordinator so an operator (or a CI drill) can
watch a campaign the same way ``/healthz`` watches ``repro serve``:

* ``GET /healthz`` — coordinator liveness plus queue totals (planned /
  completed / leased / pending shard counts and the lease counters);
* ``GET /workers`` — every worker's latest self-published status file
  (state, shards held, executed counts, heartbeat cadence).

Everything it serves is derived from the shared queue directory — the
server holds no state of its own and never writes, so it can also be
pointed at a directory worked by processes on other machines.  It is
served by the ingest service's HTTP layer
(:func:`repro.service.http.serve_http`), on an event loop of its own
in a daemon thread, so the synchronous coordinator needs no loop.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

from repro.dispatch.queue import WorkQueue
from repro.runstate import JOURNAL_NAME, MANIFEST_NAME, read_journal
from repro.service.http import serve_http


def queue_status(directory: Path | str) -> dict:
    """One snapshot of a distributed run's progress.

    Safe against every in-flight state: a directory with no manifest
    yet reports zero planned shards rather than failing.
    """
    directory = Path(directory)
    queue = WorkQueue(directory, worker_id="status-reader")
    try:
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        planned = list(manifest.get("shards") or [])
    except (OSError, json.JSONDecodeError):
        planned = []
    journaled = set(read_journal(directory / JOURNAL_NAME))
    completed = [label for label in planned if label in journaled]
    now = time.time()
    leased, expired = [], []
    for label in planned:
        if label in journaled:
            continue
        lease = queue.read_lease(label)
        if lease is None:
            continue
        (expired if lease.expired(now) else leased).append({
            "shard_id": label,
            "worker": lease.worker,
            "attempt": lease.attempt,
            "deadline_in": round(lease.deadline - now, 3),
        })
    return {
        "directory": str(directory),
        "shards": {
            "planned": len(planned),
            "completed": len(completed),
            "leased": len(leased),
            "expired": len(expired),
            "pending": len(planned) - len(completed) - len(leased)
            - len(expired),
        },
        "leases": leased + expired,
        "counters": queue.event_counters(),
    }


class WorkerStatusServer:
    """The coordinator's status sidecar (daemon-threaded).

    The socket is bound at construction, so :attr:`port` is known
    before :meth:`start`; the thread runs the server on its own event
    loop until :meth:`stop`.
    """

    def __init__(
        self, directory: Path | str, host: str = "127.0.0.1", port: int = 0
    ):
        self.directory = Path(directory)
        self.started_at = time.time()
        self._socket = socket.create_server((host, port))
        self._loop = asyncio.new_event_loop()
        self._stopping = asyncio.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-status", daemon=True
        )

    @property
    def port(self) -> int:
        return self._socket.getsockname()[1]

    def start(self) -> "WorkerStatusServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._loop.call_soon_threadsafe(self._stopping.set)
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        try:
            self._loop.run_until_complete(self._serve())
        finally:
            self._loop.close()

    async def _serve(self) -> None:
        async with await serve_http(self._route, sock=self._socket):
            await self._stopping.wait()

    def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict, dict[str, str]]:
        path = urlsplit(target).path
        if method != "GET":
            return 405, {"error": "GET only"}, {}
        if path in ("/", "/healthz"):
            status = queue_status(self.directory)
            status["status"] = "ok"
            status["uptime_seconds"] = round(time.time() - self.started_at, 3)
            return 200, status, {}
        if path == "/workers":
            queue = WorkQueue(self.directory, worker_id="status-reader")
            return 200, {"workers": queue.read_worker_statuses()}, {}
        return 404, {"error": f"unknown path {path!r}"}, {}
