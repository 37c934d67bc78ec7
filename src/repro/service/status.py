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
pointed at a directory worked by processes on other machines.  It runs
a stdlib :class:`ThreadingHTTPServer` on a daemon thread: the asyncio
ingest service and this server solve different problems (hot ingest
path vs. a coordinator sidecar) and stay independent.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.dispatch.queue import WorkQueue
from repro.runstate import JOURNAL_NAME, MANIFEST_NAME, read_journal


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


class _StatusHandler(BaseHTTPRequestHandler):
    server_version = "repro-dispatch/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        directory = self.server.directory  # type: ignore[attr-defined]
        if self.path in ("/", "/healthz"):
            status = queue_status(directory)
            status["status"] = "ok"
            status["uptime_seconds"] = round(
                time.time() - self.server.started_at, 3  # type: ignore[attr-defined]
            )
            self._reply(200, status)
        elif self.path == "/workers":
            queue = WorkQueue(directory, worker_id="status-reader")
            self._reply(200, {"workers": queue.read_worker_statuses()})
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def _reply(self, code: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:  # quiet by default
        pass


class WorkerStatusServer:
    """The coordinator's status sidecar (daemon-threaded)."""

    def __init__(
        self, directory: Path | str, host: str = "127.0.0.1", port: int = 0
    ):
        self.directory = Path(directory)
        self._server = ThreadingHTTPServer((host, port), _StatusHandler)
        self._server.directory = self.directory  # type: ignore[attr-defined]
        self._server.started_at = time.time()  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-status",
            daemon=True,
        )

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "WorkerStatusServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
