"""The lease queue: atomic shard leases over a shared ledger directory.

``repro.runstate`` already gives a run a durable identity (manifest),
a crash-safe completion record (journal + checksummed artifacts), and
a single-writer lock.  This module adds the one thing N *independent
processes* need to share that ledger safely: a claim protocol.  The
queue lives inside the checkpoint directory::

    <dir>/queue/QUEUE.json           the job spec + lease TTL (atomic)
    <dir>/queue/leases/<slug>.lease  one live lease per in-flight shard
    <dir>/queue/events.jsonl         append-only fsync'd lease history
    <dir>/queue/workers/<slug>.json  per-worker status (atomic)

Every coordination step reduces to a filesystem primitive POSIX makes
atomic, so there is no daemon and no socket between workers:

* **claim** — ``open(lease, O_CREAT | O_EXCL)``: exactly one winner,
  no matter how many workers race for the shard.
* **renew** — rewrite the lease via a pid-unique tmp + ``os.replace``
  with a pushed-out deadline: readers always see a whole lease.
* **reclaim** — an expired lease is renamed aside to a pid-unique tomb
  before the shard is re-claimed; ``os.rename`` succeeds for exactly
  one contender, so a dead worker's shard is re-leased exactly once.
* **events** — every grant/renew/expire/reclaim/requeue/complete
  appends one fsync'd JSON line via
  :func:`repro.runstate.append_journal_entry` (single ``O_APPEND``
  write — whole lines, any number of writers), which is where the
  ``dispatch.*`` metrics counters come from.

Completion itself is *not* the queue's job: a worker records a
finished shard into the run ledger's ``journal.jsonl``/``artifacts/``
exactly like a single-box checkpointed run, so ``repro verify-run``
and ``--resume`` work unchanged on a distributed directory, and the
merged output is byte-identical to a serial run.

Known benign races (documented, not defended): a worker that renews or
releases *after* its lease already expired can clobber a successor's
lease.  The window is one poll interval after an expiry that already
implies the worker missed every heartbeat; the consequence is one
shard running twice, and since shards are deterministic and the
journal is last-entry-wins, the output bytes are unaffected.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.atomicio import atomic_write_bytes, atomic_write_text
from repro.runstate import append_journal_entry

#: Version tag of the queue layout; a manifest with a different tag is
#: refused rather than misread.
QUEUE_SCHEMA = "repro.dispatch/1"

QUEUE_DIR = "queue"
QUEUE_MANIFEST_NAME = "QUEUE.json"
LEASE_DIR = "leases"
EVENTS_NAME = "events.jsonl"
WORKER_DIR = "workers"

#: How long a lease lives without a heartbeat renewal.
DEFAULT_LEASE_TTL = 30.0

#: Lease events and the metrics counters they aggregate into.
EVENT_COUNTERS = {
    "grant": "dispatch.lease.granted",
    "renew": "dispatch.lease.renewed",
    "expire": "dispatch.lease.expired",
    "reclaim": "dispatch.lease.reclaimed",
    "requeue": "dispatch.shards.requeued",
    "complete": "dispatch.shards.completed",
    "lost": "dispatch.lease.lost",
}


class DispatchError(RuntimeError):
    """Base class for distributed-dispatch failures."""


class QueueMismatch(DispatchError):
    """The queue directory was seeded for a different job."""


class LeaseLost(DispatchError):
    """A lease this worker thought it held belongs to someone else —
    the worker was presumed dead and its shard reclaimed."""


def _env_seconds(name: str) -> float | None:
    """Parse an optional seconds knob; errors name the variable."""
    text = os.environ.get(name)
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"{name} must be a positive number of seconds, got {text!r}"
        ) from None
    if value <= 0:
        raise ValueError(
            f"{name} must be a positive number of seconds, got {text!r}"
        )
    return value


def lease_ttl_from_env(default: float = DEFAULT_LEASE_TTL) -> float:
    """The lease TTL, honouring ``REPRO_LEASE_TTL``."""
    return _env_seconds("REPRO_LEASE_TTL") or default


def heartbeat_interval_from_env(default: float) -> float:
    """The renewal cadence, honouring ``REPRO_HEARTBEAT_INTERVAL``."""
    return _env_seconds("REPRO_HEARTBEAT_INTERVAL") or default


def _slug(text: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_")
    return cleaned or "x"


@dataclass(frozen=True)
class Lease:
    """One shard's claim: who holds it, until when, which attempt.

    ``attempt`` counts grants of this shard (0 on the first claim,
    +1 per reclaim/requeue) — it is the number fault rules gate on, so
    a ``worker.kill`` fault fires on the first claimant and spares the
    reclaiming one, exactly like a re-scheduled shard landing on a
    healthy node.
    """

    shard_id: str
    worker: str
    deadline: float
    attempt: int = 0
    granted_at: float = 0.0

    def expired(self, now: float | None = None) -> bool:
        return (time.time() if now is None else now) >= self.deadline

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "worker": self.worker,
            "deadline": self.deadline,
            "attempt": self.attempt,
            "granted_at": self.granted_at,
        }


class WorkQueue:
    """Filesystem lease queue over one checkpoint directory.

    Construct one per process with that process's *worker_id* (defaults
    to ``<host>:<pid>``, which is unique among live workers).  All
    methods are safe to call concurrently from any number of processes
    on the same directory; none of them require the run ledger's
    ``LOCK`` (that stays with the coordinator).
    """

    def __init__(self, directory: Path | str, worker_id: str | None = None):
        self.directory = Path(directory)
        if worker_id is None:
            import socket

            worker_id = f"{socket.gethostname()}:{os.getpid()}"
        self.worker_id = worker_id
        self._manifest: dict | None = None

    # -- paths -------------------------------------------------------------

    @property
    def queue_dir(self) -> Path:
        return self.directory / QUEUE_DIR

    @property
    def manifest_path(self) -> Path:
        return self.queue_dir / QUEUE_MANIFEST_NAME

    @property
    def lease_dir(self) -> Path:
        return self.queue_dir / LEASE_DIR

    @property
    def events_path(self) -> Path:
        return self.queue_dir / EVENTS_NAME

    @property
    def worker_dir(self) -> Path:
        return self.queue_dir / WORKER_DIR

    def lease_path(self, shard_id: str) -> Path:
        import hashlib

        token = hashlib.sha256(shard_id.encode("utf-8")).hexdigest()[:8]
        return self.lease_dir / f"{_slug(shard_id)}-{token}.lease"

    # -- the queue manifest ------------------------------------------------

    def seed(self, job: dict, *, ttl: float, resume: bool = False) -> None:
        """Publish the job spec and lease TTL (coordinator side).

        A fresh seed writes ``QUEUE.json`` atomically; a resume
        verifies the existing manifest describes the *same* job, so a
        worker can never execute shards of run A against the spec of
        run B.
        """
        self.queue_dir.mkdir(parents=True, exist_ok=True)
        self.lease_dir.mkdir(exist_ok=True)
        self.worker_dir.mkdir(exist_ok=True)
        manifest = {"schema": QUEUE_SCHEMA, "lease_ttl": ttl, "job": job}
        if self.manifest_path.exists():
            if not resume:
                raise DispatchError(
                    f"{self.manifest_path} already exists; pass --resume "
                    "to continue the queued run or choose a fresh directory"
                )
            existing = self.manifest()
            if existing.get("job") != json.loads(json.dumps(job)):
                raise QueueMismatch(
                    f"{self.directory} was queued for a different job; "
                    "refusing to re-seed it"
                )
            self._manifest = None
            return
        atomic_write_text(
            self.manifest_path, json.dumps(manifest, indent=2) + "\n"
        )
        self._manifest = None

    def manifest(self) -> dict:
        """The queue manifest (cached after the first successful read)."""
        if self._manifest is None:
            try:
                manifest = json.loads(self.manifest_path.read_text())
            except (OSError, json.JSONDecodeError) as error:
                raise DispatchError(
                    f"unreadable queue manifest {self.manifest_path}: {error}"
                ) from error
            if manifest.get("schema") != QUEUE_SCHEMA:
                raise QueueMismatch(
                    f"{self.manifest_path} uses queue schema "
                    f"{manifest.get('schema')!r}, this build speaks "
                    f"{QUEUE_SCHEMA!r}"
                )
            self._manifest = manifest
        return self._manifest

    def wait_for_manifest(
        self, timeout: float | None = None, poll: float = 0.1
    ) -> dict:
        """Block until the coordinator has seeded the queue."""
        start = time.time()
        while True:
            if self.manifest_path.exists():
                return self.manifest()
            if timeout is not None and time.time() - start >= timeout:
                raise DispatchError(
                    f"no queue manifest appeared in {self.directory} "
                    f"within {timeout:g}s — is the coordinator running?"
                )
            time.sleep(poll)

    def ttl(self) -> float:
        value = self.manifest().get("lease_ttl")
        return float(value) if value else DEFAULT_LEASE_TTL

    # -- leases ------------------------------------------------------------

    def read_lease(self, shard_id: str) -> Lease | None:
        """The current lease on *shard_id*, live or expired, or None.

        An unparseable lease file (a claimant killed between the
        ``O_EXCL`` create and the write) is reported as an anonymous
        lease expiring one TTL after the file's mtime, so it ages out
        and gets reclaimed instead of wedging the shard forever.
        """
        path = self.lease_path(shard_id)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            data = json.loads(text)
            return Lease(
                shard_id=str(data["shard_id"]),
                worker=str(data["worker"]),
                deadline=float(data["deadline"]),
                attempt=int(data.get("attempt", 0)),
                granted_at=float(data.get("granted_at", 0.0)),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                return None
            return Lease(
                shard_id=shard_id,
                worker="?",
                deadline=mtime + self.ttl(),
                granted_at=mtime,
            )

    def try_claim(self, shard_id: str, attempt: int = 0) -> Lease | None:
        """Claim *shard_id* for this worker; None if someone else holds
        it.  ``O_CREAT | O_EXCL`` picks exactly one winner."""
        now = time.time()
        lease = Lease(
            shard_id=shard_id,
            worker=self.worker_id,
            deadline=now + self.ttl(),
            attempt=attempt,
            granted_at=now,
        )
        self.lease_dir.mkdir(parents=True, exist_ok=True)
        path = self.lease_path(shard_id)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return None
        try:
            os.write(fd, json.dumps(lease.to_dict()).encode("utf-8"))
            try:
                os.fsync(fd)
            except OSError:
                pass
        finally:
            os.close(fd)
        self._event("grant", shard_id, attempt=attempt)
        return lease

    def renew(self, lease: Lease) -> Lease:
        """Push the lease deadline out one TTL (the heartbeat).

        Raises :class:`LeaseLost` when the on-disk lease is no longer
        this worker's — the shard was reclaimed while we were away.
        """
        current = self.read_lease(lease.shard_id)
        if current is None or current.worker != self.worker_id:
            self._event("lost", lease.shard_id, attempt=lease.attempt)
            raise LeaseLost(
                f"lease on {lease.shard_id!r} now held by "
                f"{current.worker if current else 'nobody'} "
                f"(was {self.worker_id})"
            )
        renewed = replace(lease, deadline=time.time() + self.ttl())
        path = self.lease_path(lease.shard_id)
        atomic_write_bytes(
            path,
            json.dumps(renewed.to_dict()).encode("utf-8"),
            unique_tmp=True,
        )
        self._event("renew", lease.shard_id, attempt=lease.attempt)
        return renewed

    def release(self, lease: Lease, *, completed: bool = True) -> bool:
        """Drop a held lease after the shard settled.

        ``completed=True`` means the shard's result is already in the
        run ledger (a ``complete`` event); ``completed=False`` returns
        the shard to the pool for another worker (a ``requeue`` event —
        the retry-exhausted path).  Returns False when the lease was
        already reclaimed from us (nothing to release).
        """
        current = self.read_lease(lease.shard_id)
        if current is None or current.worker != self.worker_id:
            self._event("lost", lease.shard_id, attempt=lease.attempt)
            return False
        self.lease_path(lease.shard_id).unlink(missing_ok=True)
        self._event(
            "complete" if completed else "requeue",
            lease.shard_id,
            attempt=lease.attempt,
        )
        return True

    def reclaim_expired(self, shard_id: str, now: float | None = None) -> bool:
        """Tear down an expired lease so the shard can be re-claimed.

        The tomb-rename makes this race-free: when several processes
        spot the same expired lease, ``os.rename`` hands the tomb to
        exactly one of them (the rest see ENOENT), so the expiry and
        reclaim events are emitted exactly once per incarnation.
        """
        lease = self.read_lease(shard_id)
        if lease is None or not lease.expired(now):
            return False
        path = self.lease_path(shard_id)
        tomb = path.with_name(f"{path.name}.tomb-{os.getpid()}")
        try:
            os.rename(path, tomb)
        except FileNotFoundError:
            return False
        tomb.unlink(missing_ok=True)
        self._event("expire", shard_id, attempt=lease.attempt)
        self._event("reclaim", shard_id, attempt=lease.attempt)
        return True

    def claim_next(self, shard_ids) -> Lease | None:
        """Claim the first claimable shard of *shard_ids*, reclaiming
        any expired leases met along the way; None when every shard is
        leased elsewhere.

        The grant attempt is derived from the event history (one past
        grant ⇒ attempt 1, …), so it survives any interleaving of
        claimants — whoever wins the ``O_EXCL`` create after a reclaim
        runs the shard with the incremented attempt.
        """
        attempts = self.grant_attempts()
        now = time.time()
        for shard_id in shard_ids:
            existing = self.read_lease(shard_id)
            if existing is not None:
                if not existing.expired(now):
                    continue
                if not self.reclaim_expired(shard_id, now):
                    continue
            next_attempt = attempts.get(shard_id)
            next_attempt = 0 if next_attempt is None else next_attempt + 1
            lease = self.try_claim(shard_id, attempt=next_attempt)
            if lease is not None:
                return lease
        return None

    # -- the event journal -------------------------------------------------

    def _event(self, kind: str, shard_id: str, *, attempt: int) -> None:
        self.queue_dir.mkdir(parents=True, exist_ok=True)
        append_journal_entry(self.events_path, {
            "event": kind,
            "shard_id": shard_id,
            "worker": self.worker_id,
            "attempt": attempt,
            "at": time.time(),
        })

    def read_events(self) -> list[dict]:
        """Every well-formed event line, in append order."""
        try:
            text = self.events_path.read_text(encoding="utf-8")
        except OSError:
            return []
        events = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict) and "event" in event:
                events.append(event)
        return events

    def grant_attempts(self) -> dict[str, int]:
        """The latest granted attempt per shard (from the event log)."""
        latest: dict[str, int] = {}
        for event in self.read_events():
            if event.get("event") != "grant":
                continue
            shard_id = event.get("shard_id")
            if isinstance(shard_id, str):
                latest[shard_id] = int(event.get("attempt", 0))
        return latest

    def event_counters(
        self, events: list[dict] | None = None
    ) -> dict[str, int]:
        """Aggregate the event log (or *events* read from it) into
        ``dispatch.*`` counter values."""
        counters = {name: 0 for name in EVENT_COUNTERS.values()}
        for event in self.read_events() if events is None else events:
            name = EVENT_COUNTERS.get(event.get("event"))
            if name is not None:
                counters[name] += 1
        return counters

    # -- worker status (the /healthz-style surface) ------------------------

    def write_worker_status(self, state: dict) -> None:
        """Publish this worker's status atomically (safe against a
        concurrent status server read and against other workers)."""
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "worker": self.worker_id,
            "updated_at": time.time(),
            **state,
        }
        atomic_write_bytes(
            self.worker_dir / f"{_slug(self.worker_id)}.json",
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
            unique_tmp=True,
        )

    def read_worker_statuses(self) -> list[dict]:
        """Every worker's latest published status, sorted by worker id."""
        statuses = []
        try:
            paths = sorted(self.worker_dir.glob("*.json"))
        except OSError:
            return statuses
        for path in paths:
            try:
                status = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(status, dict):
                statuses.append(status)
        return statuses
