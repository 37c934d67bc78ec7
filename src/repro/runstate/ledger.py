"""The durable run ledger: manifest, journal, artifacts, lock.

A checkpoint directory makes a sharded run survive process death.  Its
layout:

``MANIFEST.json``
    The run's identity, written atomically when the ledger is first
    opened: ledger schema version, the caller's *fingerprint* (seed,
    request volume, config digest, command — whatever determines the
    shard results), and the shard plan (the ordered shard labels).  A
    resume whose fingerprint or plan differs is refused: a ledger only
    ever completes the run it was started for.

``journal.jsonl``
    Append-only, fsync'd after every line.  One JSON object per
    completed shard: the shard label, the artifact's relative path,
    its SHA-256, the names of the ELFF parts the artifact refers to,
    and the shard's record count and wall time.  A crash can tear at
    most the final line, which the reader skips; a shard re-recorded
    by a later attempt simply appends again (last entry wins).

``artifacts/<label-slug>-<hash8>.pkl``
    One pickled :class:`ShardArtifact` per completed shard, written
    via tmp + ``os.replace`` + fsync, so an artifact either exists in
    full or not at all.  The journal's SHA-256 is over these exact
    bytes; resume re-hashes before trusting them, and a tampered or
    truncated artifact is treated as not-done and re-run.

``parts/<sha256>.part``
    The ELFF bytes a simulate shard spooled (see
    :class:`~repro.pipeline.ElffSink`), published by content address
    (fsync + rename) before the artifact that refers to them, so a
    re-run shard republishes the same name with the same bytes.  The
    artifact pickles only the part refs; resume and the audit re-hash
    every journaled part, and a missing or damaged part makes its
    shard not-done, like a damaged artifact.

``LOCK``
    Holds the owning pid.  A second run on the same directory is
    refused while the owner is alive; a lock whose pid is dead is
    stale and silently reclaimed.  Reclaim is atomic: a contender
    renames the stale lock aside to a pid-unique tomb name before
    re-competing on the ``O_EXCL`` create, so when two processes race
    for the same stale lock exactly one ends up holding the directory
    and the other sees :class:`CheckpointLocked`.

:class:`RunCheckpoint` is the engine-facing object
(``run_sharded(checkpoint=...)``): :meth:`begin` verifies the
fingerprint and returns the verified completed shards, :meth:`record`
persists one freshly completed shard, :meth:`close` releases the
lock.  :func:`audit_run` is the read-only integrity check behind
``repro verify-run``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.atomicio import (
    PartDamaged,
    atomic_write_bytes,
    atomic_write_text,
    read_part,
)

#: Version tag of the ledger layout; a manifest with a different tag
#: is refused rather than misread.  ``/2`` journals spooled ELFF parts
#: beside the artifacts, whose sinks no longer carry their bytes.
LEDGER_SCHEMA = "repro.runstate/2"

MANIFEST_NAME = "MANIFEST.json"
JOURNAL_NAME = "journal.jsonl"
ARTIFACT_DIR = "artifacts"
PART_DIR = "parts"
LOCK_NAME = "LOCK"

#: Pickle protocol pinned so artifact bytes (and their recorded
#: hashes) do not depend on the writing interpreter's default.
PICKLE_PROTOCOL = 4


class RunStateError(RuntimeError):
    """Base class for checkpoint/ledger failures."""


class FingerprintMismatch(RunStateError):
    """The ledger was started for a different run than this one."""


class CheckpointLocked(RunStateError):
    """Another live process owns this checkpoint directory."""


class LedgerExists(RunStateError):
    """The directory already holds a ledger and resume was not
    requested."""


@dataclass
class ShardArtifact:
    """What the ledger persists for one completed shard.

    ``result`` is the shard's merge-ready value (a pipeline sink, a
    ``(StreamingAnalysis, ReadStats)`` pair, a frame — whatever the
    task returned); ``registry`` carries the shard's worker-local
    metrics when the run was instrumented, so a resumed run's
    aggregate counters match an uninterrupted one.
    """

    result: Any
    records: int = 0
    wall_seconds: float = 0.0
    registry: Any = None


def _canonical(value):
    """JSON-normalize *value* so fingerprints compare structurally
    (tuples become lists, keys sort)."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def config_digest(config) -> str:
    """A stable SHA-256 over a dataclass config's full field set."""
    payload = json.dumps(
        dataclasses.asdict(config), sort_keys=True, default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_fingerprint(command: str, **facets) -> dict:
    """Assemble a fingerprint dict for :class:`RunCheckpoint`.

    *facets* are whatever determines the shard results: the config
    digest and seed for simulate/report, the input paths and sizes for
    analyze.  The shard plan itself is recorded separately at
    :meth:`RunCheckpoint.begin`.
    """
    return _canonical({"command": command, **facets})


def artifact_name(label: str) -> str:
    """The artifact filename for a shard label.

    Labels contain ``:`` and arbitrary file-name characters; the slug
    keeps them readable and the label-hash suffix keeps distinct
    labels collision-free.
    """
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_") or "shard"
    token = hashlib.sha256(label.encode("utf-8")).hexdigest()[:8]
    return f"{slug}-{token}.pkl"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _part_names(result) -> list[str]:
    """The spooled ELFF parts a shard result refers to (a sink that
    spools parts names them via ``part_names()``)."""
    names = getattr(result, "part_names", None)
    return list(names()) if callable(names) else []


def _part_damage(directory: Path, name: str) -> tuple[str, str] | None:
    """``(status, detail)`` when journaled part *name* is missing or
    no longer hashes to its name; None when it is intact."""
    try:
        for _ in read_part(directory / PART_DIR, name):
            pass
    except PartDamaged:
        return "hash-mismatch", f"part {name[:12]}… fails its SHA-256"
    except OSError as error:
        return "missing", f"part {name[:12]}…: {error}"
    return None


def read_journal(path: Path) -> dict[str, dict]:
    """Parse the journal into ``{shard_id: entry}``, last entry wins.

    A torn final line (the one write a crash can interrupt) and any
    malformed line are skipped rather than fatal — the artifacts they
    would have pointed at simply count as not-done.
    """
    entries: dict[str, dict] = {}
    if not path.exists():
        return entries
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        shard_id = entry.get("shard_id")
        if isinstance(shard_id, str) and "artifact" in entry:
            entries[shard_id] = entry
    return entries


def append_journal_entry(path: Path, entry: Mapping) -> None:
    """Append one fsync'd JSON line to a journal at *path*.

    Safe for concurrent appenders: the line lands via a single
    ``os.write`` on an ``O_APPEND`` descriptor, which POSIX makes
    atomic for line-sized writes — distributed workers share one
    journal without a lock, and a reader sees whole lines (or one torn
    tail, which :func:`read_journal` skips).
    """
    data = (json.dumps(dict(entry)) + "\n").encode("utf-8")
    fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
    try:
        os.write(fd, data)
        try:
            os.fsync(fd)
        except OSError:
            pass
    finally:
        os.close(fd)


class RunCheckpoint:
    """Durable checkpoint/resume for one :func:`run_sharded` dispatch.

    Construct with the checkpoint *directory* and the run's
    *fingerprint* (see :func:`run_fingerprint`).  ``resume=False``
    (the default) starts a fresh ledger and refuses a directory that
    already holds one; ``resume=True`` verifies the existing ledger's
    fingerprint and shard plan against this run and loads every
    journaled shard whose artifact still hashes clean.
    """

    def __init__(
        self,
        directory: Path | str,
        fingerprint: Mapping,
        *,
        resume: bool = False,
    ):
        self.directory = Path(directory)
        self.fingerprint = _canonical(dict(fingerprint))
        self.resume = resume
        self._locked = False

    # -- paths -------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    @property
    def lock_path(self) -> Path:
        return self.directory / LOCK_NAME

    @property
    def artifact_dir(self) -> Path:
        return self.directory / ARTIFACT_DIR

    @property
    def part_dir(self) -> Path:
        """The spool shard sinks write their ELFF parts into."""
        return self.directory / PART_DIR

    # -- the lockfile ------------------------------------------------------

    def _acquire_lock(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        # The lock is created by hard-linking a pid-unique tmp file
        # that already contains our pid: like O_EXCL, link picks
        # exactly one winner, but the lock becomes visible with its
        # owner already recorded — no window where a contender can
        # read a freshly created, still-empty lock and misjudge it
        # stale.
        tmp = self.lock_path.with_name(f"{LOCK_NAME}.{os.getpid()}.tmp")
        tmp.write_text(str(os.getpid()))
        try:
            while True:
                try:
                    os.link(tmp, self.lock_path)
                except FileExistsError:
                    pass
                else:
                    self._locked = True
                    return
                owner = self._lock_owner()
                if owner is not None:
                    raise CheckpointLocked(
                        f"checkpoint directory {self.directory} is in use "
                        f"by pid {owner} (lockfile {self.lock_path}); "
                        "refusing a concurrent run"
                    ) from None
                # Stale lock: the recorded pid is gone (that is the
                # crash this module exists for) — reclaim it.  The
                # reclaim must be atomic: a bare unlink would let two
                # contenders each remove-and-create, both believing
                # they won.  Renaming the stale file aside to a
                # pid-unique tomb succeeds for exactly one contender
                # (the other gets ENOENT), and either way the winner is
                # decided by the link create on the next loop pass.
                tomb = self.lock_path.with_name(
                    f"{LOCK_NAME}.stale-{os.getpid()}"
                )
                try:
                    os.rename(self.lock_path, tomb)
                except FileNotFoundError:
                    continue  # lost the rename race; re-compete
                # The lock we tombed may not be the stale one we
                # inspected: a rival can reclaim the stale lock and
                # install its own between our staleness check and our
                # rename.  The tomb's content says whose lock we took —
                # a live owner means we must put it back (link never
                # clobbers a newer lock) and re-compete, which raises
                # CheckpointLocked against the restored owner.
                if self._lock_owner(tomb) is not None:
                    try:
                        os.link(tomb, self.lock_path)
                    except FileExistsError:
                        # A third contender locked meanwhile.  Leave
                        # the tomb so the displaced owner's lock stays
                        # inspectable rather than silently vanishing.
                        continue
                tomb.unlink(missing_ok=True)
        finally:
            tmp.unlink(missing_ok=True)

    def _lock_owner(self, path: Path | None = None) -> int | None:
        """The live pid holding the lock at *path* (default: the run's
        lockfile), or None if the lock is stale/unreadable."""
        try:
            pid = int((path or self.lock_path).read_text().strip())
        except (OSError, ValueError):
            return None
        try:
            os.kill(pid, 0)
        except (ProcessLookupError, OverflowError):
            # No such process (or a pid no real process could have):
            # the lock is stale.
            return None
        except PermissionError:
            pass  # alive, just not ours to signal
        return pid

    # -- lifecycle ---------------------------------------------------------

    def begin(self, labels: Sequence[str]) -> dict[str, ShardArtifact]:
        """Open the ledger for a run over *labels*.

        Acquires the lock, writes or verifies the manifest, and
        returns the verified completed shards as ``{label:
        ShardArtifact}`` — empty for a fresh run.  Raises
        :class:`FingerprintMismatch` when the existing ledger belongs
        to a different run, :class:`LedgerExists` when the directory
        already holds a ledger and ``resume`` was not requested, and
        :class:`CheckpointLocked` on a live concurrent run.
        """
        labels = [str(label) for label in labels]
        if len(set(labels)) != len(labels):
            raise RunStateError(
                "checkpointing requires unique shard labels; got "
                f"duplicates in {labels!r}"
            )
        self._acquire_lock()
        try:
            if self.manifest_path.exists():
                if not self.resume:
                    raise LedgerExists(
                        f"{self.directory} already holds a run ledger; "
                        "pass --resume to continue it or choose a fresh "
                        "--checkpoint-dir"
                    )
                self._verify_manifest(labels)
                return self._load_verified(labels)
            self._write_manifest(labels)
            return {}
        except BaseException:
            self.close()
            raise

    def load_completed(self, labels: Sequence[str]) -> dict[str, ShardArtifact]:
        """Re-read the journal and return every verified completed
        shard among *labels*.

        Unlike :meth:`begin`, this can be called repeatedly while a
        run is in flight — the distributed coordinator polls it to
        watch workers append to the shared journal.
        """
        return self._load_verified([str(label) for label in labels])

    def _write_manifest(self, labels: list[str]) -> None:
        manifest = {
            "schema": LEDGER_SCHEMA,
            "fingerprint": self.fingerprint,
            "shards": labels,
        }
        atomic_write_text(
            self.manifest_path, json.dumps(manifest, indent=2) + "\n"
        )

    def _verify_manifest(self, labels: list[str]) -> None:
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise RunStateError(
                f"unreadable run manifest {self.manifest_path}: {error}"
            ) from error
        if manifest.get("schema") != LEDGER_SCHEMA:
            raise FingerprintMismatch(
                f"{self.directory} uses ledger schema "
                f"{manifest.get('schema')!r}, this build writes "
                f"{LEDGER_SCHEMA!r}"
            )
        stored = manifest.get("fingerprint")
        if stored != self.fingerprint:
            diff = sorted(
                key
                for key in set(stored or {}) | set(self.fingerprint)
                if (stored or {}).get(key) != self.fingerprint.get(key)
            )
            raise FingerprintMismatch(
                f"{self.directory} belongs to a different run — "
                f"fingerprint differs on {diff}: ledger has "
                f"{ {k: (stored or {}).get(k) for k in diff} }, this run "
                f"has { {k: self.fingerprint.get(k) for k in diff} }"
            )
        if manifest.get("shards") != labels:
            raise FingerprintMismatch(
                f"{self.directory} was planned over "
                f"{manifest.get('shards')!r}, this run shards into "
                f"{labels!r}"
            )

    def _load_verified(self, labels: list[str]) -> dict[str, ShardArtifact]:
        wanted = set(labels)
        loaded: dict[str, ShardArtifact] = {}
        for shard_id, entry in read_journal(self.journal_path).items():
            if shard_id not in wanted:
                continue
            artifact = self._read_artifact(entry)
            if artifact is not None:
                loaded[shard_id] = artifact
        return loaded

    def _read_artifact(self, entry: dict) -> ShardArtifact | None:
        """Load one journaled artifact, or None if it fails
        verification (missing, hash mismatch, unpicklable, or a
        journaled part missing or damaged)."""
        path = self.directory / entry["artifact"]
        try:
            data = path.read_bytes()
        except OSError:
            return None
        if _sha256(data) != entry.get("sha256"):
            return None
        if any(
            _part_damage(self.directory, name)
            for name in entry.get("parts", ())
        ):
            return None
        try:
            artifact = pickle.loads(data)
        except Exception:
            return None
        if not isinstance(artifact, ShardArtifact):
            return None
        return artifact

    def record(
        self,
        label: str,
        result,
        *,
        records: int = 0,
        wall_seconds: float = 0.0,
        registry=None,
    ) -> None:
        """Persist one completed shard: atomic artifact, then a
        fsync'd journal line pointing at it and at its ELFF parts.

        Ordering is the durability argument: the parts are sealed
        (fsync + rename) as the result pickles, and the artifact is
        fully on disk (tmp + replace + fsync) before the journal names
        it, so a journal entry always points at complete bytes, and a
        crash between the steps merely re-runs one shard.
        """
        artifact = ShardArtifact(
            result=result,
            records=records,
            wall_seconds=wall_seconds,
            registry=registry,
        )
        data = pickle.dumps(artifact, protocol=PICKLE_PROTOCOL)
        self.artifact_dir.mkdir(parents=True, exist_ok=True)
        relative = f"{ARTIFACT_DIR}/{artifact_name(label)}"
        atomic_write_bytes(self.directory / relative, data, unique_tmp=True)
        append_journal_entry(self.journal_path, {
            "shard_id": label,
            "artifact": relative,
            "sha256": _sha256(data),
            "parts": _part_names(result),
            "records": records,
            "wall_seconds": wall_seconds,
        })

    def close(self) -> None:
        """Release the lock (idempotent)."""
        if self._locked:
            self.lock_path.unlink(missing_ok=True)
            self._locked = False

    def __enter__(self) -> "RunCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- the read-only audit (repro verify-run) ----------------------------------

@dataclass
class ShardAuditEntry:
    """One shard's verdict in a ledger audit."""

    shard_id: str
    status: str  # "ok" | "pending" | "missing" | "hash-mismatch" | "unreadable"
    detail: str = ""

    @property
    def damaged(self) -> bool:
        return self.status in ("missing", "hash-mismatch", "unreadable")


@dataclass
class RunAudit:
    """The full result of auditing one checkpoint directory."""

    directory: Path
    errors: list[str] = field(default_factory=list)
    entries: list[ShardAuditEntry] = field(default_factory=list)
    #: the manifest's recorded run identity (command, config digest,
    #: regime, …) — None when the manifest was unreadable.
    fingerprint: dict | None = None

    @property
    def ok(self) -> bool:
        """True when the ledger is readable and undamaged (pending
        shards are not damage — they are simply not done yet)."""
        return not self.errors and not any(
            entry.damaged for entry in self.entries
        )

    @property
    def completed(self) -> int:
        return sum(1 for entry in self.entries if entry.status == "ok")

    def to_json(self) -> dict:
        """The machine-readable audit (``repro verify-run --json``).

        Groups shards by verdict so CI drills can assert on structure
        — ``completed``/``pending`` are plain label lists, ``damaged``
        keeps the per-shard status and detail.
        """
        return {
            "schema": "repro.verify/1",
            "directory": str(self.directory),
            "ok": self.ok,
            "fingerprint": self.fingerprint,
            "errors": list(self.errors),
            "counts": {
                "planned": len(self.entries),
                "completed": self.completed,
                "pending": sum(
                    1 for e in self.entries if e.status == "pending"
                ),
                "damaged": sum(1 for e in self.entries if e.damaged),
            },
            "shards": {
                "completed": [
                    e.shard_id for e in self.entries if e.status == "ok"
                ],
                "pending": [
                    e.shard_id for e in self.entries if e.status == "pending"
                ],
                "damaged": [
                    {
                        "shard_id": e.shard_id,
                        "status": e.status,
                        "detail": e.detail,
                    }
                    for e in self.entries
                    if e.damaged
                ],
            },
        }


def audit_run(directory: Path | str) -> RunAudit:
    """Audit a checkpoint directory: manifest readability, journal
    integrity, and the SHA-256 of every journaled artifact and part.

    Never mutates the directory.  Shards planned in the manifest but
    absent from the journal report as ``pending``; a journal entry
    whose artifact or any of whose parts is missing or fails its hash,
    or whose artifact does not unpickle, reports as damage.
    """
    directory = Path(directory)
    audit = RunAudit(directory=directory)
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        audit.errors.append(f"unreadable manifest {manifest_path}: {error}")
        return audit
    if manifest.get("schema") != LEDGER_SCHEMA:
        audit.errors.append(
            f"unknown ledger schema {manifest.get('schema')!r} "
            f"(expected {LEDGER_SCHEMA!r})"
        )
        return audit
    stored = manifest.get("fingerprint")
    audit.fingerprint = stored if isinstance(stored, dict) else None
    planned = manifest.get("shards") or []
    journal = read_journal(directory / JOURNAL_NAME)
    for shard_id in planned:
        entry = journal.pop(shard_id, None)
        audit.entries.append(_audit_entry(directory, shard_id, entry))
    for shard_id, entry in journal.items():  # journaled but unplanned
        checked = _audit_entry(directory, shard_id, entry)
        checked.detail = (checked.detail + " (not in the shard plan)").strip()
        audit.entries.append(checked)
    return audit


def _audit_entry(
    directory: Path, shard_id: str, entry: dict | None
) -> ShardAuditEntry:
    if entry is None:
        return ShardAuditEntry(shard_id, "pending", "no journal entry")
    path = directory / entry["artifact"]
    try:
        data = path.read_bytes()
    except OSError as error:
        return ShardAuditEntry(shard_id, "missing", str(error))
    digest = _sha256(data)
    if digest != entry.get("sha256"):
        return ShardAuditEntry(
            shard_id,
            "hash-mismatch",
            f"journal records {str(entry.get('sha256'))[:12]}…, "
            f"artifact hashes {digest[:12]}…",
        )
    try:
        artifact = pickle.loads(data)
    except Exception as error:
        return ShardAuditEntry(shard_id, "unreadable", repr(error))
    if not isinstance(artifact, ShardArtifact):
        return ShardAuditEntry(
            shard_id, "unreadable", f"not a ShardArtifact: {type(artifact)}"
        )
    parts = entry.get("parts", ())
    for name in parts:
        damage = _part_damage(directory, name)
        if damage is not None:
            return ShardAuditEntry(shard_id, *damage)
    return ShardAuditEntry(
        shard_id, "ok",
        f"{artifact.records} records, {len(parts)} parts, "
        f"sha256 {digest[:12]}…",
    )
