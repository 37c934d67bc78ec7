"""Durable run state: crash-safe checkpoint/resume for sharded runs.

PR 4's resilience layer keeps a run alive through *in-process* faults
(retries, quarantine, corrupted reads); this package covers the
failure those cannot: the process itself dying mid-run.  A checkpoint
directory holds an atomic, checksummed run ledger — manifest
(fingerprint + shard plan), an append-only fsync'd journal, one
pickled artifact per completed shard, and the content-addressed ELFF
parts simulate shards spool — and
``run_sharded(checkpoint=...)`` loads verified completed shards into
the merge instead of re-running them.  Because every shard replays a
deterministic stream and every sink round-trips through pickle (ELFF
sinks as refs to their verified parts), a killed-and-resumed run
produces byte-identical output to an uninterrupted one.

The CLI surface is ``--checkpoint-dir``/``--resume`` on
``simulate``/``analyze``/``report`` and ``repro verify-run DIR``
(:func:`audit_run`) for offline integrity checks.
"""

from repro.runstate.ledger import (
    ARTIFACT_DIR,
    JOURNAL_NAME,
    LEDGER_SCHEMA,
    LOCK_NAME,
    MANIFEST_NAME,
    PART_DIR,
    CheckpointLocked,
    FingerprintMismatch,
    LedgerExists,
    RunAudit,
    RunCheckpoint,
    RunStateError,
    ShardArtifact,
    ShardAuditEntry,
    append_journal_entry,
    artifact_name,
    audit_run,
    config_digest,
    read_journal,
    run_fingerprint,
)

__all__ = [
    "append_journal_entry",
    "ARTIFACT_DIR",
    "JOURNAL_NAME",
    "LEDGER_SCHEMA",
    "LOCK_NAME",
    "MANIFEST_NAME",
    "PART_DIR",
    "CheckpointLocked",
    "FingerprintMismatch",
    "LedgerExists",
    "RunAudit",
    "RunCheckpoint",
    "RunStateError",
    "ShardArtifact",
    "ShardAuditEntry",
    "artifact_name",
    "audit_run",
    "config_digest",
    "read_journal",
    "run_fingerprint",
]
