"""Tests for the durable run ledger and checkpoint/resume
(repro.runstate + run_sharded(checkpoint=...) + the CLI surface).

The load-bearing invariants:

* a resumed run produces byte-identical output to an uninterrupted
  one, at every worker count, including after a real SIGKILL;
* resumed shards are provably *not* re-executed (pinned by resuming
  under a fault plan that would kill any dispatched shard, and by the
  ``engine.shards.resumed`` counter);
* a tampered or truncated artifact is detected by ``repro verify-run``
  and transparently re-run on resume;
* a ledger only ever completes the run it was started for
  (fingerprint, shard plan, and schema mismatches are refused), and
  two live processes cannot share one.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import RetryPolicy, run_sharded
from repro.faults import FaultPlan, FaultRule, parse_fault_plan
from repro.metrics import MetricsRegistry, current_registry
from repro.runstate import (
    LEDGER_SCHEMA,
    CheckpointLocked,
    FingerprintMismatch,
    LedgerExists,
    RunCheckpoint,
    RunStateError,
    ShardArtifact,
    artifact_name,
    audit_run,
    config_digest,
    read_journal,
    run_fingerprint,
)

#: A plan that permanently crashes every shard at dispatch: resuming a
#: complete ledger under it only succeeds if nothing is re-executed.
CRASH_ALL = FaultPlan(rules=(
    FaultRule(site="shard.start", kind="crash"),
))

FP = run_fingerprint("test", seed=7)


def double(value: int) -> int:
    """Module-level so the pool path can pickle it."""
    return value * 2


def counted_double(value: int) -> int:
    """`double` that declares its records and counts one more thing,
    the way the real shard functions instrument themselves."""
    registry = current_registry()
    if registry is not None:
        registry.inc("shard.records", value)
        registry.inc("task.doubled")
    return value * 2


def logged_run(path: str) -> str:
    """Appends one line to *path* per execution, so a test can count
    executions across pool processes."""
    with open(path, "a") as handle:
        handle.write("ran\n")
    return path


class _UnwritableLedger(RunCheckpoint):
    """A ledger whose disk is full."""

    def record(self, label, artifact):
        raise OSError(28, "No space left on device")


def _complete_ledger(directory, values=(1, 2, 3)) -> list[str]:
    """Run `double` to completion under a fresh checkpoint; returns
    the shard labels."""
    labels = [f"item:{v}" for v in values]
    checkpoint = RunCheckpoint(directory, FP)
    assert run_sharded(
        double, values, labels=labels, checkpoint=checkpoint
    ) == [v * 2 for v in values]
    return labels


# -- fingerprint and naming helpers ------------------------------------------

class TestFingerprints:
    def test_config_digest_is_stable_and_sensitive(self):
        from repro.workload.config import small_config

        a = config_digest(small_config(5_000, seed=1))
        assert a == config_digest(small_config(5_000, seed=1))
        assert a != config_digest(small_config(5_000, seed=2))
        assert len(a) == 64

    def test_run_fingerprint_normalizes_tuples(self):
        assert run_fingerprint("x", sizes=(1, 2)) == \
            run_fingerprint("x", sizes=[1, 2])

    def test_artifact_names_are_safe_and_collision_free(self):
        a = artifact_name("day:2011-08-03")
        b = artifact_name("day/2011-08-03")
        assert a.endswith(".pkl")
        assert "/" not in b and ":" not in a
        assert a != b  # slugs collide, hash suffix does not


class TestJournal:
    def test_last_entry_wins_and_torn_line_skipped(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(
            json.dumps({"shard_id": "s1", "artifact": "a1", "sha256": "x"})
            + "\n"
            + json.dumps({"shard_id": "s1", "artifact": "a2", "sha256": "y"})
            + "\n"
            + '{"shard_id": "s2", "artifact": "torn-by-a-cra'
        )
        entries = read_journal(journal)
        assert entries.keys() == {"s1"}
        assert entries["s1"]["artifact"] == "a2"

    def test_missing_journal_is_empty(self, tmp_path):
        assert read_journal(tmp_path / "nope.jsonl") == {}


# -- the ledger lifecycle ----------------------------------------------------

class TestRunCheckpoint:
    def test_fresh_run_then_full_resume(self, tmp_path):
        labels = _complete_ledger(tmp_path / "run")
        resumed = RunCheckpoint(tmp_path / "run", FP, resume=True)
        with resumed:
            loaded = resumed.begin(labels)
        assert sorted(loaded) == sorted(labels)
        assert [loaded[f"item:{v}"].result for v in (1, 2, 3)] == [2, 4, 6]

    def test_second_fresh_run_refused(self, tmp_path):
        labels = _complete_ledger(tmp_path / "run")
        again = RunCheckpoint(tmp_path / "run", FP)
        with pytest.raises(LedgerExists, match="--resume"):
            again.begin(labels)
        assert not (tmp_path / "run" / "LOCK").exists()  # released

    def test_fingerprint_mismatch_names_differing_keys(self, tmp_path):
        labels = _complete_ledger(tmp_path / "run")
        other = RunCheckpoint(
            tmp_path / "run", run_fingerprint("test", seed=8), resume=True
        )
        with pytest.raises(FingerprintMismatch, match="seed"):
            other.begin(labels)

    def test_shard_plan_mismatch_refused(self, tmp_path):
        _complete_ledger(tmp_path / "run")
        other = RunCheckpoint(tmp_path / "run", FP, resume=True)
        with pytest.raises(FingerprintMismatch, match="planned over"):
            other.begin(["item:1", "item:2"])

    def test_duplicate_labels_refused(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run", FP)
        with pytest.raises(RunStateError, match="unique shard labels"):
            checkpoint.begin(["s1", "s1"])

    def test_live_lock_rejects_concurrent_run(self, tmp_path):
        holder = RunCheckpoint(tmp_path / "run", FP)
        holder.begin(["s1"])
        try:
            intruder = RunCheckpoint(tmp_path / "run", FP, resume=True)
            with pytest.raises(CheckpointLocked, match="in use by pid"):
                intruder.begin(["s1"])
        finally:
            holder.close()

    def test_stale_lock_is_reclaimed(self, tmp_path):
        labels = _complete_ledger(tmp_path / "run")
        # Forge a lock owned by a pid that cannot be alive.
        (tmp_path / "run" / "LOCK").write_text("4000000000")
        resumed = RunCheckpoint(tmp_path / "run", FP, resume=True)
        with resumed:
            assert sorted(resumed.begin(labels)) == sorted(labels)

    def test_tampered_artifact_not_loaded(self, tmp_path):
        labels = _complete_ledger(tmp_path / "run")
        victim = tmp_path / "run" / "artifacts" / artifact_name("item:2")
        data = bytearray(victim.read_bytes())
        data[5] ^= 0xFF
        victim.write_bytes(bytes(data))
        resumed = RunCheckpoint(tmp_path / "run", FP, resume=True)
        with resumed:
            loaded = resumed.begin(labels)
        assert sorted(loaded) == ["item:1", "item:3"]

    def test_sink_artifact_round_trips_exactly(self, tmp_path):
        """A pipeline sink — the real payload simulate shards journal —
        survives the artifact pickle/hash/reload loop: the artifact
        carries its part refs, the journal names the parts, and the
        reloaded sink writes the original bytes."""
        from repro.logmodel.elff import write_log
        from repro.pipeline import ElffSink
        from tests.helpers import make_record

        records = [make_record(cs_uri_path=f"/p{i}") for i in range(5)]
        checkpoint = RunCheckpoint(tmp_path / "run", FP)
        sink = ElffSink(checkpoint.part_dir)
        for record in records:
            sink.add(record)
        with checkpoint:
            checkpoint.begin(["s1"])
            checkpoint.record("s1", ShardArtifact(sink, records=len(sink)))
        [entry] = read_journal(tmp_path / "run" / "journal.jsonl").values()
        assert entry["parts"] == sink.part_names()
        resumed = RunCheckpoint(tmp_path / "run", FP, resume=True)
        with resumed:
            loaded = resumed.begin(["s1"])
        assert loaded["s1"].result == sink
        assert loaded["s1"].result.parts == sink.parts
        write_log(records, tmp_path / "legacy.log")
        loaded["s1"].result.write_to(tmp_path / "resumed.log")
        assert (tmp_path / "resumed.log").read_bytes() == \
            (tmp_path / "legacy.log").read_bytes()

    def test_damaged_part_not_loaded(self, tmp_path):
        """One flipped byte in a journaled part makes its shard
        not-done; the other shards still load."""
        from repro.pipeline import ElffSink
        from tests.helpers import make_record

        labels = ["s1", "s2"]
        checkpoint = RunCheckpoint(tmp_path / "run", FP)
        with checkpoint:
            checkpoint.begin(labels)
            for index, label in enumerate(labels):
                sink = ElffSink(checkpoint.part_dir).consume(
                    [make_record(cs_uri_path=f"/{label}")] * (index + 1)
                )
                checkpoint.record(
                    label, ShardArtifact(sink, records=len(sink))
                )
        [victim] = read_journal(
            tmp_path / "run" / "journal.jsonl"
        )["s2"]["parts"]
        part = tmp_path / "run" / "parts" / f"{victim}.part"
        data = bytearray(part.read_bytes())
        data[len(data) // 2] ^= 0x01
        part.write_bytes(bytes(data))
        resumed = RunCheckpoint(tmp_path / "run", FP, resume=True)
        with resumed:
            assert sorted(resumed.begin(labels)) == ["s1"]

    def test_schema_1_ledger_refused(self, tmp_path):
        """A ledger written before parts were journaled holds sinks
        with their bytes inline; this build refuses it by schema."""
        _complete_ledger(tmp_path / "run")
        manifest_path = tmp_path / "run" / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = "repro.runstate/1"
        manifest_path.write_text(json.dumps(manifest))
        resumed = RunCheckpoint(tmp_path / "run", FP, resume=True)
        with pytest.raises(FingerprintMismatch, match="runstate/1"):
            resumed.begin(["item:1", "item:2", "item:3"])
        assert "runstate/1" in audit_run(tmp_path / "run").errors[0]

    def test_missing_artifact_not_loaded(self, tmp_path):
        labels = _complete_ledger(tmp_path / "run")
        (tmp_path / "run" / "artifacts" / artifact_name("item:1")).unlink()
        resumed = RunCheckpoint(tmp_path / "run", FP, resume=True)
        with resumed:
            assert sorted(resumed.begin(labels)) == ["item:2", "item:3"]


# -- the engine integration --------------------------------------------------

class TestEngineResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_never_redispatches_completed_shards(
        self, tmp_path, workers
    ):
        """A complete ledger resumes cleanly even under a fault plan
        that would permanently crash any dispatched shard — the proof
        that resumed shards never re-execute."""
        labels = _complete_ledger(tmp_path / "run")
        metrics = MetricsRegistry()
        resumed = RunCheckpoint(tmp_path / "run", FP, resume=True)
        results = run_sharded(
            double, [1, 2, 3], workers=workers, labels=labels,
            metrics=metrics, checkpoint=resumed, fault_plan=CRASH_ALL,
            retry=RetryPolicy(max_retries=0, backoff_base=0.0),
        )
        assert results == [2, 4, 6]
        assert metrics.counters["engine.shards.resumed"] == 3

    def test_partial_resume_runs_only_missing_shards(self, tmp_path):
        labels = _complete_ledger(tmp_path / "run")
        (tmp_path / "run" / "artifacts" / artifact_name("item:2")).unlink()
        metrics = MetricsRegistry()
        resumed = RunCheckpoint(tmp_path / "run", FP, resume=True)
        results = run_sharded(
            double, [1, 2, 3], labels=labels, metrics=metrics,
            checkpoint=resumed,
        )
        assert results == [2, 4, 6]
        assert metrics.counters["engine.shards.resumed"] == 2
        # The re-run shard was journaled again: the ledger is complete.
        audit = audit_run(tmp_path / "run")
        assert audit.ok and audit.completed == 3

    def test_resumed_metrics_match_uninterrupted_run(
        self, tmp_path, monkeypatch
    ):
        """A ledger written without metrics resumes (one shard
        re-executed, two loaded) into the counters and per-shard
        records of an uninterrupted metered run."""
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        labels = ["item:1", "item:2", "item:3"]
        for workers in (1, 2):
            clean = MetricsRegistry()
            run_sharded(counted_double, [1, 2, 3], workers=workers,
                        labels=labels, metrics=clean)
            ledger = tmp_path / f"run-{workers}"
            run_sharded(counted_double, [1, 2, 3], workers=workers,
                        labels=labels, checkpoint=RunCheckpoint(ledger, FP))
            (ledger / "artifacts" / artifact_name("item:2")).unlink()
            resumed = MetricsRegistry()
            run_sharded(counted_double, [1, 2, 3], workers=workers,
                        labels=labels, metrics=resumed,
                        checkpoint=RunCheckpoint(ledger, FP, resume=True))
            assert resumed.counters.pop("engine.shards.resumed") == 2
            assert resumed.counters == clean.counters
            assert clean.counters["task.doubled"] == 3
            assert [(s.shard_id, s.records) for s in resumed.shards] == \
                [(s.shard_id, s.records) for s in clean.shards] == \
                [("item:1", 1), ("item:2", 2), ("item:3", 3)]

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_ledger_write_error_is_not_a_shard_failure(
        self, tmp_path, monkeypatch, workers, strict
    ):
        """Recording happens once, outside the retry budget: a failed
        journal write propagates after one execution of the shard,
        instead of re-running it (or quarantining it in partial mode)."""
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        logs = [str(tmp_path / "shard-0.runs"), str(tmp_path / "shard-1.runs")]
        with pytest.raises(OSError, match="No space left"):
            run_sharded(
                logged_run, logs, workers=workers, strict=strict,
                retry=RetryPolicy(max_retries=2, backoff_base=0.0),
                checkpoint=_UnwritableLedger(tmp_path / "run", FP),
            )
        assert Path(logs[0]).read_text() == "ran\n"
        assert not (tmp_path / "run" / "LOCK").exists()

    def test_checkpoint_lock_released_after_run(self, tmp_path):
        _complete_ledger(tmp_path / "run")
        assert not (tmp_path / "run" / "LOCK").exists()


# -- the audit (repro verify-run) --------------------------------------------

class TestAuditRun:
    def test_clean_ledger_is_ok(self, tmp_path):
        _complete_ledger(tmp_path / "run")
        audit = audit_run(tmp_path / "run")
        assert audit.ok
        assert audit.completed == 3
        assert all(entry.status == "ok" for entry in audit.entries)

    def test_pending_shards_are_not_damage(self, tmp_path):
        _complete_ledger(tmp_path / "run")
        journal = tmp_path / "run" / "journal.jsonl"
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n")
        audit = audit_run(tmp_path / "run")
        assert audit.ok
        statuses = {e.shard_id: e.status for e in audit.entries}
        assert list(statuses.values()).count("pending") == 1

    def test_tampered_artifact_reports_hash_mismatch(self, tmp_path):
        _complete_ledger(tmp_path / "run")
        victim = tmp_path / "run" / "artifacts" / artifact_name("item:3")
        victim.write_bytes(victim.read_bytes() + b"trailing garbage")
        audit = audit_run(tmp_path / "run")
        assert not audit.ok
        damaged = [e for e in audit.entries if e.damaged]
        assert [e.shard_id for e in damaged] == ["item:3"]
        assert damaged[0].status == "hash-mismatch"

    def test_missing_artifact_reports_missing(self, tmp_path):
        _complete_ledger(tmp_path / "run")
        (tmp_path / "run" / "artifacts" / artifact_name("item:1")).unlink()
        audit = audit_run(tmp_path / "run")
        assert not audit.ok
        assert any(e.status == "missing" for e in audit.entries)

    def test_deleted_part_reports_missing(self, tmp_path):
        from repro.cli import main

        ledger = tmp_path / "ledger"
        assert main([
            "simulate", "--requests", "600", "--seed", "4", "--per-day",
            "--out", str(tmp_path / "out"), "--checkpoint-dir", str(ledger),
        ]) == 0
        entry = read_journal(ledger / "journal.jsonl")["day:2011-08-02"]
        [name] = entry["parts"]
        (ledger / "parts" / f"{name}.part").unlink()
        audit = audit_run(ledger)
        assert not audit.ok
        damaged = [e for e in audit.entries if e.damaged]
        assert [e.shard_id for e in damaged] == ["day:2011-08-02"]
        assert damaged[0].status == "missing"
        assert name[:12] in damaged[0].detail

    def test_unreadable_manifest_is_an_error(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text("{not json")
        audit = audit_run(tmp_path)
        assert not audit.ok
        assert "unreadable manifest" in audit.errors[0]

    def test_foreign_schema_is_an_error(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text(json.dumps(
            {"schema": "repro.runstate/99", "fingerprint": {}, "shards": []}
        ))
        audit = audit_run(tmp_path)
        assert not audit.ok
        assert LEDGER_SCHEMA in audit.errors[0]


# -- env-knob parse errors ---------------------------------------------------

class TestEnvKnobErrors:
    """Malformed environment knobs must raise errors that name the
    variable and quote the offending text."""

    @pytest.mark.parametrize("spec, fragment", [
        ("seed=abc", "seed=abc"),
        ("rate=lots", "rate=lots"),
        ("turbo=1", "unknown key"),
        ("kill=", "kill needs a shard id"),
        ("rate=1.5", "must be in [0, 1]"),
    ])
    def test_bad_fault_plan(self, spec, fragment):
        with pytest.raises(ValueError) as excinfo:
            parse_fault_plan(spec)
        assert "REPRO_FAULT_PLAN" in str(excinfo.value)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize("text", ["three", "-1", "2.5"])
    def test_bad_max_shard_retries(self, monkeypatch, text):
        monkeypatch.setenv("REPRO_MAX_SHARD_RETRIES", text)
        with pytest.raises(ValueError) as excinfo:
            RetryPolicy.from_env()
        message = str(excinfo.value)
        assert "REPRO_MAX_SHARD_RETRIES" in message
        assert repr(text) in message

    @pytest.mark.parametrize("text", ["soon", "0", "-3"])
    def test_bad_shard_timeout(self, monkeypatch, text):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", text)
        with pytest.raises(ValueError) as excinfo:
            RetryPolicy.from_env()
        message = str(excinfo.value)
        assert "REPRO_SHARD_TIMEOUT" in message
        assert repr(text) in message

    def test_kill_spec_builds_targeted_rule(self):
        plan = parse_fault_plan("kill=day:2011-08-04")
        assert len(plan.rules) == 1
        rule = plan.rules[0]
        assert rule.kind == "kill"
        assert rule.shard_id == "day:2011-08-04"
        assert rule.site == "shard.start"


# -- the CLI surface ---------------------------------------------------------

def _run_cli(*argv, env_extra=None, cwd=None):
    """Run ``python -m repro ...`` in a subprocess (needed so a SIGKILL
    fault kills the child, not the test runner)."""
    import repro

    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    env.pop("REPRO_FAULT_PLAN", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


@pytest.mark.chaos
class TestKillResumeCli:
    """The acceptance scenario: a SIGKILLed simulate resumed via
    --resume is byte-identical to an uninterrupted run."""

    SIM = ["simulate", "--requests", "3000", "--seed", "13", "--per-day"]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sigkilled_simulate_resumes_byte_identical(
        self, tmp_path, workers
    ):
        clean = _run_cli(*self.SIM, "--out", str(tmp_path / "clean"))
        assert clean.returncode == 0
        killed = _run_cli(
            *self.SIM, "--out", str(tmp_path / "dead"),
            "--workers", str(workers),
            "--checkpoint-dir", str(tmp_path / "ledger"),
            env_extra={"REPRO_FAULT_PLAN": "kill=day:2011-08-04"},
        )
        assert killed.returncode == -signal.SIGKILL
        # The ledger survived the kill with at least one shard done.
        before = audit_run(tmp_path / "ledger")
        assert before.completed >= 1
        assert before.completed < 9
        resumed = _run_cli(
            *self.SIM, "--out", str(tmp_path / "resumed"),
            "--workers", str(workers),
            "--checkpoint-dir", str(tmp_path / "ledger"), "--resume",
            "--metrics", str(tmp_path / "metrics.json"),
        )
        assert resumed.returncode == 0, resumed.stderr
        clean_files = sorted((tmp_path / "clean").iterdir())
        resumed_files = sorted((tmp_path / "resumed").iterdir())
        assert [p.name for p in clean_files] == \
            [p.name for p in resumed_files]
        for a, b in zip(clean_files, resumed_files):
            assert a.read_bytes() == b.read_bytes(), a.name
        document = json.loads((tmp_path / "metrics.json").read_text())
        assert document["totals"]["resumed_shards"] == before.completed

    def test_analyze_streaming_resume(self, tmp_path):
        assert _run_cli(
            *self.SIM, "--out", str(tmp_path / "logs")
        ).returncode == 0
        logs = sorted(str(p) for p in (tmp_path / "logs").glob("*.log"))
        first = _run_cli(
            "analyze", *logs, "--streaming",
            "--checkpoint-dir", str(tmp_path / "ledger"),
        )
        assert first.returncode == 0
        again = _run_cli(
            "analyze", *logs, "--streaming",
            "--checkpoint-dir", str(tmp_path / "ledger"), "--resume",
            "--metrics", str(tmp_path / "metrics.json"),
        )
        assert again.returncode == 0, again.stderr
        assert again.stdout.startswith(first.stdout)  # + metrics line
        document = json.loads((tmp_path / "metrics.json").read_text())
        assert document["totals"]["resumed_shards"] == len(logs)


class TestListFormFrameLedger:
    def test_report_resumes_list_form_artifacts(
        self, tmp_path, monkeypatch, capsys
    ):
        """Ledgers written before ``FrameSink`` sealed its passes into
        array chunks pickle each shard's sink as its open cell lists.
        ``report --resume`` loads those artifacts, re-runs nothing and
        prints the bytes of a run without a ledger."""
        from repro.cli import main
        from repro.pipeline import FrameSink

        markdown = tmp_path / "report.md"
        argv = ["report", "--requests", "3000", "--seed", "7",
                "--markdown", str(markdown)]
        assert main(argv) == 0
        clean = capsys.readouterr().out, markdown.read_bytes()

        def list_form(self):
            frame = self.frame()
            return {"_buffers": {
                name: frame.col(name).tolist() for name in frame.column_names
            }}

        ledger = tmp_path / "ledger"
        with monkeypatch.context() as patched:
            patched.setattr(FrameSink, "__getstate__", list_form)
            assert main([*argv, "--checkpoint-dir", str(ledger)]) == 0
        capsys.readouterr()
        journal = read_journal(ledger / "journal.jsonl")
        assert journal and all(
            b"_buffers" in (ledger / entry["artifact"]).read_bytes()
            for entry in journal.values()
        )
        markdown.unlink()
        assert main([
            *argv, "--checkpoint-dir", str(ledger), "--resume",
        ]) == 0
        assert (capsys.readouterr().out, markdown.read_bytes()) == clean
        # No shard re-ran: a re-run would have journaled a new artifact.
        assert read_journal(ledger / "journal.jsonl") == journal


class TestPartTamperResume:
    def test_resume_reruns_only_the_damaged_shard(self, tmp_path):
        """Flip one byte of one spooled part: ``--resume`` re-runs that
        shard alone and writes the bytes of an untouched run."""
        from repro.cli import main

        sim = ["simulate", "--requests", "1200", "--seed", "4",
               "--per-day", "--compress"]
        assert main(sim + ["--out", str(tmp_path / "clean")]) == 0
        ledger = tmp_path / "ledger"
        assert main(sim + ["--out", str(tmp_path / "first"),
                           "--checkpoint-dir", str(ledger)]) == 0
        [name] = read_journal(
            ledger / "journal.jsonl"
        )["day:2011-08-04"]["parts"]
        part = ledger / "parts" / f"{name}.part"
        data = bytearray(part.read_bytes())
        data[len(data) // 2] ^= 0x01
        part.write_bytes(bytes(data))
        assert [e.shard_id for e in audit_run(ledger).entries
                if e.damaged] == ["day:2011-08-04"]
        metrics = tmp_path / "metrics.json"
        assert main(sim + ["--out", str(tmp_path / "resumed"),
                           "--checkpoint-dir", str(ledger), "--resume",
                           "--metrics", str(metrics)]) == 0
        document = json.loads(metrics.read_text())
        assert document["totals"]["resumed_shards"] == 8
        assert audit_run(ledger).ok
        clean = sorted((tmp_path / "clean").iterdir())
        resumed = sorted((tmp_path / "resumed").iterdir())
        assert [p.name for p in clean] == [p.name for p in resumed]
        for a, b in zip(clean, resumed):
            assert a.read_bytes() == b.read_bytes(), a.name


def _metered(path: Path) -> tuple[dict, dict, int]:
    """What a resume must reproduce from a --metrics document: the
    counters (bar the resume count), every timer's span count, and
    the total record count."""
    document = json.loads(path.read_text())
    counters = dict(document["counters"])
    counters.pop("engine.shards.resumed", None)
    spans = {name: timer["count"]
             for name, timer in document["timers"].items()}
    return counters, spans, document["totals"]["records"]


class TestResumedMetricsCli:
    """A ledger written without --metrics resumes into the metrics of
    an uninterrupted --metrics run."""

    SIM = ["simulate", "--requests", "6000", "--seed", "3", "--per-day"]

    def test_analyze_resume_matches_uninterrupted_metrics(
        self, tmp_path, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert main(self.SIM + ["--out", str(tmp_path / "logs")]) == 0
        logs = sorted(str(p) for p in (tmp_path / "logs").glob("*.log"))
        analyze = ["analyze", *logs, "--streaming"]
        ledger = ["--checkpoint-dir", str(tmp_path / "ledger")]
        assert main(analyze + ["--metrics", str(tmp_path / "clean.json")]) == 0
        assert main(analyze + ledger) == 0
        assert main(analyze + ledger + [
            "--resume", "--metrics", str(tmp_path / "resumed.json"),
        ]) == 0
        clean = _metered(tmp_path / "clean.json")
        assert clean[2] == clean[0]["shard.records"] > 2 * len(logs)
        assert _metered(tmp_path / "resumed.json") == clean

    def test_distributed_resume_of_a_simulate_ledger(
        self, tmp_path, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        ledger = str(tmp_path / "ledger")
        assert main(self.SIM + [
            "--out", str(tmp_path / "clean"),
            "--metrics", str(tmp_path / "clean.json"),
        ]) == 0
        assert main(self.SIM + [
            "--out", str(tmp_path / "first"), "--checkpoint-dir", ledger,
        ]) == 0
        assert main([
            "run-distributed", *self.SIM[1:], "--out", str(tmp_path / "dist"),
            "--queue-dir", ledger, "--resume", "--spawn", "0",
            "--wait-timeout", "60",
            "--metrics", str(tmp_path / "resumed.json"),
        ]) == 0
        clean = _metered(tmp_path / "clean.json")
        assert clean[0]["shard.records"] == clean[2] > 0
        assert _metered(tmp_path / "resumed.json") == clean


class TestCliErrors:
    def test_resume_without_checkpoint_dir(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--checkpoint-dir"):
            main(["simulate", "--requests", "100",
                  "--out", "/tmp/x", "--resume"])

    def test_fresh_run_into_existing_ledger_refused(self, tmp_path):
        from repro.cli import main

        args = ["simulate", "--requests", "600", "--seed", "4",
                "--out", str(tmp_path / "out"),
                "--checkpoint-dir", str(tmp_path / "ledger")]
        assert main(args) == 0
        with pytest.raises(SystemExit, match="already holds a run ledger"):
            main(args)

    def test_resume_with_different_run_refused(self, tmp_path):
        from repro.cli import main

        base = ["simulate", "--out", str(tmp_path / "out"),
                "--checkpoint-dir", str(tmp_path / "ledger")]
        assert main(base + ["--requests", "600", "--seed", "4"]) == 0
        with pytest.raises(SystemExit, match="different run"):
            main(base + ["--requests", "800", "--seed", "4", "--resume"])


class TestVerifyRunCli:
    def _ledger(self, tmp_path) -> Path:
        from repro.cli import main

        ledger = tmp_path / "ledger"
        assert main([
            "simulate", "--requests", "600", "--seed", "4",
            "--out", str(tmp_path / "out"),
            "--checkpoint-dir", str(ledger),
        ]) == 0
        return ledger

    def test_clean_ledger_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        ledger = self._ledger(tmp_path)
        assert main(["verify-run", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "9 completed, 0 pending, 0 damaged" in out

    def test_damaged_ledger_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        ledger = self._ledger(tmp_path)
        artifact = next((ledger / "artifacts").glob("*.pkl"))
        artifact.write_bytes(b"not a pickle")
        assert main(["verify-run", str(ledger)]) == 1
        assert "hash-mismatch" in capsys.readouterr().out

    def test_missing_ledger_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["verify-run", str(tmp_path / "nowhere")]) == 1
        assert "unreadable manifest" in capsys.readouterr().out


class TestVerifyRunJson:
    """``repro verify-run --json``: the machine-readable audit."""

    def _ledger(self, tmp_path) -> Path:
        from repro.cli import main

        ledger = tmp_path / "ledger"
        assert main([
            "simulate", "--requests", "600", "--seed", "4",
            "--out", str(tmp_path / "out"),
            "--checkpoint-dir", str(ledger),
        ]) == 0
        return ledger

    def test_clean_ledger_document(self, tmp_path, capsys):
        from repro.cli import main

        ledger = self._ledger(tmp_path)
        capsys.readouterr()  # drain the simulate output
        assert main(["verify-run", str(ledger), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.verify/1"
        assert document["ok"] is True
        assert document["errors"] == []
        assert document["counts"] == {
            "planned": 9, "completed": 9, "pending": 0, "damaged": 0,
        }
        assert len(document["shards"]["completed"]) == 9
        assert document["shards"]["pending"] == []
        assert document["shards"]["damaged"] == []
        assert document["fingerprint"]["command"] == "simulate"

    def test_damaged_ledger_document_and_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        ledger = self._ledger(tmp_path)
        artifact = next((ledger / "artifacts").glob("*.pkl"))
        artifact.write_bytes(b"not a pickle")
        capsys.readouterr()  # drain the simulate output
        assert main(["verify-run", str(ledger), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert document["counts"]["damaged"] == 1
        (damaged,) = document["shards"]["damaged"]
        assert damaged["status"] == "hash-mismatch"
        assert damaged["shard_id"].startswith("day:")

    def test_missing_ledger_document(self, tmp_path, capsys):
        from repro.cli import main

        assert main(
            ["verify-run", str(tmp_path / "nowhere"), "--json"]
        ) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert "unreadable manifest" in document["errors"][0]


_RACE_SCRIPT = """
import sys, time
from pathlib import Path
from repro.runstate import CheckpointLocked, RunCheckpoint, run_fingerprint

directory, go, ready = Path(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3])
checkpoint = RunCheckpoint(
    directory, run_fingerprint("test", seed=7), resume=True
)
ready.touch()  # imports done; the race itself starts at `go`
while not go.exists():
    time.sleep(0.001)
try:
    checkpoint.begin(["item:1", "item:2", "item:3"])
except CheckpointLocked:
    print("LOCKED")
else:
    time.sleep(2.0)  # hold the lock so the loser sees a live owner
    checkpoint.close()
    print("WON")
"""


class TestStaleLockReclaimRace:
    def test_two_processes_reclaim_exactly_one_winner(self, tmp_path):
        """Two real processes race to reclaim the same stale LOCK; the
        tomb rename + O_EXCL create admit exactly one."""
        _complete_ledger(tmp_path / "run")
        # Forge a lock owned by a pid that cannot be alive.
        (tmp_path / "run" / "LOCK").write_text("4000000000")
        go = tmp_path / "go"
        ready = [tmp_path / "ready-0", tmp_path / "ready-1"]
        racers = [
            subprocess.Popen(
                [sys.executable, "-c", _RACE_SCRIPT,
                 str(tmp_path / "run"), str(go), str(ready[i])],
                env=dict(os.environ) | {
                    "PYTHONPATH": str(
                        Path(__file__).resolve().parent.parent / "src"
                    ),
                },
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for i in range(2)
        ]
        deadline = time.time() + 30.0
        while not all(p.exists() for p in ready):
            assert time.time() < deadline, "racers failed to start"
            time.sleep(0.01)
        go.touch()
        outcomes = []
        for racer in racers:
            out, err = racer.communicate(timeout=60)
            assert racer.returncode == 0, err
            outcomes.append(out.strip())
        assert sorted(outcomes) == ["LOCKED", "WON"]
        # The reclaim left no stale tomb or lock behind.
        assert not (tmp_path / "run" / "LOCK").exists()
        leftovers = list((tmp_path / "run").glob("LOCK.stale-*"))
        assert leftovers == []
