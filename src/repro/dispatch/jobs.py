"""Job specs: what a distributed run executes, serialized for workers.

A :class:`JobSpec` is the queue's unit of agreement between the
coordinator and every worker: the same JSON dict that the coordinator
seeds into ``queue/QUEUE.json`` is what a worker reconstructs its
shard plan from, so both sides derive the *identical* ordered shard
labels, payloads, and task callable — that determinism is half of the
byte-identity guarantee (the other half is the sinks' merge laws).

Two kinds exist, mirroring the engine's two shard shapes:

* ``simulate`` — one shard per log-day; the task is
  :func:`repro.engine.simulate.simulate_sink_shard` and the merged
  sinks write an ELFF directory exactly like ``repro simulate``;
* ``analyze`` — one shard per log file; the task is
  :func:`repro.engine.analyze.analyze_shard` and the merge folds
  the per-file accumulators in input order.

A spec also owns the run *fingerprint* — deliberately identical to
the one the single-box CLI writes, so a ledger produced by
``run-distributed`` verifies and resumes under ``repro simulate
--resume`` and vice versa.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

from repro.dispatch.queue import DispatchError
from repro.pipeline import BATCH_SIZE
from repro.runstate import run_fingerprint
from repro.workload.config import ScenarioConfig


@dataclass(frozen=True)
class SimulateJob:
    """A distributed ``simulate``: every log-day as one leased shard."""

    config: ScenarioConfig
    out_dir: str
    per_proxy: bool = False
    per_day: bool = False
    compress: bool = False
    batch_size: int = BATCH_SIZE

    kind = "simulate"

    def fingerprint(self) -> dict:
        # The simulate CLI's fingerprint, so the two ledgers are
        # interchangeable (distributed seed, serial resume, and back).
        from repro.engine.simulate import simulate_fingerprint

        return simulate_fingerprint(
            self.config,
            per_proxy=self.per_proxy,
            per_day=self.per_day,
            compress=self.compress,
        )

    def labels(self) -> list[str]:
        from repro.engine.shards import plan_shards

        return [shard.shard_id for shard in plan_shards(self.config).shards]

    def payloads(self) -> dict[str, Any]:
        from repro.engine.shards import plan_shards
        from repro.pipeline import GroupedElffSink

        prototype = GroupedElffSink(
            per_proxy=self.per_proxy,
            per_day=self.per_day,
            compress=self.compress,
        )
        return {
            shard.shard_id: (self.config, shard.day, shard.seed, prototype)
            for shard in plan_shards(self.config).shards
        }

    def task(self):
        from repro.engine.simulate import simulate_sink_shard

        return partial(simulate_sink_shard, batch_size=self.batch_size)

    def merge(self, results: list) -> list[tuple[Path, int]]:
        """Fold the per-day sinks in day order and write the ELFF
        directory — the same reduce ``simulate_to_logs`` performs, so
        the bytes match a single-box run at any worker count."""
        from repro.pipeline import GroupedElffSink

        merged = GroupedElffSink(
            per_proxy=self.per_proxy,
            per_day=self.per_day,
            compress=self.compress,
        )
        for part in results:
            merged.merge(part)
        return merged.write_dir(Path(self.out_dir))

    def to_spec(self) -> dict:
        return {
            "kind": self.kind,
            "config": dataclasses.asdict(self.config),
            "out_dir": self.out_dir,
            "per_proxy": self.per_proxy,
            "per_day": self.per_day,
            "compress": self.compress,
            "batch_size": self.batch_size,
        }


@dataclass(frozen=True)
class AnalyzeJob:
    """A distributed streaming ``analyze``: one shard per log file."""

    logs: tuple[str, ...]
    regime: str = "syria"
    batch_size: int = BATCH_SIZE

    kind = "analyze"

    def fingerprint(self) -> dict:
        paths = [Path(log) for log in self.logs]
        return run_fingerprint(
            "analyze-streaming",
            logs=[str(path) for path in paths],
            sizes=[path.stat().st_size for path in paths],
            regime=self.regime,
        )

    def labels(self) -> list[str]:
        return [f"log:{Path(log).name}" for log in self.logs]

    def payloads(self) -> dict[str, Any]:
        return dict(zip(self.labels(), [str(log) for log in self.logs]))

    def task(self):
        from repro.engine.analyze import analyze_shard

        return partial(analyze_shard, batch_size=self.batch_size)

    def merge(self, results: list):
        """Fold (analysis, stats) pairs in input order — the reduce
        :func:`repro.engine.analyze.analyze_logs` performs."""
        from repro.analysis.streaming import StreamingAnalysis
        from repro.logmodel.elff import ReadStats

        analysis = StreamingAnalysis()
        stats = ReadStats()
        for part_analysis, part_stats in results:
            analysis += part_analysis
            stats += part_stats
        return analysis, stats

    def to_spec(self) -> dict:
        return {
            "kind": self.kind,
            "logs": list(self.logs),
            "regime": self.regime,
            "batch_size": self.batch_size,
        }


def config_from_spec(data: dict) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig` from its JSON form (tuples
    come back from JSON as lists and must be re-frozen)."""
    fields = {field.name for field in dataclasses.fields(ScenarioConfig)}
    unknown = set(data) - fields
    if unknown:
        raise DispatchError(
            f"job spec carries unknown config fields {sorted(unknown)} — "
            "was it written by a newer build?"
        )
    kwargs = dict(data)
    if "days" in kwargs:
        kwargs["days"] = tuple(kwargs["days"])
    if "boosts" in kwargs:
        kwargs["boosts"] = {
            str(k): float(v) for k, v in kwargs["boosts"].items()
        }
    return ScenarioConfig(**kwargs)


def job_from_spec(spec: dict) -> "SimulateJob | AnalyzeJob":
    """Reconstruct the job a queue manifest describes."""
    kind = spec.get("kind")
    if kind == "simulate":
        return SimulateJob(
            config=config_from_spec(spec["config"]),
            out_dir=str(spec["out_dir"]),
            per_proxy=bool(spec.get("per_proxy", False)),
            per_day=bool(spec.get("per_day", False)),
            compress=bool(spec.get("compress", False)),
            batch_size=spec.get("batch_size") or BATCH_SIZE,
        )
    if kind == "analyze":
        return AnalyzeJob(
            logs=tuple(str(log) for log in spec.get("logs", ())),
            regime=str(spec.get("regime", "syria")),
            batch_size=spec.get("batch_size") or BATCH_SIZE,
        )
    raise DispatchError(
        f"unknown job kind {kind!r} in queue manifest — "
        "this build dispatches 'simulate' and 'analyze'"
    )
