"""What the benchmark runs and what each number is expected to move.

Metric names, units, directions and bounds live in ``BENCHMARK.json``
at the repository root (the contract every result file is checked
against); this module holds what that file has no room for: the
workload argv, the input sizes of each profile, and the layer-to-metric
map a performance change is judged by.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

WORKLOADS = ("simulate", "analyze", "report", "distributed")

#: The fastest documented single-core mode; every workload uses it, so
#: flipping the CLI's ``--batch-size`` default changes no workload.
BATCH_SIZE = "1024"

#: ``setup_s`` runs the same argv on minimal input: this many requests,
#: or this many lines of one corpus file for ``analyze``.
SETUP_REQUESTS = 1_000
SLICE_LINES = 1_000

#: ``run-distributed`` spawns this many workers (the host's ``nproc``).
SPAWN = 2

#: The report's paper-shape checks (censored share, top censored
#: domains) only hold on samples at least this large.
SHAPE_MIN_REQUESTS = 20_000


@dataclass(frozen=True)
class Profile:
    """Input sizes and repetition counts for one benchmark scale.

    ``requests`` is the ``--requests`` of each workload; for
    ``analyze`` it is the size of the simulated corpus it reads.
    """

    requests: dict[str, int]
    setup_reps: int
    timeout_s: float


PROFILES = {
    # The sizes the workload rationale was measured at: long enough
    # that per-record work, not interpreter start, dominates wall time.
    "full": Profile(
        requests={"simulate": 300_000, "analyze": 1_000_000,
                  "report": 200_000, "distributed": 300_000},
        setup_reps=9,
        timeout_s=900.0,
    ),
    # Time-boxed runs (``--seconds``): each timed run takes 2-4 s on a
    # 2-core host, so a 15 s window holds enough runs for a median.
    "short": Profile(
        requests={"simulate": 50_000, "analyze": 250_000,
                  "report": 30_000, "distributed": 50_000},
        setup_reps=7,
        timeout_s=120.0,
    ),
    # The harness self-test: every code path in well under a minute.
    "smoke": Profile(
        requests={"simulate": 3_000, "analyze": 3_000,
                  "report": 3_000, "distributed": 3_000},
        setup_reps=3,
        timeout_s=120.0,
    ),
}


def workload_argv(name: str, requests: int, seed: int,
                  logs: list[str] | None = None) -> list[str]:
    """The ``repro`` argv of workload *name*.

    Paths are relative: each run executes in a fresh directory, so the
    output lands in ``out``/``queue``/``report.md`` there and stdout is
    byte-identical from run to run.
    """
    if name == "analyze":
        return ["analyze", "--streaming", "--batch-size", BATCH_SIZE,
                *logs]
    generated = ["--requests", str(requests), "--seed", str(seed)]
    if name == "simulate":
        return ["simulate", *generated, "--boosts", "--per-day",
                "--batch-size", BATCH_SIZE, "--out", "out"]
    if name == "report":
        return ["report", *generated, "--batch-size", BATCH_SIZE,
                "--markdown", "report.md"]
    if name == "distributed":
        return ["run-distributed", *generated, "--boosts", "--per-day",
                "--batch-size", BATCH_SIZE, "--spawn", str(SPAWN),
                "--out", "out", "--queue-dir", "queue"]
    raise ValueError(f"unknown workload {name!r}")


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric and the end-to-end numbers it should move."""

    name: str
    moves: str
    flat: str


_FLEET = ("records_per_s on simulate/report/distributed", "analyze")
_ENCODE = ("records_per_s on simulate/report", "analyze")
_WRITE = ("records_per_s and peak_rss_mb on simulate/distributed",
          "analyze, report")
_READ = ("records_per_s on analyze", "simulate, report")
_FRAME = ("records_per_s and peak_rss_mb on report", "simulate, analyze")
_ENGINE = ("setup_s on all; peak_rss_mb on simulate/report", "-")
_DISPATCH = ("records_per_s and setup_s on distributed",
             "simulate, analyze, report")

#: Every ``*_s`` layer metric is the layer's self time in the traced
#: run: time inside its hooked calls minus hooked calls nested inside.
LAYER_METRICS = tuple(
    LayerMetric(name, *effect) for name, effect in (
        ("workload.self_s", _FLEET),
        ("workload.requests", _FLEET),
        ("proxy.fleet.self_s", _FLEET),
        ("proxy.routing.self_s", _FLEET),
        ("proxy.sg9000.self_s", _FLEET),
        ("proxy.calls", _FLEET),
        ("policy.engine.self_s", _FLEET),
        ("policy.engine.deny_ratio", _FLEET),
        ("policy.errors.self_s", _FLEET),
        ("policy.errors.error_ratio", _FLEET),
        ("policy.cache.self_s", _FLEET),
        ("policy.cache.hit_ratio", _FLEET),
        ("frame.from_records.self_s", _ENCODE),
        ("frame.to_rows.self_s", _ENCODE),
        ("pipeline.anonymize.self_s", _ENCODE),
        ("pipeline.elff_sink.self_s", _WRITE),
        ("logmodel.elff_write.self_s", _WRITE),
        ("logmodel.elff_write.bytes", _WRITE),
        ("logmodel.elff_read.self_s", _READ),
        ("logmodel.elff_read.lines", _READ),
        ("logmodel.elff_read.salvage_ratio", _READ),
        ("net.url.self_s", _READ),
        ("logmodel.classify.self_s", _READ),
        ("analysis.streaming.self_s", _READ),
        ("pipeline.frame_sink.self_s", _FRAME),
        ("datasets.assemble.self_s", _FRAME),
        ("analysis.report.self_s", _FRAME),
        ("engine.context_s", _ENGINE),
        ("engine.self_s", _ENGINE),
        ("engine.merge_s", _ENGINE),
        ("engine.shards", _ENGINE),
        ("cli.self_s", _ENGINE),
        ("cli.import_s", _ENGINE),
        ("dispatch.coordinator.self_s", _DISPATCH),
        ("dispatch.first_grant_s", _DISPATCH),
        ("dispatch.worker_busy_max_s", _DISPATCH),
        ("dispatch.worker_busy_min_s", _DISPATCH),
        ("dispatch.shards_per_worker_max", _DISPATCH),
        ("dispatch.tail_s", _DISPATCH),
        ("dispatch.lease_events", _DISPATCH),
        ("trace.overhead_frac", ("-", "-")),
    )
)

#: Self-time metrics: metric name -> the shim layer it sums.
SELF_TIME = {
    "workload.self_s": "workload",
    "proxy.fleet.self_s": "proxy.fleet",
    "proxy.routing.self_s": "proxy.routing",
    "proxy.sg9000.self_s": "proxy.sg9000",
    "policy.engine.self_s": "policy.engine",
    "policy.errors.self_s": "policy.errors",
    "policy.cache.self_s": "policy.cache",
    "frame.from_records.self_s": "frame.from_records",
    "frame.to_rows.self_s": "frame.to_rows",
    "pipeline.anonymize.self_s": "pipeline.anonymize",
    "pipeline.elff_sink.self_s": "pipeline.elff_sink",
    "logmodel.elff_write.self_s": "logmodel.elff_write",
    "logmodel.elff_read.self_s": "logmodel.elff_read",
    "net.url.self_s": "net.url",
    "logmodel.classify.self_s": "logmodel.classify",
    "analysis.streaming.self_s": "analysis.streaming",
    "pipeline.frame_sink.self_s": "pipeline.frame_sink",
    "datasets.assemble.self_s": "datasets.assemble",
    "analysis.report.self_s": "analysis.report",
    "engine.context_s": "engine.context",
    "engine.self_s": "engine",
    "engine.merge_s": "engine.merge",
    "cli.self_s": "cli",
    "cli.import_s": "cli.import",
    "dispatch.coordinator.self_s": "dispatch.coordinator",
}

#: ``failed_frac`` is reported and compared but is not an end-to-end
#: entry of BENCHMARK.json (a metric there must never read 0): any
#: rise at all is a regression.
FAILED_FRAC = {"name": "failed_frac", "unit": "ratio", "better": "lower",
               "bound": 0.0}


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
