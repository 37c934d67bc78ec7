"""Smoke profile of the CLI benchmark harness.

Runs every workload once through ``python -m benchmarks.perf run
--profile smoke`` (3,000 requests each, two timed runs plus the traced
run, well under 90 s on a 2-core host) and checks the result document
against the contract in ``BENCHMARK.json``.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from .compare import verdict

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = _bench("run", "--profile", "smoke", "--reps", "2", "--trace",
                  "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    summary = json.loads(proc.stdout.splitlines()[-1])
    return out, json.loads(out.read_text()), summary


def test_every_benchmark_metric_is_reported_with_its_unit(smoke):
    _, document, summary = smoke
    assert list(document["workloads"]) == [
        w["name"] for w in BENCHMARK["workloads"]
    ]
    for name, record in document["workloads"].items():
        for entry in BENCHMARK["end_to_end"]:
            stats = record["metrics"][entry["name"]]
            assert stats["unit"] == entry["unit"]
            assert stats["median"] > 0, (name, entry["name"])
        for entry in BENCHMARK["per_layer"]:
            assert record["layers"][entry["name"]]["unit"] == entry["unit"]
            key = f"{name}/{entry['name']}"
            assert summary["metrics"][key]["unit"] == entry["unit"]
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 4 * 6


def test_outputs_are_checked_and_digests_stable(smoke):
    _, document, _ = smoke
    for name, record in document["workloads"].items():
        assert record["failed"] == 0, (name, record["errors"])
        assert record["metrics"]["failed_frac"]["median"] == 0
        timed = {r["digest"] for r in record["runs"]
                 if r["kind"] in ("timed", "traced")}
        assert len(timed) == 1 and None not in timed, name
        assert sum(r["kind"] == "timed" for r in record["runs"]) == 2
    corpus = document["workloads"]["analyze"]["corpus"]
    assert corpus["lines"] == document["workloads"]["analyze"]["records"]
    assert len(corpus["digest"]) == 64


def test_distributed_writes_the_simulate_bytes(smoke):
    _, document, _ = smoke
    workloads = document["workloads"]
    assert workloads["distributed"]["digest"] == workloads["simulate"]["digest"]


def test_every_hook_resolves_and_covers_main(smoke):
    _, document, _ = smoke
    for name, record in document["workloads"].items():
        assert record["trace"]["missing"] == [], name
        assert record["trace"]["cli_self_frac"] <= 0.15, name
    layers = document["workloads"]["distributed"]["layers"]
    assert layers["dispatch.lease_events"]["value"] >= 18
    assert layers["dispatch.shards_per_worker_max"]["value"] >= 5


def test_provenance_is_recorded(smoke):
    _, document, _ = smoke
    assert document["schema"] == "repro.bench/2"
    host = document["host"]
    assert host["nproc"] >= 1 and host["python"] and host["numpy"]
    run = document["workloads"]["simulate"]["runs"][0]
    assert {"load_before", "load_after", "wall_s", "rss_mb"} <= set(run)


def test_compare_against_itself(smoke, tmp_path):
    out, document, _ = smoke
    proc = _bench("compare", str(out), str(out))
    assert proc.returncode == 0, proc.stdout
    assert " worse" not in proc.stdout and " better" not in proc.stdout
    # With the noise taken out every metric must read unchanged.
    steady = copy.deepcopy(document)
    for record in steady["workloads"].values():
        for stats in record["metrics"].values():
            median = stats["median"]
            stats.update(q1=median, q3=median, values=[median] * 3, n=3)
    steady_path = tmp_path / "steady.json"
    steady_path.write_text(json.dumps(steady))
    proc = _bench("compare", str(steady_path), str(steady_path))
    assert proc.returncode == 0, proc.stdout
    verdicts = [line.split()[-1] for line in proc.stdout.splitlines()
                if "bound" in line]
    assert verdicts and set(verdicts) == {"unchanged"}
    slower = copy.deepcopy(steady)
    stats = slower["workloads"]["simulate"]["metrics"]["records_per_s"]
    stats.update({k: stats["median"] * 0.5 for k in ("median", "q1", "q3")})
    slower_path = tmp_path / "slower.json"
    slower_path.write_text(json.dumps(slower))
    proc = _bench("compare", str(steady_path), str(slower_path))
    assert proc.returncode == 1 and " worse" in proc.stdout


def test_verdict_rules():
    a = {"median": 100.0, "q1": 99.0, "q3": 101.0, "values": [99, 100, 101]}
    near = {"median": 95.0, "q1": 94.0, "q3": 96.0, "values": [94, 95, 96]}
    far = {"median": 80.0, "q1": 79.0, "q3": 81.0, "values": [79, 80, 81]}
    noisy = {"median": 95.0, "q1": 70.0, "q3": 120.0,
             "values": [70, 95, 120]}
    assert verdict(a, near, "higher", 0.1) == "unchanged"
    assert verdict(a, far, "higher", 0.1) == "worse"
    assert verdict(a, far, "lower", 0.1) == "better"
    assert verdict(a, noisy, "higher", 0.1) == "unresolved"
    # Wide spread, but every run of B is below every run of A.
    assert verdict(noisy, {**far, "values": [60, 62, 65]}, "higher",
                   0.1) == "worse"
    # failed_frac: bound 0, any rise is a regression.
    zero = {"median": 0.0, "q1": 0.0, "q3": 0.0, "values": [0.0]}
    some = {"median": 0.1, "q1": 0.1, "q3": 0.1, "values": [0.1]}
    assert verdict(zero, some, "lower", 0.0) == "worse"
    assert verdict(zero, zero, "lower", 0.0) == "unchanged"
