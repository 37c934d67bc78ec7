"""Run the CLI workloads, check their outputs, and assemble results.

Every run is a fresh ``python shim.py ARGV`` child in a fresh directory
(see :mod:`shim`).  Runs are sequential — a closed loop with one job in
flight — and only ``distributed`` starts more than one process.  Wall
time is taken in this process from launch to exit; peak RSS is the
``ru_maxrss`` that ``os.wait4`` returns, which covers the child and the
workers it waited for.  Children never see a ``REPRO_*`` variable, so a
fault plan or tuning knob set for tests cannot leak into a measurement.

Everything the benchmark writes stays under ``.bench_perf/`` at the
repository root: the cached ``analyze`` corpora and one scratch
directory per invocation, removed when it ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

from . import spec

SCHEMA = "repro.bench/2"
SHIM = Path(__file__).resolve().parent / "shim.py"
STATE_DIR = spec.ROOT / ".bench_perf"
CORPUS_DIR = STATE_DIR / "corpus"
#: Cached corpora kept on disk (oldest evicted first).
CORPUS_KEEP = 3


class HarnessError(RuntimeError):
    """The benchmark cannot run here (no program, or no corpus)."""


# -- children ---------------------------------------------------------------


def child_env(tmpdir: Path) -> tuple[dict[str, str], list[str]]:
    """The environment every child gets, and the names scrubbed from it."""
    scrubbed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(spec.ROOT / "src")
    env["TMPDIR"] = str(tmpdir)
    return env, scrubbed


@dataclass
class Run:
    """One child process: how it was started and what it left."""

    kind: str  # timed | setup | traced | reference
    argv: list[str]
    wall_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int | None = None
    launched_at: float = 0.0
    load_before: float = 0.0
    load_after: float = 0.0
    digest: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _kill_group(pgid: int, timeout: float = 5.0) -> None:
    """SIGKILL whatever is left of a child's process group and wait
    (bounded) until the group is gone."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch(run: Run, cwd: Path, env: dict[str, str], timeout: float,
           trace: Path | None = None) -> Path:
    """Execute *run* in *cwd*; fills in timing, RSS and exit code.

    Returns the file holding the child's stdout.  A child still alive
    after *timeout* seconds is killed with its whole process group.
    """
    stdout = cwd / "stdout.txt"
    stderr = cwd / "stderr.txt"
    command = [sys.executable, str(SHIM)]
    if trace is not None:
        command += ["--trace", str(trace)]
    command += run.argv
    run.load_before = os.getloadavg()[0]
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        run.launched_at = time.time()
        started = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=cwd, env=env, stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        timer = threading.Timer(
            timeout, _kill_group, args=(process.pid,)
        )
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        run.wall_s = time.perf_counter() - started
    process.returncode = run.exit_code = os.waitstatus_to_exitcode(status)
    _kill_group(process.pid)
    run.rss_mb = usage.ru_maxrss / 1024.0
    run.load_after = os.getloadavg()[0]
    if run.exit_code != 0:
        tail = stderr.read_text(errors="replace").strip().splitlines()[-3:]
        run.error = (
            f"exit {run.exit_code}" + (f": {' | '.join(tail)}" if tail else "")
        )
    return stdout


def digest_dir(directory: Path, pattern: str = "*") -> str:
    """SHA-256 over the relative name and bytes of every file matching
    *pattern*, in name order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob(pattern) if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def digest_bytes(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
        digest.update(b"\0")
    return digest.hexdigest()


# -- the analyze corpus -----------------------------------------------------


def _source_digest() -> str:
    """The program's identity: a corpus is reused only by the code that
    generated it."""
    return digest_dir(spec.ROOT / "src" / "repro", "*.py")[:16]


def _count_data_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip()
                   and not line.startswith(b"#"))


def _write_slice(source: Path, target: Path, lines: int) -> None:
    """The header plus the first *lines* data lines of *source*."""
    kept = 0
    with open(source, "rb") as src, open(target, "wb") as dst:
        for line in src:
            if not line.startswith(b"#"):
                if kept == lines:
                    break
                kept += 1
            dst.write(line)


def _verify_corpus(directory: Path) -> dict | None:
    """The corpus manifest, if every file still matches its SHA-256."""
    try:
        manifest = json.loads((directory / "MANIFEST.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None
    for name, expected in manifest.get("files", {}).items():
        path = directory / name
        if not path.is_file() or digest_bytes(path.read_bytes()) != expected:
            return None
    return manifest


def prepare_corpus(requests: int, seed: int, env: dict[str, str],
                   timeout: float, log) -> dict:
    """The cached ``analyze`` corpus for *(requests, seed)*.

    Made by ``repro simulate --boosts --per-day --batch-size 1024``
    (untimed), plus a ``SLICE_LINES`` slice of its first file for the
    ``setup_s`` runs.  Reused only after every file's SHA-256 matches
    the manifest.
    """
    key = f"r{requests}-s{seed}-{_source_digest()}"
    directory = CORPUS_DIR / key
    manifest = _verify_corpus(directory)
    if manifest is not None:
        os.utime(directory)
        return {**manifest, "directory": str(directory), "cached": True}
    shutil.rmtree(directory, ignore_errors=True)
    building = CORPUS_DIR / f"{key}.tmp-{os.getpid()}"
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    log(f"building analyze corpus: {requests:,} requests, seed {seed} ...")
    run = Run("corpus", ["simulate", "--requests", str(requests),
                         "--seed", str(seed), "--boosts", "--per-day",
                         "--batch-size", spec.BATCH_SIZE, "--out", "logs"])
    launch(run, building, env, timeout)
    logs = sorted((building / "logs").glob("*.log"))
    if not run.ok or not logs:
        shutil.rmtree(building, ignore_errors=True)
        raise HarnessError(f"corpus generation failed: {run.error}")
    _write_slice(logs[0], building / "slice.log", spec.SLICE_LINES)
    names = [f"logs/{path.name}" for path in logs] + ["slice.log"]
    files = {name: digest_bytes((building / name).read_bytes())
             for name in names}
    manifest = {
        "requests": requests,
        "seed": seed,
        "files": files,
        "lines": sum(_count_data_lines(path) for path in logs),
        "slice_lines": _count_data_lines(building / "slice.log"),
        "digest": digest_bytes(json.dumps(files, sort_keys=True).encode()),
        "build_s": run.wall_s,
    }
    (building / "MANIFEST.json").write_text(json.dumps(manifest, indent=2))
    for name in ("stdout.txt", "stderr.txt"):
        (building / name).unlink(missing_ok=True)
    building.rename(directory)
    _evict_corpora(keep=directory)
    return {**manifest, "directory": str(directory), "cached": False}


def _evict_corpora(keep: Path) -> None:
    entries = sorted(
        (p for p in CORPUS_DIR.iterdir()
         if p.is_dir() and p != keep and ".tmp-" not in p.name),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in entries[: max(0, len(entries) - (CORPUS_KEEP - 1))]:
        shutil.rmtree(stale, ignore_errors=True)


# -- output checks ------------------------------------------------------------


_TOTAL = re.compile(r"Traffic breakdown \(([\d,]+) requests")
_CENSORED = re.compile(r"censored ([\d.]+)%")
#: Must all appear among the report's top-10 censored domains.
_TOP_CENSORED = {"facebook.com", "metacafe.com", "skype.com"}


def _top_censored(markdown: str) -> set[str]:
    """The censored column of the markdown report's Top domains table."""
    section = markdown.split("### Top domains", 1)[-1]
    rows = [line.split("|") for line in section.splitlines()
            if line.startswith("|")]
    return {cells[3].strip() for cells in rows[2:] if len(cells) > 3}


def inspect_output(workload: str, run: Run, cwd: Path, stdout: Path,
                   expected: dict) -> None:
    """Digest a finished run and apply the workload's output checks.

    *expected* holds ``lines`` (analyze), ``shape`` (report: apply the
    paper-shape checks) and ``reference`` (distributed: the digest the
    same ``simulate`` produced).  Failures land in ``run.error``.
    """
    if not run.ok:
        return
    text = stdout.read_text(errors="replace")
    if workload in ("simulate", "distributed"):
        run.digest = digest_dir(cwd / "out")
        reference = expected.get("reference")
        if reference is not None and run.digest != reference:
            run.error = "output differs from the same simulate run"
    elif workload == "analyze":
        run.digest = digest_bytes(text.encode())
        match = _TOTAL.search(text)
        total = int(match.group(1).replace(",", "")) if match else None
        if total != expected["lines"]:
            run.error = (f"analyzed {total} records, corpus has "
                         f"{expected['lines']}")
    elif workload == "report":
        markdown = (cwd / "report.md").read_bytes()
        run.digest = digest_bytes(text.encode(), markdown)
        if expected.get("shape"):
            match = _CENSORED.search(text)
            censored = float(match.group(1)) if match else -1.0
            top = _top_censored(markdown.decode())
            if not 0.5 < censored < 2.5:
                run.error = f"censored share {censored}% outside (0.5, 2.5)"
            elif not _TOP_CENSORED <= top:
                run.error = (f"top censored lacks "
                             f"{sorted(_TOP_CENSORED - top)}")


def check_digests(runs: list[Run]) -> None:
    """Every run of one argv must produce the first good run's digest."""
    first: dict[tuple, str] = {}
    for run in runs:
        if not run.ok:
            continue
        key = tuple(run.argv)
        if first.setdefault(key, run.digest) != run.digest:
            run.error = "output digest differs from the first run"


# -- statistics -------------------------------------------------------------


def summarize(values: list[float], unit: str) -> dict:
    """Median, quartiles and n of *values*.

    Quartiles use the inclusive method (linear interpolation between
    order statistics): with the handful of runs a set holds, the
    default exclusive method extrapolates past the data, so a single
    tail run would move a quartile by half its own distance.
    """
    if not values:
        return {"unit": unit, "median": None, "q1": None, "q3": None,
                "n": 0, "values": []}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"unit": unit, "median": statistics.median(values), "q1": q1,
            "q3": q3, "n": len(values), "values": values}


# -- per-layer metrics --------------------------------------------------------


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def dispatch_metrics(events: list[dict], launched_at: float,
                     workers: int) -> dict[str, float]:
    """Shard balance and lease cost from a settled ``events.jsonl``.

    A worker is busy from a shard's grant to its completion (a chunk
    claim grants several shards at once, so the intervals are unioned).
    ``tail_s`` is the time from the first worker running out of work
    for good to the last completion; a worker that completed nothing
    ran out when the first lease was granted.
    """
    grants = [e for e in events if e.get("event") == "grant"]
    if not grants:
        return {name: 0.0 for name in (
            "dispatch.first_grant_s", "dispatch.worker_busy_max_s",
            "dispatch.worker_busy_min_s", "dispatch.shards_per_worker_max",
            "dispatch.tail_s", "dispatch.lease_events")}
    first_grant = min(e["at"] for e in grants)
    granted: dict[tuple, float] = {}
    busy: dict[str, list] = defaultdict(list)
    done: dict[str, list] = defaultdict(list)
    for event in events:
        key = (event.get("worker"), event.get("shard_id"))
        if event.get("event") == "grant":
            granted[key] = event["at"]
        elif event.get("event") == "complete" and key in granted:
            busy[key[0]].append((granted.pop(key), event["at"]))
            done[key[0]].append(event["at"])
    busy_s = [_union_seconds(spans) for spans in busy.values()]
    busy_s += [0.0] * max(0, workers - len(busy_s))
    last_done = [max(times) for times in done.values()]
    idle_from = last_done + [first_grant] * max(0, workers - len(last_done))
    return {
        "dispatch.first_grant_s": first_grant - launched_at,
        "dispatch.worker_busy_max_s": max(busy_s),
        "dispatch.worker_busy_min_s": min(busy_s),
        "dispatch.shards_per_worker_max": max(
            (len(times) for times in done.values()), default=0
        ),
        "dispatch.tail_s": max(last_done, default=first_grant)
        - min(idle_from),
        "dispatch.lease_events": len(events),
    }


def layer_metrics(trace: dict, dispatch: dict[str, float],
                  overhead_frac: float) -> dict[str, float]:
    """The per-layer metrics of one traced run."""
    hooks = trace["hooks"]
    self_by_layer: dict[str, float] = defaultdict(float)
    for hook in hooks.values():
        self_by_layer[hook["layer"]] += hook["self_s"]

    def stat(target: str, field: str) -> float:
        return hooks.get(target, {}).get(field, 0)

    def ratio(target: str) -> float:
        calls = stat(target, "calls")
        return stat(target, "units") / calls if calls else 0.0

    lines = (stat("repro.pipeline.sources:read_log", "units")
             + stat("repro.pipeline.sources:read_log_batches", "units"))
    salvaged = stat("repro.logmodel.record:LogRecord.from_row", "calls")
    metrics = {
        name: self_by_layer[layer] for name, layer in spec.SELF_TIME.items()
    }
    metrics.update({
        "workload.requests": stat(
            "repro.workload.generator:TrafficGenerator.generate_day", "units"
        ),
        "proxy.calls": stat("repro.proxy.fleet:ProxyFleet.process", "calls"),
        "policy.engine.deny_ratio": ratio(
            "repro.policy.engine:PolicyEngine.evaluate"
        ),
        "policy.errors.error_ratio": ratio(
            "repro.policy.errors:ErrorModel.sample"
        ),
        "policy.cache.hit_ratio": ratio("repro.policy.cache:CacheModel.lookup"),
        "logmodel.elff_write.bytes": stat(
            "repro.pipeline.sinks:GroupedElffSink.write_dir", "units"
        ),
        "logmodel.elff_read.lines": lines,
        "logmodel.elff_read.salvage_ratio": salvaged / lines if lines else 0.0,
        "engine.shards": (
            stat("repro.engine.simulate:simulate_sink_shard", "calls")
            + stat("repro.engine.analyze:analyze_shard", "calls")
        ),
        "trace.overhead_frac": overhead_frac,
        **dispatch,
    })
    return metrics


# -- provenance ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git() -> dict | None:
    """HEAD and the dirty flag, or None outside a git checkout."""
    if not (spec.ROOT / ".git").exists():
        return None
    try:
        sha = subprocess.run(
            ["git", "-C", str(spec.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(spec.ROOT), "status", "--porcelain"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return {"sha": sha, "dirty": bool(status.strip())}


def host_block() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git": _git(),
    }


# -- one workload ---------------------------------------------------------------


@dataclass
class Options:
    profile: str
    seed: int
    reps: int
    seconds: float
    trace: bool


@dataclass
class WorkloadResult:
    name: str
    argv: list[str]
    setup_argv: list[str]
    records: int
    runs: list[Run] = field(default_factory=list)
    corpus: dict | None = None
    trace: dict | None = None

    @property
    def failed(self) -> int:
        return sum(1 for run in self.runs if not run.ok)

    def metrics(self, end_to_end: list[dict]) -> dict[str, dict]:
        timed = [r for r in self.runs if r.kind == "timed" and r.ok]
        setup = [r for r in self.runs if r.kind == "setup" and r.ok]
        values = {
            "records_per_s": [self.records / r.wall_s for r in timed],
            "setup_s": [r.wall_s for r in setup],
            "peak_rss_mb": [r.rss_mb for r in timed],
        }
        metrics = {
            entry["name"]: summarize(values[entry["name"]], entry["unit"])
            for entry in end_to_end
        }
        frac = self.failed / len(self.runs) if self.runs else 1.0
        metrics[spec.FAILED_FRAC["name"]] = {
            **summarize([frac], spec.FAILED_FRAC["unit"]),
            "n": len(self.runs),
        }
        return metrics

    def digest(self) -> str | None:
        return next((r.digest for r in self.runs
                     if r.kind == "timed" and r.ok), None)


class Harness:
    """One ``run`` invocation: a scratch area, provenance, and the
    reference digests shared between workloads."""

    def __init__(self, options: Options, log=print):
        cli = spec.ROOT / "src" / "repro" / "cli.py"
        if not cli.is_file():
            raise HarnessError(
                f"no program to benchmark: {cli} is missing "
                "(run from a full checkout of the repository)"
            )
        self.options = options
        self.profile = spec.PROFILES[options.profile]
        self.log = log
        self.scratch = STATE_DIR / "runs" / str(os.getpid())
        self.env, self.scrubbed = child_env(self.scratch)
        self.counter = 0
        #: (requests, seed) -> digest of that ``simulate`` argv's output
        self.simulate_digests: dict[tuple[int, int], str] = {}

    def __enter__(self) -> "Harness":
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def execute(self, workload: str, run: Run, expected: dict,
                trace: bool = False) -> dict | None:
        """Launch, inspect and clean up one run; returns the trace."""
        self.counter += 1
        cwd = self.scratch / str(self.counter)
        cwd.mkdir()
        trace_path = cwd / "trace.json" if trace else None
        try:
            stdout = launch(run, cwd, self.env, self.profile.timeout_s,
                            trace_path)
            inspect_output(workload, run, cwd, stdout, expected)
            if not trace or not run.ok:
                return None
            data = json.loads(trace_path.read_text())
            events = cwd / "queue" / "queue" / "events.jsonl"
            data["events"] = (
                [json.loads(line) for line in events.read_text().splitlines()
                 if line.strip()]
                if events.exists() else []
            )
            return data
        finally:
            shutil.rmtree(cwd, ignore_errors=True)

    def reference_digest(self, requests: int, seed: int,
                         result: WorkloadResult) -> str | None:
        """The ``simulate`` output digest ``distributed`` must match,
        from this invocation's ``simulate`` runs or one extra run."""
        key = (requests, seed)
        if key not in self.simulate_digests:
            run = Run("reference", spec.workload_argv("simulate", requests,
                                                      seed))
            self.execute("simulate", run, {})
            result.runs.append(run)
            if run.ok:
                self.simulate_digests[key] = run.digest
        return self.simulate_digests.get(key)

    def run_workload(self, name: str) -> WorkloadResult:
        options, profile = self.options, self.profile
        requests = profile.requests[name]
        seed = options.seed
        expected: dict = {}
        setup_expected: dict = {}
        if name == "analyze":
            corpus = prepare_corpus(requests, seed, self.env,
                                    profile.timeout_s * 4, self.log)
            directory = Path(corpus["directory"])
            logs = [str(directory / n) for n in corpus["files"]
                    if n.startswith("logs/")]
            argv = spec.workload_argv(name, requests, seed, logs)
            setup_argv = spec.workload_argv(
                name, spec.SETUP_REQUESTS, seed, [str(directory / "slice.log")]
            )
            records = corpus["lines"]
            expected["lines"] = records
            setup_expected["lines"] = corpus["slice_lines"]
        else:
            corpus = None
            argv = spec.workload_argv(name, requests, seed)
            setup_argv = spec.workload_argv(name, spec.SETUP_REQUESTS, seed)
            records = requests
            expected["shape"] = requests >= spec.SHAPE_MIN_REQUESTS
        result = WorkloadResult(name, argv, setup_argv, records,
                                corpus=corpus)
        if name == "distributed":
            expected["reference"] = self.reference_digest(
                requests, seed, result)
            setup_expected["reference"] = self.reference_digest(
                spec.SETUP_REQUESTS, seed, result)

        self.log(f"== {name}: repro {' '.join(_short(argv))} ==")
        for _ in range(profile.setup_reps):
            run = Run("setup", setup_argv)
            self.execute(name, run, setup_expected)
            result.runs.append(run)
        started = time.perf_counter()
        timed = 0
        while (timed < options.reps
               or time.perf_counter() - started < options.seconds):
            run = Run("timed", argv)
            self.execute(name, run, expected)
            result.runs.append(run)
            timed += 1
        if options.trace:
            run = Run("traced", argv)
            trace = self.execute(name, run, expected, trace=True)
            result.runs.append(run)
            if trace is not None:
                result.trace = trace
        check_digests(result.runs)
        if name == "simulate":
            for run in result.runs:
                if run.ok and run.kind in ("timed", "setup"):
                    key = (requests if run.argv == argv
                           else spec.SETUP_REQUESTS, seed)
                    self.simulate_digests.setdefault(key, run.digest)
        return result


def _short(argv: list[str]) -> list[str]:
    """argv with long corpus file lists folded, for display."""
    logs = [a for a in argv if a.endswith(".log")]
    if len(logs) <= 1:
        return argv
    head = [a for a in argv if not a.endswith(".log")]
    return head + [f"<{len(logs)} corpus files>"]


def finish_layers(result: WorkloadResult) -> tuple[dict, dict] | None:
    """``(layer metrics, trace facts)`` of a traced workload."""
    trace = result.trace
    if trace is None:
        return None
    traced = next(r for r in result.runs if r.kind == "traced")
    untraced = [r.wall_s for r in result.runs if r.kind == "timed" and r.ok]
    overhead = (traced.wall_s / statistics.median(untraced) - 1.0
                if untraced else 0.0)
    dispatch = dispatch_metrics(
        trace["events"], traced.launched_at,
        spec.SPAWN if result.name == "distributed" else 0,
    )
    metrics = layer_metrics(trace, dispatch, overhead)
    main_s = trace["hooks"].get("repro.cli:main", {}).get("total_s", 0.0)
    facts = {
        "main_s": main_s,
        "wall_s": traced.wall_s,
        "missing": trace["missing"],
        "unused": trace["unused"],
        "cli_self_frac": metrics["cli.self_s"] / main_s if main_s else None,
        "spans": trace["spans"],
    }
    return metrics, facts


def workload_record(result: WorkloadResult, benchmark: dict) -> dict:
    """The result-file entry of one workload."""
    record = {
        "argv": result.argv,
        "setup_argv": result.setup_argv,
        "records": result.records,
        "digest": result.digest(),
        "corpus": (
            None if result.corpus is None else {
                key: result.corpus[key]
                for key in ("requests", "seed", "lines", "digest", "cached")
            }
        ),
        "attempted": len(result.runs),
        "failed": result.failed,
        "errors": sorted({r.error for r in result.runs if not r.ok}),
        "metrics": result.metrics(benchmark["end_to_end"]),
        "runs": [
            {key: value for key, value in asdict(run).items()
             if key != "argv"}
            for run in result.runs
        ],
    }
    layers = finish_layers(result)
    if layers is not None:
        metrics, facts = layers
        units = {entry["name"]: entry["unit"]
                 for entry in benchmark["per_layer"]}
        record["layers"] = {
            layer.name: {"value": metrics[layer.name],
                         "unit": units[layer.name],
                         "moves": layer.moves, "flat": layer.flat}
            for layer in spec.LAYER_METRICS
        }
        record["trace"] = facts
    return record


def run_set(names: list[str], options: Options, log=print) -> dict:
    """Run *names* in order and return the ``repro.bench/2`` document."""
    benchmark = spec.load_benchmark()
    host = host_block()
    with Harness(options, log) as harness:
        workloads = {}
        for name in names:
            result = harness.run_workload(name)
            workloads[name] = workload_record(result, benchmark)
            log_workload(name, workloads[name], log)
    return {
        "schema": SCHEMA,
        "profile": options.profile,
        "seed": options.seed,
        "reps": options.reps,
        "seconds": options.seconds,
        "traced": options.trace,
        "host": host,
        "scrubbed_env": harness.scrubbed,
        "workloads": workloads,
    }


# -- printing -------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:,.0f}"
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:,.1f}"
    if magnitude >= 1:
        return f"{value:.3f}"
    return f"{value:.4g}"


def log_workload(name: str, record: dict, log) -> None:
    log(f"-- {name}: {record['attempted']} runs, {record['failed']} failed"
        f", {record['records']:,} records per timed run")
    for error in record["errors"]:
        log(f"   ! {error}")
    for metric, s in record["metrics"].items():
        log(f"   {metric:<14} median {_fmt(s['median'])} {s['unit']}"
            f"  q1 {_fmt(s['q1'])}  q3 {_fmt(s['q3'])}  n={s['n']}")
    if "layers" in record:
        facts = record["trace"]
        log(f"   traced run: main() {facts['main_s']:.3f} s, cli.self_s "
            f"{_fmt(facts['cli_self_frac'])} of main(), missing hooks: "
            f"{', '.join(facts['missing']) or 'none'}")
        for metric, entry in record["layers"].items():
            log(f"   {metric:<34} {_fmt(entry['value']):>14} "
                f"{entry['unit']}")


def summary_line(document: dict, trace: bool) -> dict:
    """The one-line JSON result: every end-to-end metric (median), or
    with *trace* every per-layer metric; names are prefixed with the
    workload when more than one ran."""
    benchmark = spec.load_benchmark()
    workloads = document["workloads"]
    prefix = len(workloads) > 1
    metrics = {}
    correct = True
    for name, record in workloads.items():
        correct &= record["failed"] == 0
        if trace:
            layers = record.get("layers")
            correct &= layers is not None and not record["trace"]["missing"]
            values = {
                entry["name"]: {
                    "value": layers[entry["name"]]["value"] if layers else None,
                    "unit": entry["unit"],
                }
                for entry in benchmark["per_layer"]
            }
        else:
            values = {
                entry["name"]: {
                    "value": record["metrics"][entry["name"]]["median"],
                    "unit": entry["unit"],
                }
                for entry in benchmark["end_to_end"]
            }
        for metric, value in values.items():
            metrics[f"{name}/{metric}" if prefix else metric] = value
    return {
        "correct": bool(correct),
        "attempted": sum(r["attempted"] for r in workloads.values()),
        "failed": sum(r["failed"] for r in workloads.values()),
        "metrics": metrics,
    }
