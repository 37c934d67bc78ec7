"""Performance benches for the substrates themselves.

Not paper reproductions — these track the throughput of the hot paths
(generation, policy evaluation, columnar group-bys, GeoIP lookup,
ELFF serialization) so regressions show up in the benchmark report.
"""

from __future__ import annotations

import io
import os
import time

import numpy as np

from repro.catalog.domains import build_domain_universe
from repro.frame import LogFrame
from repro.geoip import builtin_registry
from repro.logmodel.elff import read_log, write_log
from repro.logmodel.record import LogRecord
from repro.policy import KeywordRule, PolicyEngine, RequestView
from repro.policy.syria import build_syrian_policy
from repro.workload import TrafficGenerator
from repro.workload.config import small_config


def make_record(**overrides) -> LogRecord:
    values = dict(
        epoch=1312329600,
        c_ip="0.0.0.0",
        s_ip="82.137.200.42",
        cs_host="www.example.com",
    )
    values.update(overrides)
    return LogRecord(**values)


def test_perf_generator_throughput(benchmark):
    config = small_config(20_000, seed=55)
    generator = TrafficGenerator(config)

    def run():
        rng = np.random.default_rng(1)
        return len(generator.generate_day("2011-08-03", rng))

    count = benchmark(run)
    assert count > 3_000


def test_perf_policy_engine(benchmark):
    sites = build_domain_universe(tail_count=50)
    policy = build_syrian_policy(sites)
    engine = policy.base_engine
    views = [
        RequestView(host="www.google.com", path="/search", query="q=x"),
        RequestView(host="www.facebook.com", path="/plugins/like.php",
                    query="channel_url=xd_proxy.php"),
        RequestView(host="www.metacafe.com", path="/watch/1/x/"),
        RequestView(host="84.229.1.1", path="/"),
        RequestView(host="www.sitez.com", path="/page/1.html"),
    ] * 200

    def run():
        return sum(
            1 for view in views if engine.evaluate(view).exception_id != "-"
        )

    denied = benchmark(run)
    assert denied == 600  # plugins + metacafe + israeli subnet


def test_perf_keyword_rule(benchmark):
    rule = KeywordRule(["proxy", "hotspotshield", "ultrareach", "israel",
                        "ultrasurf"])
    view = RequestView(host="www.example.com", path="/some/ordinary/page",
                       query="session=1234567890")
    engine = PolicyEngine([rule])
    result = benchmark(lambda: [engine.evaluate(view) for _ in range(1000)])
    assert all(v.exception_id == "-" for v in result)


def test_perf_frame_groupby(benchmark):
    rng = np.random.default_rng(0)
    n = 200_000
    keys = np.array([f"domain{int(i)}.com" for i in rng.integers(0, 500, n)],
                    dtype=object)
    frame = LogFrame({
        "domain": keys,
        "value": rng.integers(0, 100, n),
    })
    result = benchmark(lambda: frame.groupby("domain").top(10))
    assert len(result) == 10


def test_perf_geoip_lookup(benchmark):
    db = builtin_registry()
    rng = np.random.default_rng(1)
    addresses = rng.integers(0, 2**32 - 1, 100_000)
    countries = benchmark(lambda: db.lookup_many(addresses))
    assert len(countries) == 100_000


def test_perf_sharded_engine_parallel_vs_serial(tmp_path):
    """Parallel-vs-serial throughput of the sharded simulate→analyze
    engine on the bench scenario.

    Always verifies worker-count-invariance (identical day records and
    identical Table 3/Table 4 numbers); the ≥1.5× speedup assertion for
    4 workers only fires on hosts that actually have ≥4 cores, since a
    process pool cannot beat serial on a single-core box.
    """
    from repro.engine import analyze_logs, simulate_day_records, write_logs
    from repro.workload.config import (
        DEFAULT_USER_DAY_BOOST,
        DEFAULT_BOOSTS,
        ScenarioConfig,
    )

    scale = int(os.environ.get("REPRO_BENCH_SCALE", "200000"))
    config = ScenarioConfig(
        total_requests=scale,
        seed=2014,
        boosts=dict(DEFAULT_BOOSTS),
        user_day_boost=DEFAULT_USER_DAY_BOOST,
    )

    start = time.perf_counter()
    serial_days = simulate_day_records(config, workers=1)
    simulate_serial = time.perf_counter() - start

    start = time.perf_counter()
    parallel_days = simulate_day_records(config, workers=4)
    simulate_parallel = time.perf_counter() - start

    assert list(serial_days) == list(parallel_days)
    for day in serial_days:
        assert serial_days[day] == parallel_days[day]

    paths = [
        path for path, _ in write_logs(serial_days, tmp_path, per_day=True)
    ]
    start = time.perf_counter()
    serial_analysis, _ = analyze_logs(paths, workers=1)
    analyze_serial = time.perf_counter() - start

    start = time.perf_counter()
    parallel_analysis, _ = analyze_logs(paths, workers=4)
    analyze_parallel = time.perf_counter() - start

    # Table 3 + Table 4 numbers identical at every worker count
    assert parallel_analysis == serial_analysis
    assert parallel_analysis.breakdown() == serial_analysis.breakdown()
    assert parallel_analysis.top_allowed(10) == serial_analysis.top_allowed(10)
    assert parallel_analysis.top_censored(10) == (
        serial_analysis.top_censored(10)
    )

    simulate_speedup = simulate_serial / simulate_parallel
    analyze_speedup = analyze_serial / analyze_parallel
    total = sum(len(records) for records in serial_days.values())
    print(
        f"\nengine @ {total:,} records: "
        f"simulate {simulate_serial:.2f}s -> {simulate_parallel:.2f}s "
        f"({simulate_speedup:.2f}x), "
        f"analyze {analyze_serial:.2f}s -> {analyze_parallel:.2f}s "
        f"({analyze_speedup:.2f}x) at 4 workers"
    )
    if (os.cpu_count() or 1) >= 4:
        assert simulate_speedup >= 1.5


def test_perf_fused_report_vs_two_pass(tmp_path):
    """Single fused pass vs the legacy write-then-read round trip.

    The fused path streams simulation straight into the analysis
    accumulator (no record list, no disk); the legacy path materializes
    the records, serializes them to ELFF, and re-reads them.  Both must
    produce the identical accumulator and the fused pass must win wall
    clock; records/sec and peak-RSS growth are reported for both (RSS
    is advisory — ``ru_maxrss`` is monotonic, so the fused pass runs
    first to keep its reading honest).
    """
    import resource

    from repro.engine import (
        analyze_logs,
        scenario_context,
        simulate_day_records,
        simulate_into,
        write_logs,
    )
    from repro.pipeline import StreamingAnalysisSink
    from repro.workload.config import (
        DEFAULT_BOOSTS,
        DEFAULT_USER_DAY_BOOST,
        ScenarioConfig,
    )

    scale = int(os.environ.get("REPRO_BENCH_SCALE", "200000"))
    config = ScenarioConfig(
        total_requests=scale,
        seed=2014,
        boosts=dict(DEFAULT_BOOSTS),
        user_day_boost=DEFAULT_USER_DAY_BOOST,
    )
    scenario_context(config)  # warm the shared context outside the timers

    def peak_rss_kb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    rss_before = peak_rss_kb()
    start = time.perf_counter()
    sink, _ = simulate_into(config, StreamingAnalysisSink(), workers=1)
    fused_seconds = time.perf_counter() - start
    fused_rss_growth = peak_rss_kb() - rss_before

    rss_before = peak_rss_kb()
    start = time.perf_counter()
    day_records = simulate_day_records(config, workers=1)
    paths = [path for path, _ in write_logs(day_records, tmp_path)]
    two_pass_analysis, _ = analyze_logs(paths, workers=1)
    two_pass_seconds = time.perf_counter() - start
    two_pass_rss_growth = peak_rss_kb() - rss_before

    assert sink.analysis == two_pass_analysis
    total = sink.analysis.total
    print(
        f"\nreport @ {total:,} records: "
        f"fused {fused_seconds:.2f}s "
        f"({total / fused_seconds:,.0f} rec/s, "
        f"peak-RSS growth {fused_rss_growth / 1024:.0f} MB) vs "
        f"two-pass {two_pass_seconds:.2f}s "
        f"({total / two_pass_seconds:,.0f} rec/s, "
        f"peak-RSS growth {two_pass_rss_growth / 1024:.0f} MB) — "
        f"{two_pass_seconds / fused_seconds:.2f}x"
    )
    assert fused_seconds < two_pass_seconds


def test_perf_retry_path_overhead():
    """Cost of the resilience layer: fault-free vs a 10 % transient
    fault plan (every hit recovered by one retry).

    Three numbers matter: the inert fault sites must cost nothing
    measurable (fault-free runs with and without the machinery differ
    only by noise — enforced structurally, since the no-plan run *is*
    the machinery with sites inert), a 10 % plan must leave the results
    untouched, and the retry overhead should stay within the work the
    re-run attempts themselves add (bounded loosely here; the exact
    split is reported for the benchmark log).
    """
    from repro.engine import RetryPolicy, simulate_day_records
    from repro.faults import FaultPlan
    from repro.workload.config import (
        DEFAULT_BOOSTS,
        DEFAULT_USER_DAY_BOOST,
        ScenarioConfig,
    )

    scale = int(os.environ.get("REPRO_BENCH_SCALE", "200000"))
    config = ScenarioConfig(
        total_requests=scale,
        seed=2014,
        boosts=dict(DEFAULT_BOOSTS),
        user_day_boost=DEFAULT_USER_DAY_BOOST,
    )
    retry = RetryPolicy(max_retries=2, backoff_base=0.0)
    plan = FaultPlan(seed=9, rate=0.10)
    days = [f"day:{day}" for day in config.days]
    hits = sum(plan.roll("shard.start", day) < plan.rate for day in days)
    assert hits >= 1  # the seed is chosen so the plan actually fires

    start = time.perf_counter()
    clean = simulate_day_records(config, workers=1, retry=retry)
    clean_seconds = time.perf_counter() - start

    start = time.perf_counter()
    faulted = simulate_day_records(
        config, workers=1, retry=retry, fault_plan=plan
    )
    faulted_seconds = time.perf_counter() - start

    assert faulted == clean  # retries leave no fingerprint
    overhead = faulted_seconds / clean_seconds
    total = sum(len(records) for records in clean.values())
    print(
        f"\nretry path @ {total:,} records: fault-free "
        f"{clean_seconds:.2f}s vs 10% transient plan "
        f"{faulted_seconds:.2f}s ({overhead:.2f}x, {hits}/{len(days)} "
        f"day shards hit once each)"
    )
    # A shard.start fault aborts before the day's work begins, so a
    # recovered hit costs only re-dispatch — in practice the overhead
    # is noise.  Bound it by one full re-run per hit plus padding so
    # the assertion survives loaded CI hosts.
    assert overhead < 1.0 + (hits / len(days)) + 0.5


def test_perf_checkpoint_overhead_and_resume_speedup(tmp_path):
    """Cost of the durable run ledger, and what it buys back.

    Two numbers: the per-shard write cost of ``checkpoint=`` on an
    uninterrupted run (artifact pickle + fsync'd journal line per day
    shard, reported as absolute overhead and a ratio), and the resume
    speedup when half the shards are already journaled — a resumed run
    should approach half the work of a cold one, and must stay
    byte-equal to it.
    """
    from repro.engine import RetryPolicy, simulate_day_records
    from repro.faults import FaultPlan, FaultRule
    from repro.runstate import RunCheckpoint, audit_run, run_fingerprint
    from repro.workload.config import (
        DEFAULT_BOOSTS,
        DEFAULT_USER_DAY_BOOST,
        ScenarioConfig,
    )

    scale = int(os.environ.get("REPRO_BENCH_SCALE", "200000"))
    config = ScenarioConfig(
        total_requests=scale,
        seed=2014,
        boosts=dict(DEFAULT_BOOSTS),
        user_day_boost=DEFAULT_USER_DAY_BOOST,
    )
    fingerprint = run_fingerprint("bench", seed=config.seed, scale=scale)
    days = list(config.days)

    start = time.perf_counter()
    plain = simulate_day_records(config, workers=1)
    plain_seconds = time.perf_counter() - start

    start = time.perf_counter()
    journaled = simulate_day_records(
        config, workers=1,
        checkpoint=RunCheckpoint(tmp_path / "full", fingerprint),
    )
    journaled_seconds = time.perf_counter() - start
    assert journaled == plain  # the ledger leaves no fingerprint

    # Build a half-complete ledger: crash the first half of the days in
    # partial mode, so the later (heavier, user-day-boosted) half gets
    # journaled and resume skips the expensive shards.
    crash_half = FaultPlan(rules=tuple(
        FaultRule(site="shard.start", kind="crash", shard_id=f"day:{day}")
        for day in days[: len(days) // 2]
    ))
    simulate_day_records(
        config, workers=1, allow_partial=True, fault_plan=crash_half,
        retry=RetryPolicy(max_retries=0, backoff_base=0.0),
        checkpoint=RunCheckpoint(tmp_path / "half", fingerprint),
    )
    half_done = audit_run(tmp_path / "half").completed
    assert half_done == len(days) - len(days) // 2

    start = time.perf_counter()
    resumed = simulate_day_records(
        config, workers=1,
        checkpoint=RunCheckpoint(tmp_path / "half", fingerprint,
                                 resume=True),
    )
    resumed_seconds = time.perf_counter() - start
    assert resumed == plain  # resume is byte-equal to a cold run

    total = sum(len(records) for records in plain.values())
    overhead = journaled_seconds - plain_seconds
    print(
        f"\ncheckpoint @ {total:,} records / {len(days)} shards: "
        f"plain {plain_seconds:.2f}s vs journaled {journaled_seconds:.2f}s "
        f"({journaled_seconds / plain_seconds:.2f}x, "
        f"{overhead / len(days) * 1000:.1f} ms/shard write cost); "
        f"resume with {half_done}/{len(days)} shards done "
        f"{resumed_seconds:.2f}s ({plain_seconds / resumed_seconds:.2f}x "
        "vs cold)"
    )
    # The ledger writes a few MB per run; anything past 2x would mean
    # pickling or fsync regressed into the hot path.
    assert journaled_seconds < plain_seconds * 2.0
    # Half the shards are loaded, so the resume must beat a cold run.
    assert resumed_seconds < plain_seconds


def test_perf_distributed_lease_queue(tmp_path):
    """Lease-queue distributed execution at 1/2/4 workers plus the
    cost of a lease reclaim.

    Every worker count must merge to the exact bytes of the serial
    ``simulate_to_logs`` baseline — that invariant is asserted, the
    throughput numbers are printed.  Distributed wall clock includes
    real worker-process startup (a ``python -m repro work`` interpreter
    per worker), so one worker is expected to trail the in-process
    serial path; the printed line makes that overhead visible instead
    of hiding it.  The reclaim number times an otherwise identical
    one-worker run whose first shard starts under an already-expired
    lease from a dead claimant, so the delta is the requeue-and-re-run
    detour alone.
    """
    import json
    from pathlib import Path

    from repro.dispatch import WorkQueue, run_distributed, simulate_job_for
    from repro.engine import simulate_to_logs
    from repro.runstate import RunCheckpoint
    from repro.workload.config import (
        DEFAULT_BOOSTS,
        DEFAULT_USER_DAY_BOOST,
        ScenarioConfig,
    )

    scale = int(os.environ.get("REPRO_BENCH_SCALE", "200000"))
    config = ScenarioConfig(
        total_requests=scale,
        seed=2014,
        boosts=dict(DEFAULT_BOOSTS),
        user_day_boost=DEFAULT_USER_DAY_BOOST,
    )

    start = time.perf_counter()
    written = simulate_to_logs(config, tmp_path / "serial", per_day=True)
    serial_seconds = time.perf_counter() - start
    total = sum(count for _, count in written)
    baseline = {path.name: path.read_bytes() for path, _ in written}

    def merged_bytes(out_dir):
        return {
            path.name: path.read_bytes()
            for path in sorted(Path(out_dir).iterdir())
        }

    def timed_run(tag, spawn, prepare=None):
        out_dir = tmp_path / f"out-{tag}"
        queue_dir = tmp_path / f"queue-{tag}"
        job = simulate_job_for(config, out_dir, per_day=True)
        resume = False
        if prepare is not None:
            prepare(job, queue_dir)
            resume = True
        start = time.perf_counter()
        result = run_distributed(
            job, queue_dir, spawn=spawn, resume=resume
        )
        seconds = time.perf_counter() - start
        assert merged_bytes(out_dir) == baseline  # byte-identical merge
        return result, seconds

    fleet = {}
    for spawn in (1, 2, 4):
        result, seconds = timed_run(f"w{spawn}", spawn)
        assert result.counters.get("dispatch.shards.completed", 0) >= (
            len(result.labels)
        )
        fleet[str(spawn)] = {
            "seconds": round(seconds, 4),
            "records_per_sec": round(total / seconds),
            "lease_granted": result.counters.get(
                "dispatch.lease.granted", 0
            ),
        }

    def plant_expired_lease(job, queue_dir):
        """Seed the queue and leave the first shard claimed by a dead
        worker whose lease already expired."""
        checkpoint = RunCheckpoint(queue_dir, job.fingerprint())
        checkpoint.begin(job.labels())
        checkpoint.close()
        queue = WorkQueue(queue_dir, worker_id="bench-dead")
        queue.seed(job.to_spec(), ttl=30.0)
        victim = job.labels()[0]
        lease = queue.try_claim(victim)
        assert lease is not None
        queue.lease_path(victim).write_text(
            json.dumps({**lease.to_dict(), "deadline": time.time() - 60.0})
        )

    churn, churn_seconds = timed_run("reclaim", 1, plant_expired_lease)
    assert churn.counters.get("dispatch.lease.expired", 0) >= 1
    assert churn.counters.get("dispatch.lease.reclaimed", 0) >= 1
    reclaim_overhead = churn_seconds - fleet["1"]["seconds"]

    lines = ", ".join(
        f"{spawn}w {entry['records_per_sec']:,} rec/s"
        for spawn, entry in fleet.items()
    )
    print(
        f"\ndistributed @ {total:,} records / {len(churn.labels)} shards: "
        f"serial {total / serial_seconds:,.0f} rec/s, {lines}; "
        f"reclaim detour +{reclaim_overhead:.2f}s"
    )
    if (os.cpu_count() or 1) >= 4:
        # More workers must not be slower end to end (startup included).
        assert fleet["4"]["seconds"] < fleet["1"]["seconds"]


def test_perf_elff_roundtrip(benchmark):
    records = [
        make_record(cs_host=f"host{i % 50}.com", epoch=1312329600 + i)
        for i in range(5_000)
    ]

    def run():
        buffer = io.StringIO()
        write_log(records, buffer)
        buffer.seek(0)
        return sum(1 for _ in read_log(buffer))

    count = benchmark(run)
    assert count == 5_000


def test_perf_regime_throughput(tmp_path):
    """Per-regime simulate→analyze throughput.

    Every registered regime profile runs the same fused
    simulate→streaming-analyze pass over an identical workload spec, so
    the printed line shows what each appliance model costs relative to
    the Syrian proxy baseline.  The assertion layer only pins
    invariants — same record volume per regime and a sane positive
    rate.
    """
    from repro.engine import scenario_context, simulate_into
    from repro.pipeline import StreamingAnalysisSink
    from repro.regimes import available_regimes
    from repro.workload.config import (
        DEFAULT_BOOSTS,
        DEFAULT_USER_DAY_BOOST,
        ScenarioConfig,
    )

    scale = int(os.environ.get("REPRO_BENCH_SCALE", "200000"))
    regimes = {}
    totals = set()
    for name in available_regimes():
        config = ScenarioConfig(
            total_requests=scale,
            seed=2014,
            boosts=dict(DEFAULT_BOOSTS),
            user_day_boost=DEFAULT_USER_DAY_BOOST,
            regime=name,
        )
        scenario_context(config)  # warm the context outside the timer
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            sink, _ = simulate_into(config, StreamingAnalysisSink(),
                                    workers=1)
            best = min(best, time.perf_counter() - start)
        breakdown = sink.analysis.breakdown()
        total = breakdown.total
        totals.add(total)
        regimes[name] = {
            "seconds": round(best, 4),
            "records_per_sec": round(total / best),
            "censored_pct": round(breakdown.censored_pct, 2),
        }
        assert total > 0 and best > 0

    # Identical workload spec → identical record volume per regime.
    assert len(totals) == 1
    total = totals.pop()
    lines = ", ".join(
        f"{name} {entry['records_per_sec']:,} rec/s"
        for name, entry in regimes.items()
    )
    print(f"\nregime throughput @ {total:,} records: {lines}")
