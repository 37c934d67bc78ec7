"""Command-line interface.

Ten subcommands cover the simulate → analyze loop, the cross-regime
comparison, the live ingestion service, and distributed execution:

``repro simulate``
    Generate a scenario and write its logs in the leaked ELFF/CSV
    format (one file per proxy, like the Telecomix release, or one
    combined file).

``repro analyze``
    Load ELFF logs and print the headline statistics and top domains.

``repro recover``
    Run the Section 5.4 policy recovery on ELFF logs: suspected
    domains, blocked hosts, keywords.

``repro report``
    Simulate and run the complete paper pipeline, printing the
    condensed report (equivalent to examples/censorship_report.py).

``repro compare``
    Run one shared workload through several censorship-regime
    profiles (``--regimes``, default all registered) and print a
    side-by-side table: block rates, mechanism mix, error surface,
    and recovered-rule precision/recall per regime.

``repro verify-run``
    Audit a ``--checkpoint-dir`` run ledger offline: manifest,
    journal, and every artifact's SHA-256.  Exits nonzero on damage.

``repro serve``
    Run the live ingestion service: tail growing ELFF files, accept
    log lines over ``POST /ingest``, serve sliding-window analyses on
    ``GET /analysis?window=N`` (see the "Live ingestion" section of
    docs/ARCHITECTURE.md).

``repro loadgen``
    Drive a running service at a fixed request rate with synthetic
    ELFF payloads, printing live throughput and a final summary.
    429 responses are retried with a capped ``Retry-After`` backoff;
    deferred sends are counted separately in the live deltas.

``repro run-distributed``
    Coordinate a distributed simulate: plan shards, seed a lease
    queue in ``--queue-dir``, fork ``--spawn`` workers (or wait for
    ``repro work`` processes), and merge the results
    byte-identically to a single-box run (see the "Distributed
    execution" section of docs/ARCHITECTURE.md).

``repro work``
    One distributed worker: lease unfinished shards from a queue
    directory, renew heartbeats while executing, record completions
    into the shared run ledger, and exit when the run is done.

``simulate``, ``analyze``, and ``report`` accept ``--checkpoint-dir``
(journal completed shards to a durable run ledger) and ``--resume``
(load verified completed shards from that ledger instead of re-running
them) — see the "Durability model" section of docs/ARCHITECTURE.md.

``simulate``, ``report``, ``serve``, and ``analyze`` accept
``--regime`` to select a registered censorship-regime profile
(default ``syria``); the regime joins the checkpoint fingerprint, so
``--resume`` refuses to mix shards from different regimes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.version import __version__


def _positive_int(text: str) -> int:
    """argparse type for flags that must be >= 1 (e.g. --workers)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for flags that must be > 0 (e.g. --rate)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type for flags that must be >= 0 (--max-shard-retries)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


_WORKERS_HELP = "worker processes (default 1 = serial; results are " \
                "identical at every worker count)"

_METRICS_HELP = "write a JSON metrics report (counters, timers, " \
                "per-shard throughput) to PATH; does not change any " \
                "other output"

_RETRIES_HELP = "re-run a failed shard up to N times with capped " \
                "exponential backoff before giving up (default: " \
                "REPRO_MAX_SHARD_RETRIES or 2; retried shards replay " \
                "identical streams, so output is unchanged)"

_PARTIAL_HELP = "quarantine shards that still fail after retries and " \
                "finish with the surviving shards instead of aborting " \
                "(quarantined shards are listed on stdout and in the " \
                "--metrics report)"


_BATCH_HELP = "process records in column batches of N rows (default " \
              "%(default)s; vectorized fleet/parse/classify/fold hot " \
              "paths; output is byte-identical at every batch size and " \
              "worker count)"

_CHECKPOINT_HELP = "journal every completed shard to a durable run " \
                   "ledger in DIR (manifest + fsync'd journal + " \
                   "checksummed artifacts); a killed run can be " \
                   "finished later with --resume"

_RESUME_HELP = "continue the run ledger in --checkpoint-dir: verified " \
               "completed shards are loaded instead of re-run, so the " \
               "finished output is byte-identical to an uninterrupted " \
               "run"


_REGIME_HELP = "censorship-regime profile to deploy (default syria; " \
               "see `repro compare` for the registered profiles)"


def _add_regime_flag(command) -> None:
    """The shared --regime surface (registered regime profiles)."""
    command.add_argument("--regime", default="syria", metavar="NAME",
                         help=_REGIME_HELP)


def _resolve_regime(name: str):
    """The registered profile for *name*, or a clean usage error."""
    from repro.regimes import UnknownRegimeError, get_regime

    try:
        return get_regime(name)
    except UnknownRegimeError as error:
        raise SystemExit(f"error: {error}") from None


#: The regimes ``repro.regimes`` registers when it is imported.
_BUILTIN_REGIMES = ("pakistan", "syria", "turkmenistan")


def _check_regime(name: str) -> None:
    """Validate --regime for a command that only labels its run with
    it: a built-in name needs no profile, so the regime packages load
    only for another name (a clean usage error if it is unknown)."""
    if name not in _BUILTIN_REGIMES:
        _resolve_regime(name)


def _add_resilience_flags(command) -> None:
    """The shared --max-shard-retries / --allow-partial surface."""
    command.add_argument("--max-shard-retries", type=_nonnegative_int,
                         default=None, metavar="N", help=_RETRIES_HELP)
    command.add_argument("--allow-partial", action="store_true",
                         help=_PARTIAL_HELP)


def _add_checkpoint_flags(command) -> None:
    """The shared --checkpoint-dir / --resume surface."""
    command.add_argument("--checkpoint-dir", type=Path, default=None,
                         metavar="DIR", help=_CHECKPOINT_HELP)
    command.add_argument("--resume", action="store_true",
                         help=_RESUME_HELP)


def _add_batch_flag(command) -> None:
    """The shared --batch-size surface (column-batch execution)."""
    from repro.batching import BATCH_SIZE

    command.add_argument("--batch-size", type=_positive_int,
                         default=BATCH_SIZE, metavar="N",
                         help=_BATCH_HELP)


def _checkpoint_for(args: argparse.Namespace, fingerprint):
    """The RunCheckpoint for a command, or None without
    --checkpoint-dir.  ``--resume`` alone is a usage error."""
    directory = getattr(args, "checkpoint_dir", None)
    if directory is None:
        if getattr(args, "resume", False):
            raise SystemExit(
                "error: --resume requires --checkpoint-dir "
                "(there is no ledger to resume from)"
            )
        return None
    from repro.runstate import RunCheckpoint

    return RunCheckpoint(directory, fingerprint, resume=args.resume)


def _fault_args(args: argparse.Namespace):
    """The (retry, allow_partial, failures) triple for a command."""
    from dataclasses import replace

    from repro.engine import RetryPolicy
    from repro.faults import ShardFailureReport

    retry = None
    if getattr(args, "max_shard_retries", None) is not None:
        retry = replace(RetryPolicy.from_env(),
                        max_retries=args.max_shard_retries)
    allow_partial = bool(getattr(args, "allow_partial", False))
    return retry, allow_partial, ShardFailureReport()


def _report_quarantine(failures) -> None:
    """Print one line per quarantined shard (partial-results mode)."""
    for failure in failures:
        print(f"  quarantined {failure.shard_id} "
              f"after {failure.attempts} attempts "
              f"[{failure.site}]: {failure.error}")


def _start_metrics(args: argparse.Namespace):
    """The (registry, start-time) pair for a command, or (None, None)
    when --metrics was not given."""
    if getattr(args, "metrics", None) is None:
        return None, None
    import time

    from repro.metrics import MetricsRegistry

    return MetricsRegistry(), time.perf_counter()


def _finish_metrics(args, metrics, started) -> None:
    """Write the --metrics JSON report, stamping command wall time."""
    if metrics is None:
        return
    import time

    from repro.metrics import write_metrics_report

    path = write_metrics_report(
        args.metrics,
        metrics,
        command=args.command,
        workers=getattr(args, "workers", 1),
        wall_seconds=time.perf_counter() - started,
    )
    print(f"metrics report -> {path}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Censorship in the Wild' (IMC 2014)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="generate a scenario and write ELFF logs"
    )
    simulate.add_argument("--requests", type=int, default=50_000,
                          help="total request volume (default 50000)")
    simulate.add_argument("--seed", type=int, default=2011)
    simulate.add_argument("--out", type=Path, required=True,
                          help="output directory for the log files")
    simulate.add_argument("--per-proxy", action="store_true",
                          help="one file per proxy (like the leak)")
    simulate.add_argument("--per-day", action="store_true",
                          help="split files further by log day")
    simulate.add_argument("--boosts", action="store_true",
                          help="oversample rare traffic components")
    simulate.add_argument("--compress", action="store_true",
                          help="write gzip-compressed logs (.log.gz); "
                               "analyze/recover read them transparently")
    simulate.add_argument("--workers", type=_positive_int, default=1,
                          help=_WORKERS_HELP)
    simulate.add_argument("--metrics", type=Path, default=None,
                          help=_METRICS_HELP)
    _add_regime_flag(simulate)
    _add_resilience_flags(simulate)
    _add_checkpoint_flags(simulate)
    _add_batch_flag(simulate)

    analyze = commands.add_parser(
        "analyze", help="summarize ELFF logs (Tables 3 and 4)"
    )
    analyze.add_argument("logs", type=Path, nargs="+",
                         help="ELFF/CSV log files")
    analyze.add_argument("--top", type=int, default=10)
    analyze.add_argument("--streaming", action="store_true",
                         help="single-pass constant-memory analysis "
                              "(for logs too large to load)")
    analyze.add_argument("--workers", type=_positive_int, default=1,
                         help=_WORKERS_HELP)
    analyze.add_argument("--metrics", type=Path, default=None,
                         help=_METRICS_HELP)
    _add_regime_flag(analyze)
    _add_resilience_flags(analyze)
    _add_checkpoint_flags(analyze)
    _add_batch_flag(analyze)

    recover = commands.add_parser(
        "recover", help="recover the filtering policy from ELFF logs"
    )
    recover.add_argument("logs", type=Path, nargs="+")
    recover.add_argument("--min-censored", type=int, default=3)

    report = commands.add_parser(
        "report", help="simulate and run the full paper pipeline"
    )
    report.add_argument("--requests", type=int, default=100_000)
    report.add_argument("--seed", type=int, default=42)
    report.add_argument("--markdown", type=Path, default=None,
                        help="also write the report as a Markdown file")
    report.add_argument("--workers", type=_positive_int, default=1,
                        help=_WORKERS_HELP)
    report.add_argument("--metrics", type=Path, default=None,
                        help=_METRICS_HELP)
    _add_regime_flag(report)
    _add_resilience_flags(report)
    _add_checkpoint_flags(report)
    _add_batch_flag(report)

    compare = commands.add_parser(
        "compare",
        help="run one workload through several regimes, side by side",
    )
    compare.add_argument("--requests", type=int, default=20_000,
                         help="total request volume per regime "
                              "(default 20000)")
    compare.add_argument("--seed", type=int, default=7)
    compare.add_argument("--regimes", nargs="+", default=None,
                         metavar="NAME",
                         help="regime profiles to compare (default: "
                              "all registered profiles)")
    compare.add_argument("--markdown", type=Path, default=None,
                         help="also write the comparison as a Markdown "
                              "file")
    compare.add_argument("--json", type=Path, default=None,
                         help="also write the comparison as a JSON file")
    compare.add_argument("--workers", type=_positive_int, default=1,
                         help=_WORKERS_HELP)
    compare.add_argument("--metrics", type=Path, default=None,
                         help=_METRICS_HELP)
    _add_resilience_flags(compare)
    _add_batch_flag(compare)

    verify = commands.add_parser(
        "verify-run",
        help="audit a --checkpoint-dir run ledger (exit 1 on damage)",
    )
    verify.add_argument("directory", type=Path,
                        help="the checkpoint directory to audit")
    verify.add_argument("--json", action="store_true",
                        help="print the audit as machine-readable JSON "
                             "(fingerprint, completed/pending/damaged "
                             "shard lists) instead of the text table; "
                             "exit-code semantics are unchanged")

    serve = commands.add_parser(
        "serve", help="run the live ELFF ingestion service"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 picks a free port and prints "
                            "it (default 8080)")
    serve.add_argument("--tail", type=Path, action="append", default=[],
                       metavar="PATH",
                       help="tail a growing ELFF file (repeatable; .gz "
                            "transparent; the file may not exist yet)")
    serve.add_argument("--window-days", type=_positive_int, default=None,
                       metavar="N",
                       help="retain only the newest N log-days of "
                            "analysis state (default: retain all days)")
    serve.add_argument("--queue-size", type=_positive_int, default=64,
                       metavar="N",
                       help="bounded ingest queue depth; a full queue "
                            "answers 429 + Retry-After (default 64)")
    serve.add_argument("--poll-interval", type=_positive_float,
                       default=0.25, metavar="SECONDS",
                       help="tail poll interval (default 0.25)")
    serve.add_argument("--retry-after", type=_positive_float, default=1.0,
                       metavar="SECONDS",
                       help="Retry-After value sent with 429 (default 1)")
    serve.add_argument("--for-seconds", type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="shut down cleanly after SECONDS instead of "
                            "waiting for SIGINT/SIGTERM (smoke tests)")
    _add_regime_flag(serve)

    loadgen = commands.add_parser(
        "loadgen", help="drive a running service at a fixed request rate"
    )
    loadgen.add_argument("--host", default="127.0.0.1",
                         help="service address (default 127.0.0.1)")
    loadgen.add_argument("--port", type=_positive_int, required=True,
                         help="service port")
    loadgen.add_argument("--rate", type=_positive_float, default=50.0,
                         metavar="RPS",
                         help="offered request rate per second "
                              "(default 50)")
    loadgen.add_argument("--requests", type=_positive_int, default=200,
                         metavar="N",
                         help="total requests to send (default 200)")
    loadgen.add_argument("--lines", type=_positive_int, default=20,
                         metavar="N",
                         help="ELFF records per request (default 20)")
    loadgen.add_argument("--days", type=_positive_int, default=3,
                         metavar="N",
                         help="spread synthetic records over N log-days "
                              "(default 3)")
    loadgen.add_argument("--workers", type=_positive_int, default=4,
                         help="concurrent connections (default 4; the "
                              "offered rate is worker-count-invariant)")
    loadgen.add_argument("--quiet", action="store_true",
                         help="suppress the live per-interval output")
    loadgen.add_argument("--retry-after-cap", type=_positive_float,
                         default=5.0, metavar="SECONDS",
                         help="ceiling on the per-request backoff grown "
                              "from the service's Retry-After header "
                              "across consecutive 429s (default 5)")

    distributed = commands.add_parser(
        "run-distributed",
        help="coordinate a multi-worker simulate over a lease queue",
    )
    distributed.add_argument("--requests", type=int, default=50_000,
                             help="total request volume (default 50000)")
    distributed.add_argument("--seed", type=int, default=2011)
    distributed.add_argument("--out", type=Path, required=True,
                             help="output directory for the log files")
    distributed.add_argument("--per-proxy", action="store_true",
                             help="one file per proxy (like the leak)")
    distributed.add_argument("--per-day", action="store_true",
                             help="split files further by log day")
    distributed.add_argument("--boosts", action="store_true",
                             help="oversample rare traffic components")
    distributed.add_argument("--compress", action="store_true",
                             help="write gzip-compressed logs (.log.gz)")
    distributed.add_argument("--queue-dir", type=Path, required=True,
                             metavar="DIR",
                             help="shared ledger + lease-queue directory "
                                  "(every worker must see this path)")
    distributed.add_argument("--spawn", type=_nonnegative_int, default=2,
                             metavar="N",
                             help="local workers to fork from the "
                                  "coordinator (default 2; 0 = workers "
                                  "are started elsewhere with `repro "
                                  "work DIR`)")
    distributed.add_argument("--lease-ttl", type=_positive_float,
                             default=None, metavar="SECONDS",
                             help="lease time-to-live before a shard is "
                                  "reclaimable (default: REPRO_LEASE_TTL "
                                  "or 30)")
    distributed.add_argument("--wait-timeout", type=_positive_float,
                             default=None, metavar="SECONDS",
                             help="abort if the run is still incomplete "
                                  "after SECONDS (default: wait forever)")
    distributed.add_argument("--poll-interval", type=_positive_float,
                             default=0.2, metavar="SECONDS",
                             help="longest wait between journal reads "
                                  "(default 0.2)")
    distributed.add_argument("--status-port", type=_nonnegative_int,
                             default=None, metavar="PORT",
                             help="serve /healthz + /workers progress on "
                                  "PORT (0 picks a free port and prints "
                                  "it)")
    distributed.add_argument("--resume", action="store_true",
                             help="continue an interrupted distributed "
                                  "run in --queue-dir (verified completed "
                                  "shards are not re-run)")
    distributed.add_argument("--metrics", type=Path, default=None,
                             help=_METRICS_HELP)
    _add_regime_flag(distributed)
    _add_batch_flag(distributed)

    work = commands.add_parser(
        "work",
        help="run one distributed worker against a queue directory",
    )
    work.add_argument("directory", type=Path,
                      help="the shared queue directory a coordinator "
                           "seeded (or will seed)")
    work.add_argument("--worker-id", default=None, metavar="ID",
                      help="stable worker identity (default <host>:<pid>)")
    work.add_argument("--poll-interval", type=_positive_float, default=0.2,
                      metavar="SECONDS",
                      help="longest idle wait between journal reads "
                           "(default 0.2)")
    work.add_argument("--startup-timeout", type=_positive_float,
                      default=None, metavar="SECONDS",
                      help="give up if no coordinator seeds the queue "
                           "within SECONDS (default: wait forever)")
    work.add_argument("--max-idle", type=_positive_float, default=None,
                      metavar="SECONDS",
                      help="give up after idling SECONDS while other "
                           "workers hold every remaining lease "
                           "(default: trust lease expiry and wait)")
    work.add_argument("--metrics", type=Path, default=None,
                      help=_METRICS_HELP)
    return parser


def _load_frames(paths: list[Path], **options):
    from repro.engine import load_frames

    for path in paths:
        if not path.exists():
            raise SystemExit(f"error: no such log file: {path}")
    return load_frames(paths, **options)


def _analyze_fingerprint(mode: str, paths: list[Path], regime: str):
    """The analyze fingerprint: the input files *are* the run.

    Paths and byte sizes pin identity — an edited or regrown log file
    changes its size in practice, and the artifact hashes catch the
    rest on resume.  ``mode`` separates the streaming and frame
    pipelines, whose shard results have different shapes; ``regime``
    records which deployment's logs these are, so a ``--resume`` under
    a different ``--regime`` label refuses instead of mixing runs.
    """
    from repro.runstate import run_fingerprint

    return run_fingerprint(
        f"analyze-{mode}",
        logs=[str(path) for path in paths],
        sizes=[path.stat().st_size for path in paths],
        regime=regime,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.engine import simulate_fingerprint, simulate_to_logs
    from repro.workload.config import DEFAULT_BOOSTS, ScenarioConfig

    _resolve_regime(args.regime)
    config = ScenarioConfig(
        total_requests=args.requests,
        seed=args.seed,
        boosts=dict(DEFAULT_BOOSTS) if args.boosts else {},
        regime=args.regime,
    )
    suffix = f", {args.workers} workers" if args.workers > 1 else ""
    print(f"simulating {args.requests:,} requests "
          f"(seed {args.seed}{suffix})...")
    metrics, started = _start_metrics(args)
    retry, allow_partial, failures = _fault_args(args)
    checkpoint = _checkpoint_for(args, simulate_fingerprint(
        config, per_proxy=args.per_proxy, per_day=args.per_day,
        compress=args.compress,
    ))
    for path, count in simulate_to_logs(
        config, args.out,
        per_proxy=args.per_proxy, per_day=args.per_day,
        compress=args.compress, workers=args.workers, metrics=metrics,
        retry=retry, allow_partial=allow_partial, failures=failures,
        checkpoint=checkpoint, batch_size=args.batch_size,
    ):
        print(f"  wrote {count:>8,} records -> {path}")
    _report_quarantine(failures)
    _finish_metrics(args, metrics, started)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.overview import top_domains, traffic_breakdown
    from repro.reporting import render_table

    if args.streaming:
        return _analyze_streaming(args)
    metrics, started = _start_metrics(args)
    retry, allow_partial, failures = _fault_args(args)
    for path in args.logs:
        if not path.exists():
            raise SystemExit(f"error: no such log file: {path}")
    _check_regime(args.regime)
    checkpoint = _checkpoint_for(
        args, _analyze_fingerprint("frames", args.logs, args.regime)
    )
    frame = _load_frames(args.logs, workers=args.workers, metrics=metrics,
                         retry=retry, allow_partial=allow_partial,
                         failures=failures, checkpoint=checkpoint,
                         batch_size=args.batch_size)
    breakdown = traffic_breakdown(frame)
    print(render_table(
        ["Class", "Requests", "%"],
        [
            ["allowed", breakdown.allowed, f"{breakdown.allowed_pct:.2f}"],
            ["censored", breakdown.censored, f"{breakdown.censored_pct:.2f}"],
            ["errors", breakdown.errors,
             f"{breakdown.denied_pct - breakdown.censored_pct:.2f}"],
            ["proxied", breakdown.proxied, f"{breakdown.proxied_pct:.2f}"],
        ],
        title=f"Traffic breakdown ({breakdown.total:,} requests)",
    ))
    domains = top_domains(frame, n=args.top)
    print(render_table(
        ["Allowed domain", "%", "Censored domain", "%"],
        [
            [
                a.domain if a else "-", f"{a.share_pct:.2f}" if a else "-",
                c.domain if c else "-", f"{c.share_pct:.2f}" if c else "-",
            ]
            for a, c in _zip_longest(domains.allowed, domains.censored)
        ],
        title="\nTop domains",
    ))
    _report_quarantine(failures)
    _finish_metrics(args, metrics, started)
    return 0


def _zip_longest(a, b):
    from itertools import zip_longest

    return zip_longest(a, b, fillvalue=None)


def _analyze_streaming(args: argparse.Namespace) -> int:
    from repro.engine import analyze_logs
    from repro.reporting import render_table

    for path in args.logs:
        if not path.exists():
            raise SystemExit(f"error: no such log file: {path}")
    metrics, started = _start_metrics(args)
    retry, allow_partial, failures = _fault_args(args)
    _check_regime(args.regime)
    checkpoint = _checkpoint_for(
        args, _analyze_fingerprint("streaming", args.logs, args.regime)
    )
    acc, stats = analyze_logs(args.logs, workers=args.workers,
                              metrics=metrics, retry=retry,
                              allow_partial=allow_partial,
                              failures=failures, checkpoint=checkpoint,
                              batch_size=args.batch_size)
    breakdown = acc.breakdown()
    print(render_table(
        ["Class", "Requests", "%"],
        [
            ["allowed", breakdown.allowed, f"{breakdown.allowed_pct:.2f}"],
            ["censored", breakdown.censored, f"{breakdown.censored_pct:.2f}"],
            ["errors", breakdown.errors, ""],
            ["proxied", breakdown.proxied, ""],
        ],
        title=f"Traffic breakdown ({breakdown.total:,} requests, streaming)",
    ))
    print(render_table(
        ["Censored domain", "Requests"],
        [[domain, count] for domain, count in acc.top_censored(args.top)],
        title="\nTop censored domains",
    ))
    if stats.skipped or stats.corrupted:
        print(f"(skipped {stats.skipped:,} malformed lines, "
              f"{stats.corrupted:,} corrupted streams; "
              f"first error: {stats.first_error})")
    _report_quarantine(failures)
    _finish_metrics(args, metrics, started)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.analysis.stringfilter import recover_policy
    from repro.reporting import render_table

    recovery = recover_policy(_load_frames(args.logs))
    suspected = recovery.suspected_domains(args.min_censored)
    print(render_table(
        ["Suspected domain", "Censored", "% of censored"],
        [[row.domain, row.censored, f"{row.censored_share_pct:.2f}"]
         for row in suspected[:20]],
        title=f"URL-blocked domains ({len(suspected)} recovered)",
    ))
    if recovery.hosts:
        print(render_table(
            ["Blocked host", "Censored"],
            [[row.host, row.censored] for row in recovery.hosts[:10]],
            title="\nIndividually blocked hosts",
        ))
    print(render_table(
        ["Keyword", "Coverage"],
        [[k.keyword, k.coverage] for k in recovery.keywords],
        title="\nRecovered keyword blacklist",
    ))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.engine import build_scenario
    from repro.workload.config import report_config

    profile = _resolve_regime(args.regime)
    print(f"simulating {args.requests:,} requests and running the full "
          "pipeline...")
    metrics, started = _start_metrics(args)
    retry, allow_partial, failures = _fault_args(args)
    from repro.engine.simulate import stream_versions
    from repro.runstate import config_digest, run_fingerprint

    config = report_config(args.requests, args.seed, regime=args.regime)
    checkpoint = _checkpoint_for(args, run_fingerprint(
        "report", config=config_digest(config), regime=config.regime,
        **stream_versions(config),
    ))
    datasets = build_scenario(
        config, workers=args.workers, metrics=metrics, retry=retry,
        allow_partial=allow_partial, failures=failures,
        checkpoint=checkpoint, batch_size=args.batch_size)
    if args.regime == "syria":
        _report_syria(args, datasets, metrics)
    else:
        _report_regime(args, profile, datasets, metrics)
    _report_quarantine(failures)
    _finish_metrics(args, metrics, started)
    return 0


def _analysis_timer(metrics):
    """One ``analysis.report_seconds`` span around a report's tables
    (a no-op without --metrics)."""
    from contextlib import nullcontext

    if metrics is None:
        return nullcontext()
    return metrics.timer("analysis.report_seconds")


def _report_syria(args, datasets, metrics) -> None:
    """The full paper pipeline — every table and figure is defined
    against the Syrian deployment, so this path is Syria-only."""
    from repro.analysis.report import build_report

    with _analysis_timer(metrics):
        report = build_report(datasets)
    full = report.table3["full"]
    print(f"allowed {full.allowed_pct:.2f}%, censored {full.censored_pct:.2f}%")
    print("top censored:", [r.domain for r in report.table4.censored[:5]])
    print("recovered keywords:",
          [k.keyword for k in report.recovered_keywords])
    print("suspected domains:", len(report.table8))
    if args.markdown is not None:
        from repro.atomicio import atomic_write_text
        from repro.reporting.markdown import report_to_markdown

        args.markdown.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(args.markdown, report_to_markdown(
            report,
            title=f"Censorship report — {args.requests:,} requests, "
                  f"seed {args.seed}",
            metrics=metrics,
        ))
        print(f"markdown report -> {args.markdown}")


def _report_regime(args, profile, datasets, metrics) -> None:
    """The regime-generic report: breakdown, top censored domains,
    and the profile's own rule recoveries with precision/recall."""
    from repro.analysis.overview import top_domains, traffic_breakdown

    with _analysis_timer(metrics):
        breakdown = traffic_breakdown(datasets.full)
        domains = top_domains(datasets.full)
        recoveries = profile.recover_rules(datasets.full, datasets.policy)
    print(f"regime {profile.name}: "
          f"{', '.join(profile.mechanisms)}")
    print(f"allowed {breakdown.allowed_pct:.2f}%, "
          f"censored {breakdown.censored_pct:.2f}%")
    print("top censored:", [r.domain for r in domains.censored[:5]])
    for recovery in recoveries:
        print(f"recovered {recovery.kind}: "
              f"{len(recovery.recovered)}/{len(recovery.truth)} "
              f"(precision {recovery.precision:.2f}, "
              f"recall {recovery.recall:.2f})")
    if args.markdown is not None:
        from repro.atomicio import atomic_write_text

        lines = [
            f"# Censorship report — {profile.name}, "
            f"{args.requests:,} requests, seed {args.seed}",
            "",
            f"- mechanisms: {', '.join(profile.mechanisms)}",
            f"- allowed: {breakdown.allowed_pct:.2f}%",
            f"- censored: {breakdown.censored_pct:.2f}%",
            "",
            "| Recovery | Recovered/Truth | Precision | Recall |",
            "| --- | --- | --- | --- |",
        ]
        lines += [
            f"| {r.kind} | {len(r.recovered)}/{len(r.truth)} "
            f"| {r.precision:.2f} | {r.recall:.2f} |"
            for r in recoveries
        ]
        args.markdown.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(args.markdown, "\n".join(lines) + "\n")
        print(f"markdown report -> {args.markdown}")


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.regimes.compare import (
        DEFAULT_COMPARE_REGIMES,
        compare_regimes,
        comparison_table,
        comparison_to_json,
        comparison_to_markdown,
    )
    from repro.workload.config import DEFAULT_BOOSTS, ScenarioConfig

    regimes = tuple(args.regimes) if args.regimes else DEFAULT_COMPARE_REGIMES
    for name in regimes:
        _resolve_regime(name)
    config = ScenarioConfig(
        total_requests=args.requests, seed=args.seed,
        boosts=dict(DEFAULT_BOOSTS),
    )
    print(f"comparing {', '.join(regimes)} over {args.requests:,} "
          f"requests (seed {args.seed})...")
    metrics, started = _start_metrics(args)
    retry, allow_partial, failures = _fault_args(args)
    comparison = compare_regimes(
        config, regimes, workers=args.workers,
        batch_size=args.batch_size, metrics=metrics,
        retry=retry, allow_partial=allow_partial, failures=failures,
    )
    print(comparison_table(comparison))
    _report_quarantine(failures)
    if args.markdown is not None:
        from repro.atomicio import atomic_write_text

        args.markdown.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(args.markdown, comparison_to_markdown(comparison))
        print(f"markdown comparison -> {args.markdown}")
    if args.json is not None:
        import json

        from repro.atomicio import atomic_write_text

        args.json.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(args.json, json.dumps(
            comparison_to_json(comparison), indent=2, sort_keys=True,
        ) + "\n")
        print(f"json comparison -> {args.json}")
    _finish_metrics(args, metrics, started)
    return 0


def _cmd_verify_run(args: argparse.Namespace) -> int:
    from repro.runstate import audit_run

    audit = audit_run(args.directory)
    if args.json:
        import json

        print(json.dumps(audit.to_json(), indent=2, sort_keys=True))
        return 0 if audit.ok else 1
    if audit.fingerprint:
        facets = ", ".join(
            f"{key}={value}"
            for key, value in sorted(audit.fingerprint.items())
        )
        print(f"  fingerprint: {facets}")
    for error in audit.errors:
        print(f"  error: {error}")
    for entry in audit.entries:
        marker = "ok " if entry.status == "ok" else "!! "
        if entry.status == "pending":
            marker = ".. "
        print(f"  {marker}{entry.shard_id:<24} {entry.status:<14} "
              f"{entry.detail}")
    pending = sum(1 for e in audit.entries if e.status == "pending")
    damaged = sum(1 for e in audit.entries if e.damaged)
    print(f"{audit.directory}: {audit.completed} completed, "
          f"{pending} pending, {damaged} damaged"
          + (f", {len(audit.errors)} ledger errors" if audit.errors else ""))
    return 0 if audit.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import IngestService, WindowStore

    _resolve_regime(args.regime)
    service = IngestService(
        WindowStore(retention_days=args.window_days),
        queue_size=args.queue_size,
        tail_paths=tuple(args.tail),
        poll_interval=args.poll_interval,
        retry_after=args.retry_after,
        regime=args.regime,
    )
    try:
        asyncio.run(service.serve_forever(
            args.host, args.port, for_seconds=args.for_seconds,
        ))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.service import LoadGenerator

    generator = LoadGenerator(
        args.host, args.port,
        rate=args.rate, total=args.requests,
        lines_per_request=args.lines, days=args.days,
        workers=args.workers, quiet=args.quiet,
        retry_after_cap=args.retry_after_cap,
    )
    try:
        summary = asyncio.run(generator.run())
    except ConnectionRefusedError:
        raise SystemExit(
            f"error: no service listening on {args.host}:{args.port} "
            "(start one with `repro serve`)"
        )
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_run_distributed(args: argparse.Namespace) -> int:
    from repro.dispatch import (
        DispatchError,
        lease_ttl_from_env,
        run_distributed,
        simulate_job_for,
    )
    from repro.workload.config import DEFAULT_BOOSTS, ScenarioConfig

    _resolve_regime(args.regime)
    config = ScenarioConfig(
        total_requests=args.requests,
        seed=args.seed,
        boosts=dict(DEFAULT_BOOSTS) if args.boosts else {},
        regime=args.regime,
    )
    job = simulate_job_for(
        config, args.out,
        per_proxy=args.per_proxy, per_day=args.per_day,
        compress=args.compress, batch_size=args.batch_size,
    )
    ttl = args.lease_ttl if args.lease_ttl is not None \
        else lease_ttl_from_env()
    metrics, started = _start_metrics(args)
    server = None
    if args.status_port is not None:
        from repro.service import WorkerStatusServer

        server = WorkerStatusServer(
            args.queue_dir, port=args.status_port
        ).start()
        print(f"status -> http://127.0.0.1:{server.port}/healthz")
    print(f"distributing {args.requests:,} requests over "
          f"{args.spawn} spawned worker(s), lease TTL {ttl:g}s "
          f"(queue {args.queue_dir})...")
    try:
        run = run_distributed(
            job, args.queue_dir,
            spawn=args.spawn, ttl=ttl, resume=args.resume,
            metrics=metrics, poll_interval=args.poll_interval,
            wait_timeout=args.wait_timeout,
        )
    except DispatchError as error:
        # Queue mismatch, stalled distributed run: refuse cleanly with
        # the explanation instead of a traceback.
        raise SystemExit(f"error: {error}") from error
    finally:
        if server is not None:
            server.stop()
    for path, count in run.output:
        print(f"  wrote {path} ({count:,} records)")
    if run.resumed:
        print(f"  resumed {run.resumed} completed shard(s) from the ledger")
    if run.inline_shards:
        print(f"  coordinator finished {run.inline_shards} shard(s) "
              "inline after every spawned worker exited")
    c = run.counters
    print(f"leases: {c.get('dispatch.lease.granted', 0)} granted, "
          f"{c.get('dispatch.lease.renewed', 0)} renewed, "
          f"{c.get('dispatch.lease.expired', 0)} expired, "
          f"{c.get('dispatch.lease.reclaimed', 0)} reclaimed, "
          f"{c.get('dispatch.shards.requeued', 0)} requeued")
    _finish_metrics(args, metrics, started)
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    from repro.dispatch import DispatchError, run_worker

    metrics, started = _start_metrics(args)
    try:
        summary = run_worker(
            args.directory,
            worker_id=args.worker_id,
            metrics=metrics,
            poll_interval=args.poll_interval,
            startup_timeout=args.startup_timeout,
            max_idle=args.max_idle,
        )
    except DispatchError as error:
        # A queue no coordinator seeded, a manifest from another build:
        # refuse cleanly with the explanation instead of a traceback.
        raise SystemExit(f"error: {error}") from error
    extra = f", {summary.lost} lease(s) lost" if summary.lost else ""
    print(f"worker {summary.worker_id}: {summary.executed} shard(s), "
          f"{summary.records:,} records, "
          f"{summary.wall_seconds:.2f}s shard time{extra}")
    _finish_metrics(args, metrics, started)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "recover": _cmd_recover,
    "report": _cmd_report,
    "compare": _cmd_compare,
    "verify-run": _cmd_verify_run,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "run-distributed": _cmd_run_distributed,
    "work": _cmd_work,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    from repro.runstate import RunStateError

    try:
        return _COMMANDS[args.command](args)
    except RunStateError as error:
        # Fingerprint mismatch, foreign ledger, live lock: refuse
        # cleanly with the explanation instead of a traceback.
        raise SystemExit(f"error: {error}") from error


if __name__ == "__main__":
    sys.exit(main())
