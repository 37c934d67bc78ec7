"""Process-pool execution with shard-aware error handling and retry.

The engine's unit of parallelism is a *shard*: a self-contained piece
of work (one log-day to simulate, one log file to analyze) whose result
can be merged with its siblings afterwards.  :func:`run_sharded` is the
single dispatch point:

* ``workers=1`` is a pure serial loop — no pool, no pickling, no
  multiprocessing dependency at all;
* with more workers, shards fan out over a ``ProcessPoolExecutor``;
* a pool that cannot start or that breaks mid-run (a worker killed by
  the OS, a sandbox that forbids semaphores) degrades gracefully to the
  serial loop with an :class:`EngineFallbackWarning`, so parallelism is
  an optimization, never a new failure mode;
* a shard that raises is **retried** with capped exponential backoff
  (:class:`RetryPolicy`) — because every shard replays a deterministic
  stream, a retried shard produces the exact bytes the first attempt
  would have, so transient failures are invisible in the output;
* a shard that still fails after its retry budget either aborts the
  run wrapped in :class:`ShardError` (``strict=True``, the default) or
  is **quarantined** into a
  :class:`~repro.faults.ShardFailure` record while the survivors
  complete (``strict=False``, partial-results mode);
* with a :class:`~repro.runstate.RunCheckpoint` (``checkpoint=``),
  every completed shard is persisted to a durable run ledger and a
  resumed run loads verified completed shards into the merge instead
  of re-executing them — retries cover transient faults, quarantine
  covers poisoned shards, and the checkpoint covers process death.

Every shard attempt executes under the active
:class:`~repro.faults.FaultPlan` (explicit ``fault_plan=`` argument or
the ``REPRO_FAULT_PLAN`` environment knob), which is how the chaos
suite injects crashes, transient exceptions, corrupt reads, and slow
shards through the same code paths production runs use.

The serial loop, the pool and the lease worker (``repro work``) run
every attempt through :func:`_run_attempt`; the serial loop and the
worker share the retry loop :func:`run_shard` (the pool resubmits from
the parent, which alone can abandon a timed-out attempt); and
:func:`fold_shard` counts any settled shard into a metrics registry.

Results are always returned in shard order, which is what makes the
parallel paths bit-reproducible: callers merge in a fixed order no
matter which worker finished first.
"""

from __future__ import annotations

import os
import time
import warnings
from collections.abc import Callable, Iterable, Sequence
from contextlib import ExitStack
from dataclasses import dataclass
from typing import TypeVar

from repro.faults import (
    FaultPlan,
    ShardFailure,
    ShardFailureReport,
    fault_point,
    plan_from_env,
    use_fault_plan,
)
from repro.metrics import MetricsRegistry, ShardMetrics, use_registry
from repro.runstate import RunCheckpoint, ShardArtifact

P = TypeVar("P")
R = TypeVar("R")

#: What a quarantined shard leaves in the results list (partial mode).
QUARANTINED = None


class EngineFallbackWarning(RuntimeWarning):
    """The pool was unavailable and the engine degraded to serial."""


class ShardError(RuntimeError):
    """A worker failed while processing one shard.

    Carries the shard's label in :attr:`shard_id` and the underlying
    exception in :attr:`error`.  The exception that triggered this
    raise is chained as ``__cause__`` — usually the same object as
    :attr:`error`, except on the pool-fallback path, where ``error``
    is the *original* pool-run exception and ``__cause__`` the serial
    re-run's failure.
    """

    def __init__(self, shard_id: str, error: BaseException):
        super().__init__(f"shard {shard_id!r} failed: {error!r}")
        self.shard_id = shard_id
        self.error = error


class ShardTimeout(RuntimeError):
    """A shard exceeded the per-shard timeout (pool execution only)."""

    #: Site label used in quarantine reports.
    site = "timeout"

    def __init__(self, shard_id: str, seconds: float):
        super().__init__(
            f"shard {shard_id!r} timed out after {seconds:g}s"
        )
        self.shard_id = shard_id
        self.seconds = seconds


@dataclass(frozen=True)
class RetryPolicy:
    """Per-shard retry budget, backoff shape, and timeout.

    ``max_retries`` counts *re*-executions: a shard runs at most
    ``max_retries + 1`` times.  Backoff is capped exponential —
    ``min(backoff_cap, backoff_base * 2**attempt)`` — with no jitter,
    because the engine's reproducibility contract extends to its
    failure handling.  ``timeout`` bounds one attempt's wall time on
    the pool path (a timed-out attempt counts as a failure and is
    retried); the serial path cannot interrupt a running shard, so
    timeouts only apply when ``workers > 1``.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    timeout: float | None = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    def backoff_seconds(self, attempt: int) -> float:
        """How long to wait before re-running attempt ``attempt + 1``."""
        if self.backoff_base <= 0.0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """The default policy, honouring ``REPRO_MAX_SHARD_RETRIES``
        and ``REPRO_SHARD_TIMEOUT``.

        A malformed value raises a :class:`ValueError` naming the
        variable and the offending text, never a bare parse traceback.
        """
        retries = _env_number(
            "REPRO_MAX_SHARD_RETRIES", int, "a non-negative integer"
        )
        timeout = _env_number(
            "REPRO_SHARD_TIMEOUT", float, "a positive number of seconds"
        )
        if retries is not None and retries < 0:
            raise ValueError(
                "REPRO_MAX_SHARD_RETRIES must be a non-negative integer, "
                f"got {os.environ['REPRO_MAX_SHARD_RETRIES']!r}"
            )
        if timeout is not None and timeout <= 0:
            raise ValueError(
                "REPRO_SHARD_TIMEOUT must be a positive number of "
                f"seconds, got {os.environ['REPRO_SHARD_TIMEOUT']!r}"
            )
        return cls(
            max_retries=2 if retries is None else retries,
            timeout=timeout,
        )


def _env_number(name: str, parse, expected: str):
    """Parse an optional numeric environment knob with an actionable
    error: the message names the variable and quotes the bad text."""
    text = os.environ.get(name)
    if not text:
        return None
    try:
        return parse(text)
    except ValueError:
        raise ValueError(
            f"{name} must be {expected}, got {text!r}"
        ) from None


def _make_executor(workers: int):
    """Pool factory, isolated so tests (and broken environments) can
    observe creation failures."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _warn_fallback(reason: str) -> None:
    warnings.warn(
        f"engine: {reason}; falling back to serial execution",
        EngineFallbackWarning,
        stacklevel=3,
    )


def _run_attempt(
    task: Callable[[P], R],
    payload: P,
    label: str,
    attempt: int,
    plan: FaultPlan | None,
) -> ShardArtifact:
    """Execute one attempt of one shard and measure it.

    Module-level and picklable — this is the callable the pool actually
    submits, so injected faults fire inside the worker exactly where
    real failures would.  The fault-plan context and the
    ``shard.start`` site wrap the measurement, so a ``slow`` fault
    stays out of ``wall_seconds``.  The task always runs under a fresh
    worker-local :class:`~repro.metrics.MetricsRegistry`, whether or
    not the caller asked for metrics, so every artifact (and the
    ledger entry that persists it) carries the shard's counters.

    ``records`` is the task's ``shard.records`` counter; a task that
    declares none counts a sized result by its length, anything else
    as 0.
    """
    with ExitStack() as stack:
        if plan is not None:
            stack.enter_context(
                use_fault_plan(plan, shard_id=label, attempt=attempt)
            )
            fault_point("shard.start")
        registry = MetricsRegistry()
        start = time.perf_counter()
        with use_registry(registry):
            result = task(payload)
        wall_seconds = time.perf_counter() - start
    records = registry.counters.get("shard.records")
    if records is None:
        try:
            records = len(result)  # type: ignore[arg-type]
        except TypeError:
            records = 0
    return ShardArtifact(
        result=result,
        records=records,
        wall_seconds=wall_seconds,
        registry=registry,
        worker_pid=os.getpid(),
    )


def run_shard(
    task: Callable[[P], R],
    payload: P,
    label: str,
    *,
    retry: RetryPolicy,
    plan: FaultPlan | None,
    metrics: MetricsRegistry | None = None,
    first_attempt: int = 0,
) -> ShardArtifact:
    """Run one shard in this process until an attempt succeeds.

    The in-process retry loop the serial path and the lease worker
    share: a failed attempt is re-run after
    :meth:`RetryPolicy.backoff_seconds` (counted as
    ``engine.shard_retries`` in *metrics*) until the budget is spent,
    and then the last exception propagates.  Fault plans see attempt
    ``first_attempt + local attempt``, so a worker that re-runs a
    reclaimed lease keeps its retry gating monotone.
    """
    attempt = 0
    while True:
        try:
            return _run_attempt(
                task, payload, label, first_attempt + attempt, plan
            )
        except Exception:
            if attempt >= retry.max_retries:
                raise
            _note_retry(metrics)
            time.sleep(retry.backoff_seconds(attempt))
            attempt += 1


def fold_shard(
    metrics: MetricsRegistry,
    label: str,
    artifact: ShardArtifact,
    *,
    resumed: bool = False,
) -> None:
    """Count one settled shard — executed in this run, resumed from a
    ledger, or journaled by a distributed worker — into *metrics*:
    merge its worker registry and append its
    :class:`~repro.metrics.ShardMetrics` row.  A resumed shard also
    counts into ``engine.shards.resumed`` and reports ``worker_pid`` 0,
    since no process ran it this time.  An artifact without a registry
    (a ledger an older build wrote without ``--metrics``) adds its row
    only.
    """
    if resumed:
        metrics.inc("engine.shards.resumed")
    if artifact.registry is not None:
        metrics.merge(artifact.registry)
    metrics.add_shard(ShardMetrics(
        shard_id=label,
        records=artifact.records,
        wall_seconds=artifact.wall_seconds,
        worker_pid=0 if resumed else artifact.worker_pid,
    ))


def _note_retry(metrics: MetricsRegistry | None) -> None:
    if metrics is not None:
        metrics.inc("engine.shard_retries")


def _settle_failure(
    label: str,
    error: BaseException,
    attempts: int,
    strict: bool,
    failures: ShardFailureReport | None,
    metrics: MetricsRegistry | None,
) -> None:
    """A shard exhausted its retry budget: abort or quarantine."""
    if strict:
        raise ShardError(label, error) from error
    failure = ShardFailure(
        shard_id=label,
        site=getattr(error, "site", "task"),
        attempts=attempts,
        error=repr(error),
    )
    if failures is not None:
        failures.add(failure)
    if metrics is not None:
        metrics.add_failure(failure)
        metrics.inc("engine.shards.quarantined")


def run_sharded(
    task: Callable[[P], R],
    payloads: Iterable[P],
    *,
    workers: int = 1,
    labels: Sequence[str] | None = None,
    metrics: MetricsRegistry | None = None,
    retry: RetryPolicy | None = None,
    strict: bool = True,
    failures: ShardFailureReport | None = None,
    fault_plan: FaultPlan | None = None,
    checkpoint: RunCheckpoint | None = None,
) -> list[R]:
    """Run *task* over every payload, returning results in input order.

    *task* must be a module-level callable and the payloads picklable
    when ``workers > 1`` (the serial path has no such constraint).
    *labels* name the shards in error messages; they default to
    ``shard-<index>``.

    *retry* governs per-shard re-execution (default:
    :meth:`RetryPolicy.from_env`).  With ``strict=True`` a shard that
    fails every attempt aborts the run in :class:`ShardError`; with
    ``strict=False`` it is quarantined — its slot in the returned list
    is :data:`QUARANTINED` (``None``), a
    :class:`~repro.faults.ShardFailure` is appended to *failures* (when
    given) and recorded into *metrics*, and the surviving shards
    complete normally.

    *fault_plan* injects deterministic faults into every attempt (the
    chaos suite's entry point); when ``None``, the
    ``REPRO_FAULT_PLAN`` environment knob is consulted, and when that
    is unset too, the fault sites are inert.

    Every shard attempt executes under a fresh worker-local registry
    (activated via :func:`repro.metrics.use_registry`, so the hot-path
    hooks record into it) and settles as a
    :class:`~repro.runstate.ShardArtifact`.  With a *metrics*
    registry, :func:`fold_shard` merges each artifact's registry into
    *metrics* in shard order after the whole dispatch succeeds, along
    with one :class:`~repro.metrics.ShardMetrics` per shard.  Folding
    last means a pool that breaks mid-run and falls back to serial
    counts each shard exactly once, and a failed attempt's partial
    metrics are never counted at all.

    A *checkpoint* (:class:`~repro.runstate.RunCheckpoint`) makes the
    dispatch crash-safe across process death: on start the ledger's
    fingerprint and shard plan are verified (mismatch refuses the
    run), every journaled shard whose artifact still hashes clean is
    loaded into its result slot instead of being dispatched (folded
    like a fresh shard and counted as ``engine.shards.resumed`` when
    *metrics* is given), and every freshly completed shard's artifact
    is durably recorded — atomic artifact write, then an fsync'd
    journal line — the moment it settles.  Recording is not an
    attempt: it happens once, after the shard's attempts succeeded,
    and a ledger write error propagates instead of re-running the
    shard.  Quarantined shards are never recorded; they re-run on
    resume.
    """
    payloads = list(payloads)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if labels is None:
        labels = [f"shard-{index}" for index in range(len(payloads))]
    else:
        labels = [str(label) for label in labels]
        if len(labels) != len(payloads):
            raise ValueError(
                f"{len(labels)} labels for {len(payloads)} payloads"
            )
    if retry is None:
        retry = RetryPolicy.from_env()
    if fault_plan is None:
        fault_plan = plan_from_env()

    resumed: dict[str, ShardArtifact] = {}
    record = None
    if checkpoint is not None:
        resumed = checkpoint.begin(labels)
        record = checkpoint.record

    pending = [
        index for index, label in enumerate(labels)
        if label not in resumed
    ]
    try:
        dispatched = iter(_dispatch(
            task,
            [payloads[index] for index in pending],
            [labels[index] for index in pending],
            workers, retry, fault_plan, strict, failures, metrics, record,
        ))
        results = []
        for label in labels:
            was_resumed = label in resumed
            artifact = resumed[label] if was_resumed else next(dispatched)
            if artifact is QUARANTINED:
                results.append(QUARANTINED)
                continue
            if metrics is not None:
                fold_shard(metrics, label, artifact, resumed=was_resumed)
            results.append(artifact.result)
        return results
    finally:
        if checkpoint is not None:
            checkpoint.close()


class _PoolBroke(Exception):
    """Internal signal: the pool died; fall back to serial.

    Carries the pool-level error plus every *original* shard exception
    observed before the break, so the serial re-run can re-raise the
    original failure (with its shard id) instead of only the pool
    error when the re-run fails too.
    """

    def __init__(
        self, error: BaseException, originals: dict[int, BaseException]
    ):
        super().__init__(repr(error))
        self.error = error
        self.originals = originals


def _dispatch(
    task: Callable[[P], R],
    payloads: Sequence[P],
    labels: Sequence[str],
    workers: int,
    retry: RetryPolicy,
    plan: FaultPlan | None,
    strict: bool,
    failures: ShardFailureReport | None,
    metrics: MetricsRegistry | None,
    record: Callable[[str, ShardArtifact], None] | None = None,
) -> list[ShardArtifact | None]:
    """The execution core: serial loop, pool fan-out, or fallback.
    One artifact per payload, :data:`QUARANTINED` for a quarantined
    shard."""
    effective = min(workers, len(payloads))
    if effective <= 1:
        return _run_serial(
            task, payloads, labels, retry, plan, strict, failures,
            metrics, record=record,
        )

    try:
        executor = _make_executor(effective)
    except Exception as error:  # no pool available in this environment
        _warn_fallback(f"could not start a {effective}-worker pool ({error!r})")
        return _run_serial(
            task, payloads, labels, retry, plan, strict, failures,
            metrics, record=record,
        )

    try:
        try:
            return _run_pool(
                executor, task, payloads, labels, retry, plan, strict,
                failures, metrics, record,
            )
        except _PoolBroke as broke:
            _warn_fallback(f"worker pool broke ({broke.error!r})")
            return _run_serial(
                task, payloads, labels, retry, plan, strict, failures,
                metrics, originals=broke.originals, record=record,
            )
    finally:
        executor.shutdown(wait=False, cancel_futures=True)


def _run_pool(
    executor,
    task: Callable[[P], R],
    payloads: Sequence[P],
    labels: Sequence[str],
    retry: RetryPolicy,
    plan: FaultPlan | None,
    strict: bool,
    failures: ShardFailureReport | None,
    metrics: MetricsRegistry | None,
    record: Callable[[str, ShardArtifact], None] | None = None,
) -> list[ShardArtifact | None]:
    """Pool fan-out with per-shard retries and timeouts.

    All shards are submitted up front (attempt 0); results are
    consumed in shard order, and a failed shard is re-submitted while
    the later shards keep running.  This resubmit loop stays in the
    parent, apart from :func:`run_shard`, because only the parent can
    abandon a timed-out attempt.  Any ``BrokenProcessPool`` converts
    to :class:`_PoolBroke` so the caller can degrade to serial.
    *record* (the checkpoint hook) fires as each shard's artifact is
    consumed, so a crash loses only the not-yet-consumed shards.
    """
    from concurrent.futures import TimeoutError as FutureTimeout
    from concurrent.futures.process import BrokenProcessPool

    count = len(payloads)
    attempts = [0] * count
    originals: dict[int, BaseException] = {}

    def submit(index: int):
        try:
            return executor.submit(
                _run_attempt, task, payloads[index], labels[index],
                attempts[index], plan,
            )
        except BrokenProcessPool as pool_error:
            raise _PoolBroke(pool_error, dict(originals)) from pool_error

    futures = [submit(index) for index in range(count)]
    results: list[ShardArtifact | None] = [QUARANTINED] * count
    for index in range(count):
        while True:
            try:
                results[index] = futures[index].result(timeout=retry.timeout)
                break
            except BrokenProcessPool as pool_error:
                raise _PoolBroke(pool_error, dict(originals)) from pool_error
            except FutureTimeout:
                futures[index].cancel()
                error: BaseException = ShardTimeout(
                    labels[index], retry.timeout or 0.0
                )
            except Exception as caught:
                error = caught
            originals.setdefault(index, error)
            if attempts[index] < retry.max_retries:
                _note_retry(metrics)
                time.sleep(retry.backoff_seconds(attempts[index]))
                attempts[index] += 1
                futures[index] = submit(index)
                continue
            _settle_failure(
                labels[index], error, attempts[index] + 1, strict,
                failures, metrics,
            )
            break
        if record is not None and results[index] is not QUARANTINED:
            record(labels[index], results[index])
    return results


def _run_serial(
    task: Callable[[P], R],
    payloads: Sequence[P],
    labels: Sequence[str],
    retry: RetryPolicy,
    plan: FaultPlan | None,
    strict: bool,
    failures: ShardFailureReport | None,
    metrics: MetricsRegistry | None,
    originals: dict[int, BaseException] | None = None,
    record: Callable[[str, ShardArtifact], None] | None = None,
) -> list[ShardArtifact | None]:
    """Serial loop over :func:`run_shard` with the pool's quarantine
    semantics.

    *originals* carries shard exceptions observed before a pool break:
    if the serial re-run of such a shard also fails, the raised
    :class:`ShardError` surfaces the *original* exception (with the
    shard id) rather than only the re-run's error — the pool failure
    stays in the ``__cause__`` chain for forensics.
    """
    results: list[ShardArtifact | None] = []
    for index, (label, payload) in enumerate(zip(labels, payloads)):
        try:
            artifact = run_shard(
                task, payload, label, retry=retry, plan=plan,
                metrics=metrics,
            )
        except Exception as error:
            original = (originals or {}).get(index)
            if strict and original is not None:
                raise ShardError(label, original) from error
            _settle_failure(
                label, error, retry.max_retries + 1, strict, failures,
                metrics,
            )
            results.append(QUARANTINED)
            continue
        if record is not None:
            record(label, artifact)
        results.append(artifact)
    return results
