"""Live ingestion service: window laws, tailing, HTTP, load generation.

The contract under test is the issue's acceptance criterion: however
records arrive — POSTed over HTTP, tailed from a growing file (torn
final line included), or batch-read — the analysis state is identical
to a batch ``analyze`` over the same bytes.  The window-store property
tests pin the monoid/eviction laws that make that equivalence
compositional.
"""

from __future__ import annotations

import asyncio
import io
import json
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.streaming import StreamingAnalysis
from repro.frame.batch import RecordBatch
from repro.logmodel.elff import read_log, write_log
from repro.service import (
    IngestService,
    LoadGenerator,
    LogTailer,
    WindowStore,
    build_payload,
)
from repro.service.window import DAY_SECONDS

from .helpers import (
    DEFAULT_EPOCH,
    allowed_row,
    censored_row,
    error_row,
    make_record,
    proxied_row,
)

# -- strategies -------------------------------------------------------------

_ROW_KINDS = (allowed_row, censored_row, error_row, proxied_row)


@st.composite
def record_lists(draw, max_days: int = 6, max_size: int = 40):
    """Records spread over up to *max_days* consecutive log-days."""
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_ROW_KINDS),
                st.integers(min_value=0, max_value=max_days - 1),
                st.integers(min_value=0, max_value=DAY_SECONDS - 1),
                st.sampled_from(
                    ["a.com", "b.org", "www.c.net", "sub.d.com"]
                ),
            ),
            max_size=max_size,
        )
    )
    return [
        kind(epoch=DEFAULT_EPOCH + day * DAY_SECONDS + second, cs_host=host)
        for kind, day, second, host in rows
    ]


def _records(rows):
    return [make_record(**row) for row in rows]


# -- WindowStore laws -------------------------------------------------------


class TestWindowStore:
    def test_rejects_zero_retention(self):
        with pytest.raises(ValueError):
            WindowStore(retention_days=0)

    def test_window_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WindowStore().window(0)

    @settings(deadline=None)
    @given(record_lists())
    def test_unbounded_store_equals_single_pass(self, rows):
        """With no retention the full window IS the batch analysis."""
        records = _records(rows)
        store = WindowStore()
        for record in records:
            store.add(record)
        assert store.window() == StreamingAnalysis().consume(records)

    @settings(deadline=None)
    @given(record_lists(), st.integers(min_value=1, max_value=4))
    def test_eviction_is_restriction(self, rows, retention):
        """A retained store's window equals a fresh batch analyze over
        exactly the records of the retained days (the issue's
        eviction-restriction law: evict a day = drop its accumulator,
        re-merge the rest)."""
        records = _records(rows)
        store = WindowStore(retention_days=retention)
        for record in records:
            store.add(record)
        retained = set(store.retained_days())
        restricted = [
            record for record in records
            if record.epoch // DAY_SECONDS in retained
        ]
        assert store.window() == StreamingAnalysis().consume(restricted)
        assert len(retained) <= retention
        assert store.evicted_records == len(records) - len(restricted)
        assert len(store) == len(records)

    @settings(deadline=None)
    @given(record_lists(), st.integers(min_value=1, max_value=4))
    def test_windowed_view_restricts_days(self, rows, window):
        """window(N) merges exactly the newest N retained days."""
        records = _records(rows)
        store = WindowStore()
        for record in records:
            store.add(record)
        newest = set(store.retained_days()[-window:])
        restricted = [
            record for record in records
            if record.epoch // DAY_SECONDS in newest
        ]
        assert store.window(window) == StreamingAnalysis().consume(restricted)

    @settings(deadline=None)
    @given(record_lists(), st.lists(st.integers(0, 40), max_size=4))
    def test_add_batch_equals_add(self, rows, cuts):
        """Per-record adds, one batch, and a random split into several
        batches end in the same days and the same eviction counters."""
        records = _records(rows)
        scalar = WindowStore(retention_days=3)
        for record in records:
            scalar.add(record)
        cuts = {min(cut, len(records)) for cut in cuts}
        for bounds in ([0, len(records)], sorted({0, len(records), *cuts})):
            batched = WindowStore(retention_days=3)
            for start, stop in zip(bounds, bounds[1:]):
                batch = RecordBatch.from_records(records[start:stop])
                batched.add_batch(batch)
            assert batched.days == scalar.days
            assert (batched.evicted_days, batched.evicted_records) == (
                scalar.evicted_days, scalar.evicted_records
            )

    def test_late_day_is_never_counted_as_an_evicted_day(self):
        """Days 3, 4, 0, 0 with retention 2: day 0 is older than the
        full window, so its records count as evicted but no day was
        retained and evicted — whatever the chunking."""
        records = [
            make_record(epoch=DEFAULT_EPOCH + day * DAY_SECONDS)
            for day in (3, 4, 0, 0)
        ]
        per_record = WindowStore(retention_days=2)
        for record in records:
            per_record.add(record)
        stores = [per_record]
        for size in (1, 2, 4):
            store = WindowStore(retention_days=2)
            store.consume_batches(
                RecordBatch.from_records(records).split(size)
            )
            stores.append(store)
        for store in stores:
            assert (store.evicted_days, store.evicted_records) == (0, 2)
            assert store.days == per_record.days

    @settings(deadline=None)
    @given(record_lists(), st.integers(min_value=0, max_value=40))
    def test_merge_equals_single_pass(self, rows, cut):
        """Splitting a stream across two stores and merging equals one
        store consuming the whole stream (no retention: full monoid)."""
        records = _records(rows)
        cut = min(cut, len(records))
        left, right = WindowStore(), WindowStore()
        for record in records[:cut]:
            left.add(record)
        for record in records[cut:]:
            right.add(record)
        whole = WindowStore()
        for record in records:
            whole.add(record)
        assert left.merge(right) == whole

    def test_fresh_preserves_retention(self):
        assert WindowStore(retention_days=5).fresh().retention_days == 5

    def test_late_record_older_than_window_is_evicted(self):
        store = WindowStore(retention_days=2)
        store.add(make_record(epoch=DEFAULT_EPOCH + 3 * DAY_SECONDS))
        store.add(make_record(epoch=DEFAULT_EPOCH + 4 * DAY_SECONDS))
        store.add(make_record(epoch=DEFAULT_EPOCH))  # long-closed day
        assert store.retained_days() == [
            (DEFAULT_EPOCH + 3 * DAY_SECONDS) // DAY_SECONDS,
            (DEFAULT_EPOCH + 4 * DAY_SECONDS) // DAY_SECONDS,
        ]
        assert store.evicted_records == 1


# -- tailing a growing file -------------------------------------------------


class TestLogTailer:
    def _write_then_cut(self, path, records, keep_bytes):
        write_log(records, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:keep_bytes])
        return raw

    def test_tail_across_growth_equals_batch(self, tmp_path):
        """Records folded across polls — including a torn final line
        completed later — equal one lenient batch read of the final
        bytes (the issue's acceptance e2e)."""
        log = tmp_path / "grow.log"
        records = [
            make_record(epoch=DEFAULT_EPOCH + i * 3600, cs_host=f"h{i}.com")
            for i in range(8)
        ]
        write_log(records[:5], log)
        raw = log.read_bytes()
        # tear the file mid-way through the 5th record's line
        log.write_bytes(raw[:-20])

        tailer = LogTailer(log)
        acc = StreamingAnalysis()
        acc.consume(tailer.poll())
        assert acc.total == 4
        assert tailer.stats.incomplete_tail == 1
        assert tailer.stats.skipped == 0

        # the writer finishes the torn line and appends more records
        with open(log, "ab") as handle:
            handle.write(raw[-20:])
        buffer = io.StringIO()
        write_log(records[5:], buffer)
        body = "".join(
            line + "\r\n"
            for line in buffer.getvalue().splitlines()
            if not line.startswith("#")
        )
        with open(log, "a", newline="") as handle:
            handle.write(body)
        acc.consume(tailer.poll())

        batch = StreamingAnalysis()
        batch.consume(read_log(log, lenient=True))
        assert acc == batch
        assert acc.total == 8

    def test_unchanged_file_is_not_reread(self, tmp_path):
        log = tmp_path / "static.log"
        write_log([make_record()], log)
        tailer = LogTailer(log)
        assert len(tailer.poll()) == 1
        assert tailer.poll() == []
        assert tailer.polls == 1

    def test_missing_file_polls_empty(self, tmp_path):
        tailer = LogTailer(tmp_path / "not-yet.log")
        assert tailer.poll() == []
        assert tailer.polls == 0

    def test_rotation_resets_offset(self, tmp_path):
        log = tmp_path / "rotate.log"
        write_log([make_record(cs_host=f"h{i}.com") for i in range(5)], log)
        tailer = LogTailer(log)
        assert len(tailer.poll()) == 5
        # rotation: the file is replaced by a shorter successor
        write_log([make_record(cs_host="new.com")], log)
        records = tailer.poll()
        assert [r.cs_host for r in records] == ["new.com"]
        assert tailer.rotations == 1

    def test_gzip_tail(self, tmp_path):
        log = tmp_path / "tail.log.gz"
        records = [make_record(cs_host=f"h{i}.com") for i in range(6)]
        write_log(records, log)
        tailer = LogTailer(log)
        got = tailer.poll()
        assert [r.cs_host for r in got] == [r.cs_host for r in records]


# -- the HTTP service -------------------------------------------------------


def _get(url: str):
    with urllib.request.urlopen(url) as response:
        return response.status, json.load(response)


def _post(url: str, body: bytes):
    request = urllib.request.Request(url, data=body, method="POST")
    try:
        with urllib.request.urlopen(request) as response:
            return (
                response.status,
                dict(response.headers),
                json.load(response),
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.load(error)


async def _with_service(run, **kwargs):
    service = IngestService(**kwargs)
    await service.start()
    try:
        return await run(service)
    finally:
        await service.stop()


class TestIngestService:
    def test_ingest_equals_batch_analyze(self):
        """POSTed payloads fold to exactly the batch analysis of the
        same bytes."""
        payloads = [build_payload(i, 8, 3) for i in range(6)]

        async def run(service):
            url = f"http://{service.host}:{service.port}"
            for payload in payloads:
                status, _, body = await asyncio.to_thread(
                    _post, url + "/ingest", payload.encode()
                )
                assert status == 202 and body["accepted"]
            await service.drain()
            return await asyncio.to_thread(_get, url + "/analysis")

        status, body = asyncio.run(_with_service(run))
        batch = StreamingAnalysis()
        for payload in payloads:
            batch.consume(read_log(io.StringIO(payload), lenient=True))
        assert status == 200
        assert body["breakdown"]["total"] == batch.total
        assert body["breakdown"]["censored"] == batch.censored
        assert body["top_censored"] == [
            list(item) for item in batch.top_censored(10)
        ]

    def test_windowed_analysis_param(self):
        async def run(service):
            url = f"http://{service.host}:{service.port}"
            await asyncio.to_thread(
                _post, url + "/ingest", build_payload(0, 30, 3).encode()
            )
            await service.drain()
            status, body = await asyncio.to_thread(
                _get, url + "/analysis?window=1"
            )
            assert status == 200
            newest = service.store.retained_days()[-1]
            assert body["breakdown"]["total"] == (
                service.store.days[newest].total
            )
            empty_status, _, _ = await asyncio.to_thread(
                _post, url + "/ingest", b""
            )
            assert empty_status == 202
            status, _, _ = await asyncio.to_thread(
                _post, url + "/ingest", b"\xff\xfe garbage \xff"
            )
            assert status == 400

        asyncio.run(_with_service(run))

    def test_analysis_rejects_bad_window(self):
        async def run(service):
            url = f"http://{service.host}:{service.port}"
            for query in ("window=0", "window=-2", "window=x"):
                status, _ = await asyncio.to_thread(
                    _get_allowing_errors, f"{url}/analysis?{query}"
                )
                assert status == 400

        asyncio.run(_with_service(run))

    def test_backpressure_answers_429_with_retry_after(self):
        """A full ingest queue throttles instead of buffering."""

        async def run(service):
            url = f"http://{service.host}:{service.port}"
            # stall the fold loop so the queue can only fill
            for task in service._tasks:
                task.cancel()
            await asyncio.gather(*service._tasks, return_exceptions=True)
            service._tasks.clear()
            payload = build_payload(0, 2, 1).encode()
            statuses = []
            for _ in range(4):
                status, headers, _ = await asyncio.to_thread(
                    _post, url + "/ingest", payload
                )
                statuses.append((status, headers.get("Retry-After")))
            # drain manually so stop() does not wait on the queue
            while not service.queue.empty():
                service.queue.get_nowait()
                service.queue.task_done()
            return statuses

        statuses = asyncio.run(_with_service(run, queue_size=2))
        assert statuses[:2] == [(202, None), (202, None)]
        assert statuses[2][0] == 429 and statuses[3][0] == 429
        assert float(statuses[2][1]) > 0

    def test_healthz_and_stats(self):
        async def run(service):
            url = f"http://{service.host}:{service.port}"
            await asyncio.to_thread(
                _post, url + "/ingest", build_payload(0, 5, 2).encode()
            )
            await service.drain()
            _, health = await asyncio.to_thread(_get, url + "/healthz")
            first = await asyncio.to_thread(_get, url + "/stats")
            second = await asyncio.to_thread(_get, url + "/stats")
            return health, first[1], second[1]

        health, first, second = asyncio.run(_with_service(run))
        assert health["status"] == "ok"
        assert health["records"] == 5
        assert first["totals"]["service.fold.records"] == 5
        assert first["window"]["counters"]["service.fold.records"] == 5
        # the second scrape's window starts at the first scrape's mark:
        # nothing was ingested in between, so the delta is empty while
        # the totals persist
        assert second["window"]["counters"] == {}
        assert second["totals"]["service.fold.records"] == 5
        assert second["window"]["seconds"] > 0

    def test_unknown_paths_and_methods(self):
        async def run(service):
            url = f"http://{service.host}:{service.port}"
            status, _ = await asyncio.to_thread(
                _get_allowing_errors, url + "/nope"
            )
            assert status == 404
            status, _, _ = await asyncio.to_thread(
                _post, url + "/healthz", b""
            )
            assert status == 405

        asyncio.run(_with_service(run))

    def test_tail_ingest_matches_batch(self, tmp_path):
        """The tail path through the running service equals batch
        analyze of the final file."""
        log = tmp_path / "grow.log"
        records = [
            make_record(epoch=DEFAULT_EPOCH + i, cs_host=f"h{i}.com")
            for i in range(10)
        ]
        write_log(records[:6], log)
        raw = log.read_bytes()
        log.write_bytes(raw[:-15])  # torn final line

        async def run():
            service = IngestService(
                tail_paths=(log,), poll_interval=0.02
            )
            await service.start()
            try:
                await asyncio.sleep(0.1)
                assert service.store.window().total == 5
                with open(log, "ab") as handle:
                    handle.write(raw[-15:])
                buffer = io.StringIO()
                write_log(records[6:], buffer)
                tail_rows = "".join(
                    line + "\r\n"
                    for line in buffer.getvalue().splitlines()
                    if not line.startswith("#")
                )
                with open(log, "a", newline="") as handle:
                    handle.write(tail_rows)
                await asyncio.sleep(0.1)
            finally:
                await service.stop()
            return service.store.window()

        live = asyncio.run(run())
        batch = StreamingAnalysis()
        batch.consume(read_log(log, lenient=True))
        assert live == batch
        assert live.total == 10

    def test_stop_leaves_no_tasks(self):
        async def run():
            service = IngestService(tail_paths=())
            await service.start()
            await service.stop()
            return [
                task for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]

        assert asyncio.run(run()) == []


def _get_allowing_errors(url: str):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


# -- the load generator -----------------------------------------------------


class TestLoadGenerator:
    def test_build_payload_is_deterministic(self):
        assert build_payload(3, 10, 2) == build_payload(3, 10, 2)
        assert build_payload(3, 10, 2) != build_payload(4, 10, 2)
        records = list(
            read_log(io.StringIO(build_payload(0, 25, 3)), lenient=True)
        )
        assert len(records) == 25
        analysis = StreamingAnalysis().consume(records)
        assert analysis.censored > 0 and analysis.allowed > 0

    def test_loadgen_against_service(self):
        """A fixed-rate run is fully accepted, the queue stays bounded,
        and the server's state equals batch analyze of the payloads."""

        async def run(service):
            generator = LoadGenerator(
                service.host, service.port,
                rate=400.0, total=30, lines_per_request=5,
                workers=3, quiet=True,
            )
            summary = await generator.run()
            await service.drain()
            return summary

        service = IngestService(queue_size=16)

        async def driver():
            await service.start()
            try:
                return await run(service)
            finally:
                await service.stop()

        summary = asyncio.run(driver())
        assert summary["accepted"] == 30
        assert summary["errors"] == 0
        assert summary["lines"] == 150
        assert summary["server"]["records"] == 150
        # bounded backpressure: depth never exceeded the queue size
        assert service.max_queue_depth <= 16
        batch = StreamingAnalysis()
        for i in range(30):
            batch.consume(
                read_log(io.StringIO(build_payload(i, 5, 3)), lenient=True)
            )
        assert service.store.window() == batch

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LoadGenerator("h", 1, rate=0, total=1)
        with pytest.raises(ValueError):
            LoadGenerator("h", 1, rate=1, total=0)


class TestHealthzRegime:
    """/healthz surfaces the service's regime label (classification is
    regime-neutral, so the label is provenance, not behaviour)."""

    @staticmethod
    async def _health(service):
        url = f"http://{service.host}:{service.port}"
        _, health = await asyncio.to_thread(_get, url + "/healthz")
        return health

    def test_default_regime_is_syria(self):
        health = asyncio.run(_with_service(self._health))
        assert health["regime"] == "syria"

    def test_regime_label_is_configurable(self):
        health = asyncio.run(
            _with_service(self._health, regime="pakistan")
        )
        assert health["regime"] == "pakistan"


class TestRetryAfterBackoff:
    """429 handling: the server's Retry-After is honoured with capped
    exponential growth across consecutive throttles of one payload,
    and every deferred re-send is counted apart from the throttle
    responses that caused it."""

    def test_backoff_delay_is_capped_exponential(self):
        from repro.service import backoff_delay

        assert backoff_delay(1.0, 0, 5.0) == 1.0
        assert backoff_delay(1.0, 1, 5.0) == 2.0
        assert backoff_delay(1.0, 2, 5.0) == 4.0
        assert backoff_delay(1.0, 3, 5.0) == 5.0  # capped
        assert backoff_delay(10.0, 0, 5.0) == 5.0  # capped immediately
        assert backoff_delay(-2.0, 1, 5.0) == 0.0  # hostile header

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            LoadGenerator("h", 1, rate=1, total=1, retry_after_cap=0)

    def test_throttled_run_counts_deferred_sends(self):
        """Against a server that 429s every payload twice before
        accepting it, the deferred count is exact and every record
        still lands."""
        DENIALS = 2
        TOTAL = 3

        async def drive():
            seen: dict[bytes, int] = {}

            async def handle(reader, writer):
                try:
                    while True:
                        request = await reader.readline()
                        if not request:
                            break
                        headers = {}
                        while True:
                            line = (await reader.readline()).decode().strip()
                            if not line:
                                break
                            name, _, value = line.partition(":")
                            headers[name.strip().lower()] = value.strip()
                        length = int(headers.get("content-length", "0"))
                        body = await reader.readexactly(length)
                        count = seen.get(body, 0)
                        seen[body] = count + 1
                        if request.startswith(b"POST") and count < DENIALS:
                            head = (
                                "HTTP/1.1 429 Too Many Requests\r\n"
                                "Retry-After: 0.005\r\n"
                                "Content-Length: 2\r\n\r\n"
                            )
                            writer.write(head.encode() + b"{}")
                        else:
                            payload = b'{"queue_depth": 0}'
                            head = (
                                "HTTP/1.1 202 Accepted\r\n"
                                f"Content-Length: {len(payload)}\r\n\r\n"
                            )
                            writer.write(head.encode() + payload)
                        await writer.drain()
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    pass
                finally:
                    writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                generator = LoadGenerator(
                    "127.0.0.1", port, rate=500.0, total=TOTAL,
                    lines_per_request=2, workers=1, quiet=True,
                    retry_after_cap=0.05,
                )
                return await generator.run()
            finally:
                server.close()
                await server.wait_closed()

        summary = asyncio.run(drive())
        assert summary["accepted"] == TOTAL
        assert summary["throttled"] == TOTAL * DENIALS
        assert summary["deferred"] == TOTAL * DENIALS
        assert summary["errors"] == 0
        assert summary["requests"] == TOTAL * (DENIALS + 1)

    def test_summary_reports_zero_deferred_without_throttling(self):
        """The deferred counter exists (as 0) even on a clean run, so
        dashboards can rely on the key."""

        async def drive():
            service = IngestService(queue_size=16)
            await service.start()
            try:
                generator = LoadGenerator(
                    service.host, service.port,
                    rate=400.0, total=5, lines_per_request=2,
                    workers=2, quiet=True,
                )
                summary = await generator.run()
                await service.drain()
                return summary
            finally:
                await service.stop()

        summary = asyncio.run(drive())
        assert summary["accepted"] == 5
        assert summary["deferred"] == 0
        assert summary["throttled"] == 0
