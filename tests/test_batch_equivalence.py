"""Differential suite: column-batch execution equals the per-record
references at every batch size.

The pipeline runs only in column batches (``repro.frame.RecordBatch``
+ ``process_batch`` + the chunked ELFF reader), and it is only
trustworthy because it is provably identical to the smallest
record-at-a-time references the repository keeps.  This module pins
that claim from four directions:

* **analysis state** — ``StreamingAnalysis`` folded from batches equals
  the per-record ``add`` fold, including Counter *insertion order* (the
  ``most_common`` tie-break that decides CLI output bytes) and native
  key types;
* **ELFF bytes** — the chunked reader recovers exactly ``read_log``'s
  record stream (quoting, escapes, malformed rows, corrupted streams
  and all), batches re-serialize to the original bytes, and the
  column-wise encoder writes what ``csv.writer`` writes;
* **engine output** — ``simulate``/``analyze`` give the same bytes and
  state at every batch size and worker count as at batch size 1 (one
  record per batch), and the simulated bytes are pinned to fleet
  stream v2 by digest;
* **CLI** — stdout and the ``--metrics`` JSON (modulo timers) do not
  depend on the batch size.

Batch sizes deliberately cover the degenerate (1), the awkward prime
(7), the typical (64) and the larger-than-stream (10_000) cases.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.streaming import StreamingAnalysis
from repro.cli import main
from repro.engine import analyze_logs, simulate_to_logs
from repro.frame.batch import RecordBatch
from repro.logmodel.elff import (
    LogFormatError,
    ReadStats,
    elff_body,
    elff_header,
    read_log,
    read_log_batches,
    write_log,
)
from repro.pipeline import (
    AnonymizeStage,
    CountSink,
    ElffSink,
    FrameSink,
    Pipeline,
    RecordListSink,
    StreamingAnalysisSink,
    TeeSink,
)
from repro.timeline import USER_SLICE_DAYS, day_epoch, day_span
from repro.workload.config import small_config
from tests.helpers import make_record

BATCH_SIZES = (1, 7, 64, 10_000)
WORKER_COUNTS = (1, 2, 4)

#: Same tiny scenario as test_engine/test_chaos_engine, so the cached
#: per-process scenario context is shared across modules.
TINY = small_config(6_000, seed=5)

#: SHA-256 of TINY's ``proxies.log`` under fleet stream v2 and
#: workload stream v2.  Every execution mode must write exactly these
#: bytes; a change to the fleet's or the generator's random-stream
#: layout must bump ``FLEET_STREAM`` or ``WORKLOAD_STREAM`` and re-pin.
TINY_V2_DIGEST = (
    "27451c97249aab7468d5000739d924fcbca2fccd5bc970bfdd8678f3d14f5344"
)

#: User agents chosen to exercise every ELFF quoting shape: unquoted,
#: comma-bearing (csv wraps the field in quotes), embedded quote
#: characters (doubled on the wire), and an embedded newline (the
#: quoted field spans physical lines).
_AGENTS = (
    "-",
    "curl/7.19.7",
    "Mozilla/5.0 (Windows NT 6.1, WOW64) AppleWebKit/534.50",
    'He said "hi", twice',
    "multi\nline agent",
)

log_records = st.builds(
    make_record,
    cs_host=st.sampled_from(
        ["www.a.com", "b.com", "SUB.C.org", "d.net.", "e.com.sy"]
    ),
    s_ip=st.sampled_from(["82.137.200.42", "82.137.200.49"]),
    sc_filter_result=st.sampled_from(["OBSERVED", "DENIED", "PROXIED"]),
    x_exception_id=st.sampled_from(
        ["-", "policy_denied", "policy_redirect", "tcp_error"]
    ),
    cs_user_agent=st.sampled_from(_AGENTS),
    epoch=st.integers(
        day_epoch("2011-07-22"), day_epoch("2011-08-05") + 86_399
    ),
)
record_streams = st.lists(log_records, max_size=60)
batch_sizes = st.sampled_from(BATCH_SIZES)

#: Cells csv has to think about: its special characters, the empty
#: cell, leading/trailing spaces, and non-ASCII text.
_cells = st.one_of(
    st.sampled_from(["", "-", " ", " pad ", '""', ",", "\r\n", "é"]),
    st.text(
        alphabet=st.sampled_from(
            [",", '"', "\r", "\n", " ", "\t", "\x00", "a", "-", "é",
             "ب", "😀"]
        ),
        max_size=6,
    ),
)
adversarial_records = st.builds(
    make_record,
    cs_host=_cells,
    cs_uri_path=_cells,
    cs_uri_query=_cells,
    cs_user_agent=_cells,
    cs_referer=_cells,
    cs_categories=_cells,
    x_exception_id=_cells,
    s_supplier_name=_cells,
    time_taken=st.integers(-1, 10**12),
    epoch=st.integers(
        day_epoch("2011-07-22"), day_epoch("2011-08-05") + 86_399
    ),
)

#: One part spool for the module's ELFF sinks, which hypothesis
#: examples build where function-scoped fixtures cannot reach: sinks
#: create it with their first part, and ``_remove_spool`` deletes it
#: after the module's tests.
SPOOL = Path(tempfile.gettempdir()) / f"repro-spool-{os.getpid()}-batch"


@pytest.fixture(scope="module", autouse=True)
def _remove_spool():
    yield
    shutil.rmtree(SPOOL, ignore_errors=True)


# -- analysis state ----------------------------------------------------------


class TestAnalysisEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(records=record_streams, batch_size=batch_sizes)
    def test_fold_state_identical(self, records, batch_size):
        scalar = StreamingAnalysis().consume(records)
        batched = StreamingAnalysis().consume_batches(
            RecordBatch.from_records(records).split(batch_size)
        )
        assert batched == scalar

    @settings(max_examples=30, deadline=None)
    @given(records=record_streams, batch_size=batch_sizes)
    def test_counter_insertion_order_and_key_types(
        self, records, batch_size
    ):
        """``most_common`` breaks ties by insertion order, so batched
        counters must insert new keys exactly where the scalar fold
        would — and carry native Python keys, never numpy scalars."""
        scalar = StreamingAnalysis().consume(records)
        batched = StreamingAnalysis().consume_batches(
            RecordBatch.from_records(records).split(batch_size)
        )
        for attr in (
            "exceptions",
            "allowed_domains",
            "censored_domains",
            "day_volumes",
        ):
            ours, reference = getattr(batched, attr), getattr(scalar, attr)
            assert list(ours) == list(reference)
            assert {type(key) for key in ours} == {
                type(key) for key in reference
            }
            assert all(type(key) in (str, int) for key in ours)
        assert batched.top_allowed(5) == scalar.top_allowed(5)
        assert batched.top_censored(5) == scalar.top_censored(5)

    @settings(max_examples=20, deadline=None)
    @given(records=record_streams, batch_size=batch_sizes)
    def test_pipeline_run_equals_batch_size_one(self, records, batch_size):
        """A full stage chain into every sink type: every batch size
        lands in the state of one record per batch."""
        pipeline = Pipeline(
            records, (AnonymizeStage([day_span(d) for d in USER_SLICE_DAYS]),)
        )

        def tee() -> TeeSink:
            return TeeSink([
                CountSink(), RecordListSink(), StreamingAnalysisSink(),
                FrameSink(), ElffSink(SPOOL),
            ])

        assert pipeline.run(tee(), batch_size) == pipeline.run(tee(), 1)


# -- ELFF bytes --------------------------------------------------------------


class TestElffEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(records=record_streams, batch_size=batch_sizes)
    def test_reread_and_reserialize_round_trip(self, records, batch_size):
        buffer = io.StringIO()
        write_log(records, buffer)
        text = buffer.getvalue()

        scalar_stats = ReadStats()
        scalar = list(
            read_log(io.StringIO(text), lenient=True, stats=scalar_stats)
        )
        batch_stats = ReadStats()
        batches = list(read_log_batches(
            io.StringIO(text), batch_size, lenient=True, stats=batch_stats
        ))

        recovered = [
            record for batch in batches for record in batch.iter_records()
        ]
        assert recovered == scalar == records
        assert all(len(batch) <= batch_size for batch in batches)
        assert (batch_stats.records, batch_stats.skipped) == (
            scalar_stats.records, scalar_stats.skipped
        )

        out = io.StringIO()
        out.write(elff_header())
        writer = csv.writer(out)
        for batch in batches:
            writer.writerows(batch.to_rows())
        assert out.getvalue() == text

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(adversarial_records, max_size=40),
        cuts=st.lists(st.integers(0, 40), max_size=4),
    )
    def test_column_encoder_matches_csv_writer(self, records, cuts):
        """``elff_body`` over any split of a batch writes what
        ``csv.writer`` writes for the batch's rows."""
        batch = RecordBatch.from_records(records)
        out = io.StringIO()
        csv.writer(out).writerows(batch.to_rows())
        bounds = [0, *sorted(min(cut, len(batch)) for cut in cuts),
                  len(batch)]
        encoded = "".join(
            elff_body(batch.slice(start, stop))
            for start, stop in zip(bounds, bounds[1:])
        )
        assert encoded == out.getvalue()

    # One line per quoting shape the chunked reader's fast parser
    # dispatches on; scalar csv semantics are the reference for all.
    _SPECIAL_LINES = pytest.mark.parametrize("middle", [
        '2011-07-23,10:00:00,5,u,-,-,-,OBSERVED,x,-,200,HIT,GET,t,http,'
        'h.com,80,/,,,"UA, with commas",1,2,-,-,82.137.200.42',
        '2011-07-23,10:00:00,5,u,-,-,-,OBSERVED,x,-,200,HIT,GET,t,http,'
        'h.com,80,/,,,"say ""hi"" again",1,2,-,-,82.137.200.42',
        '2011-07-23,10:00:00,5,u,-,-,-,OBSERVED,x,-,200,HIT,GET,t,http,'
        'h.com,80,"/a,b",,,"two, quoted",1,2,-,-,82.137.200.42',
        '2011-07-23,10:00:00,5,u,-,-,-,OBSERVED,x,-,200,HIT,GET,t,http,'
        'h.com,80,/,,,"line one\nline two",1,2,-,-,82.137.200.42',
        '2011-07-23,10:00:00,5,u,-,-,-,OBSERVED,x,-,200,HIT,GET,t,http,'
        'h.com,80,/,,,ab"cd,1,2,-,-,82.137.200.42',
        '2011-07-23,10:00:00,5,u,-,-,-,OBSERVED,x,-,200,HIT,GET,t,http,'
        'h.com,80,/,,,"tail junk" x,1,2,-,-,82.137.200.42',
        '2011-07-23,10:00:00,5,u,-,-,-,OBSERVED,x,-,200,HIT,GET,t,http,'
        'h.com,80,/,,,nul\x00byte,1,2,-,-,82.137.200.42',
        '"2011-07-23",10:00:00,5,u,-,-,-,OBSERVED,x,-,200,HIT,GET,t,http,'
        'h.com,80,/,,,leading,1,2,-,-,82.137.200.42',
    ])

    @_SPECIAL_LINES
    def test_quoting_shapes_match_scalar(self, middle):
        plain = make_record().to_row()
        text = (
            elff_header()
            + ",".join(plain) + "\r\n"
            + middle + "\r\n"
            + ",".join(plain) + "\r\n"
        )
        for batch_size in BATCH_SIZES:
            scalar_stats, batch_stats = ReadStats(), ReadStats()
            scalar = list(
                read_log(io.StringIO(text), lenient=True, stats=scalar_stats)
            )
            batched = [
                record
                for batch in read_log_batches(
                    io.StringIO(text), batch_size,
                    lenient=True, stats=batch_stats,
                )
                for record in batch.iter_records()
            ]
            assert batched == scalar
            assert (
                batch_stats.records,
                batch_stats.skipped,
                batch_stats.first_error,
            ) == (
                scalar_stats.records,
                scalar_stats.skipped,
                scalar_stats.first_error,
            )

    def test_malformed_rows_lenient_and_strict(self):
        good = ",".join(make_record().to_row())
        text = elff_header() + "\r\n".join([
            good,
            "too,short",
            good.replace("OBSERVED", "OBSERVED") + ",extra",
            good.replace(",80,", ",eighty,"),
            good.replace("10:00:00", "25:99:00", 1),
            good.replace("2011-08-03", "2011-13-03", 1),
            good,
        ]) + "\r\n"

        scalar_stats, batch_stats = ReadStats(), ReadStats()
        scalar = list(
            read_log(io.StringIO(text), lenient=True, stats=scalar_stats)
        )
        batched = [
            record
            for batch in read_log_batches(
                io.StringIO(text), 3, lenient=True, stats=batch_stats
            )
            for record in batch.iter_records()
        ]
        assert batched == scalar
        assert batch_stats.skipped == scalar_stats.skipped > 0
        assert batch_stats.first_error == scalar_stats.first_error

        with pytest.raises(LogFormatError) as scalar_error:
            list(read_log(io.StringIO(text)))
        with pytest.raises(LogFormatError) as batch_error:
            list(read_log_batches(io.StringIO(text), 3))
        assert str(batch_error.value) == str(scalar_error.value)

    def test_interior_cr_splits_rows_identically(self, tmp_path):
        """A bare CR inside an unquoted field acts as a row terminator
        at the IO/csv layer, splitting the line into two short rows.
        Both readers must skip the same two malformed halves — this is
        malformed-row territory, not stream corruption."""
        good = ",".join(make_record().to_row())
        split = good.replace(",GET,", ",G\rET,")
        path = tmp_path / "interior-cr.log"
        path.write_text(
            elff_header() + good + "\r\n" + good + "\r\n" + split + "\r\n",
            newline="",
        )

        scalar_stats, batch_stats = ReadStats(), ReadStats()
        scalar = list(read_log(path, lenient=True, stats=scalar_stats))
        batched = [
            record
            for batch in read_log_batches(
                path, 64, lenient=True, stats=batch_stats
            )
            for record in batch.iter_records()
        ]
        assert batched == scalar and len(scalar) == 2
        assert batch_stats.skipped == scalar_stats.skipped == 2
        assert batch_stats.corrupted == scalar_stats.corrupted == 0
        assert batch_stats.first_error == scalar_stats.first_error

        with pytest.raises(LogFormatError) as batch_err:
            list(read_log_batches(path, 64))
        with pytest.raises(LogFormatError) as scalar_err:
            list(read_log(path))
        assert str(batch_err.value) == str(scalar_err.value)

    def test_corrupted_stream_path_mode(self, tmp_path):
        """A gzip member cut off mid-stream dies at the decompression
        layer: both readers keep the decodable prefix, count the file
        into ``ReadStats.corrupted``, and report the same error."""
        records = [
            make_record(cs_host=f"host-{index}.example.com")
            for index in range(300)
        ]
        whole = tmp_path / "whole.log.gz"
        write_log(records, whole)
        path = tmp_path / "truncated.log.gz"
        payload = whole.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])

        scalar_stats, batch_stats = ReadStats(), ReadStats()
        scalar = list(read_log(path, lenient=True, stats=scalar_stats))
        batched = [
            record
            for batch in read_log_batches(
                path, 64, lenient=True, stats=batch_stats
            )
            for record in batch.iter_records()
        ]
        assert batched == scalar and 0 < len(scalar) < len(records)
        assert batch_stats.records == scalar_stats.records
        assert batch_stats.corrupted == scalar_stats.corrupted == 1
        assert batch_stats.first_error == scalar_stats.first_error

        with pytest.raises(LogFormatError, match="corrupted log stream"):
            list(read_log_batches(path, 64))


# -- engine output -----------------------------------------------------------


@pytest.fixture(scope="module")
def reference_log_bytes(tmp_path_factory):
    """TINY simulated serially at batch size 1: one request per fleet
    call, the reference every other batch size must reproduce."""
    out = tmp_path_factory.mktemp("reference-logs")
    simulate_to_logs(TINY, out, workers=1, batch_size=1)
    return (out / "proxies.log").read_bytes()


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("day-logs")
    simulate_to_logs(TINY, out, per_day=True, workers=2)
    return out


class TestEngineEquivalence:
    def test_scalar_bytes_are_the_pinned_v2_stream(self, reference_log_bytes):
        digest = hashlib.sha256(reference_log_bytes).hexdigest()
        assert digest == TINY_V2_DIGEST

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_simulate_log_bytes_every_batch_size_and_worker_count(
        self, tmp_path, reference_log_bytes, batch_size, workers
    ):
        simulate_to_logs(
            TINY, tmp_path, workers=workers, batch_size=batch_size
        )
        assert (tmp_path / "proxies.log").read_bytes() == reference_log_bytes

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_simulate_log_bytes_per_batch_size(
        self, tmp_path, reference_log_bytes, batch_size
    ):
        simulate_to_logs(TINY, tmp_path, workers=2, batch_size=batch_size)
        assert (tmp_path / "proxies.log").read_bytes() == reference_log_bytes

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_simulate_log_bytes_per_worker_count(
        self, tmp_path, reference_log_bytes, workers
    ):
        simulate_to_logs(TINY, tmp_path, workers=workers, batch_size=64)
        assert (tmp_path / "proxies.log").read_bytes() == reference_log_bytes

    def test_analyze_logs_state_and_counter_order(self, log_dir):
        paths = sorted(log_dir.glob("*.log"))
        scalar, scalar_stats = analyze_logs(paths, workers=1, batch_size=1)
        for batch_size, workers in (
            (1, 2), (7, 1), (64, 4), (10_000, 2)
        ):
            batched, batch_stats = analyze_logs(
                paths, workers=workers, batch_size=batch_size
            )
            assert batched == scalar
            assert list(batched.allowed_domains) == list(
                scalar.allowed_domains
            )
            assert list(batched.censored_domains) == list(
                scalar.censored_domains
            )
            assert (
                batch_stats.records,
                batch_stats.skipped,
                batch_stats.corrupted,
            ) == (
                scalar_stats.records,
                scalar_stats.skipped,
                scalar_stats.corrupted,
            )


# -- CLI ---------------------------------------------------------------------


def _strip_metrics_line(output: str) -> str:
    return "\n".join(
        line for line in output.splitlines()
        if not line.startswith("metrics report ->")
    )


class TestCliEquivalence:
    def _run(self, capsys, argv: list[str]) -> str:
        assert main(argv) == 0
        return _strip_metrics_line(capsys.readouterr().out)

    def test_streaming_stdout_and_metrics_modulo_timers(
        self, log_dir, tmp_path, capsys
    ):
        logs = [str(path) for path in sorted(log_dir.glob("*.log"))]
        scalar_out = self._run(capsys, [
            "analyze", "--streaming", "--workers", "2",
            "--metrics", str(tmp_path / "scalar.json"), *logs,
        ])
        batched_out = self._run(capsys, [
            "analyze", "--streaming", "--workers", "2",
            "--batch-size", "64",
            "--metrics", str(tmp_path / "batched.json"), *logs,
        ])
        assert batched_out == scalar_out

        scalar = json.loads((tmp_path / "scalar.json").read_text())
        batched = json.loads((tmp_path / "batched.json").read_text())
        assert batched["counters"] == scalar["counters"]
        assert batched["gauges"] == scalar["gauges"]
        assert batched["timers"].keys() == scalar["timers"].keys()
        for name, timer in batched["timers"].items():
            assert timer["count"] == scalar["timers"][name]["count"]
        assert [
            (shard["shard_id"], shard["records"])
            for shard in batched["shards"]
        ] == [
            (shard["shard_id"], shard["records"])
            for shard in scalar["shards"]
        ]
        assert batched["failures"] == scalar["failures"]

    def test_frame_report_stdout(self, log_dir, capsys):
        logs = [str(path) for path in sorted(log_dir.glob("*.log"))]
        scalar_out = self._run(
            capsys, ["analyze", "--workers", "2", *logs]
        )
        batched_out = self._run(
            capsys,
            ["analyze", "--workers", "2", "--batch-size", "7", *logs],
        )
        assert batched_out == scalar_out
