"""The Source→Stage→Sink pipeline layer: contracts, degenerate
inputs, and the sink monoid laws the sharded engine's reduce relies on
(hypothesis, mirroring the accumulator merge-law suite)."""

import gzip
import io
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.streaming import StreamingAnalysis
from repro.frame import RecordBatch, concat_batches, empty_frame, \
    frame_from_records
from repro.logmodel.elff import elff_header, write_log
from repro.pipeline import (
    AnonymizeStage,
    CountSink,
    ElffSink,
    FrameSink,
    GroupedElffSink,
    Pipeline,
    RecordListSink,
    RecordsSource,
    Stage,
    StreamingAnalysisSink,
    TeeSink,
)
from repro.timeline import day_epoch
from tests.helpers import make_record

# -- strategies -------------------------------------------------------------


def log_records():
    """Generated LogRecords covering every grouping/classify branch."""
    return st.builds(
        make_record,
        cs_host=st.sampled_from([
            "www.a.com", "b.com", "sub.c.org", "d.net",
        ]),
        s_ip=st.sampled_from(["82.137.200.42", "82.137.200.49"]),
        sc_filter_result=st.sampled_from(["OBSERVED", "DENIED", "PROXIED"]),
        x_exception_id=st.sampled_from([
            "-", "policy_denied", "tcp_error",
        ]),
        epoch=st.integers(1_311_292_800, 1_312_675_200),  # the leak's span
    )


def record_batches(max_size: int = 25):
    return st.lists(log_records(), max_size=max_size)


def sink_prototypes():
    """One empty sink of every mergeable flavour."""
    return st.sampled_from([
        CountSink(),
        RecordListSink(),
        StreamingAnalysisSink(),
        FrameSink(),
        ElffSink(),
        GroupedElffSink(per_proxy=True, per_day=True),
        TeeSink([CountSink(), RecordListSink()]),
    ])


def _fold(prototype, batch):
    return prototype.fresh().consume(batch)


def _fold_batched(prototype, records, batch_size):
    """Fold the same records through the column-batch entry point."""
    return prototype.fresh().consume_batches(
        RecordBatch.from_records(records).split(batch_size)
    )


# -- pipeline basics ---------------------------------------------------------


class TestPipeline:
    def test_plain_iterables_are_sources(self):
        records = [make_record(), make_record()]
        assert Pipeline(records).run(CountSink()).count == 2

    def test_stages_apply_in_order(self):
        class Mark(Stage):
            def __init__(self, tag):
                self.tag = tag

            def process_batch(self, batches):
                for batch in batches:
                    yield batch.with_column(
                        "cs_host", batch.col("cs_host") + self.tag
                    )

        pipeline = Pipeline(
            RecordsSource([make_record(cs_host="x")]), (Mark("a"),)
        ).through(Mark("b"))
        [record] = pipeline.run(RecordListSink()).records
        assert record.cs_host == "xab"

    def test_through_does_not_mutate(self):
        base = Pipeline(RecordsSource([1, 2]))
        extended = base.through(AnonymizeStage([]))
        assert base.stages == ()
        assert len(extended.stages) == 1

    def test_pipelines_are_lazy(self):
        def exploding():
            raise AssertionError("should not be pulled")
            yield

        pipeline = Pipeline(exploding())
        assert pipeline.stages == ()  # constructing never iterates

    def test_zero_record_source(self):
        """An empty source leaves every sink at its identity."""
        for sink in (CountSink(), RecordListSink(), StreamingAnalysisSink(),
                     FrameSink(), ElffSink(), GroupedElffSink(),
                     TeeSink([CountSink()])):
            result = Pipeline(RecordsSource([])).run(sink)
            assert len(result) == 0
            assert result == sink.fresh()

    def test_zero_record_frame_sink_yields_empty_frame(self):
        frame = Pipeline(RecordsSource([])).run(FrameSink()).frame()
        assert len(frame) == 0
        assert frame.column_names == empty_frame().column_names


# -- degenerate sinks --------------------------------------------------------


class TestDegenerateSinks:
    def test_empty_tee_still_drains_and_counts(self):
        stream = iter([make_record(), make_record(), make_record()])
        tee = TeeSink().consume(stream)
        assert len(tee) == 3
        assert next(stream, None) is None  # the stream really was drained

    def test_tee_fans_out_every_item(self):
        count, records = CountSink(), RecordListSink()
        batch = [make_record(), make_record()]
        TeeSink([count, records]).consume(batch)
        assert count.count == 2
        assert records.records == batch

    def test_tee_merge_requires_same_arity(self):
        with pytest.raises(ValueError, match="tee"):
            TeeSink([CountSink()]).merge(TeeSink())

    def test_merging_fresh_into_populated_is_noop(self):
        batch = [make_record(cs_host="a.com"), make_record(cs_host="b.com")]
        for prototype in (CountSink(), RecordListSink(),
                          StreamingAnalysisSink(), FrameSink(), ElffSink(),
                          GroupedElffSink(per_proxy=True),
                          TeeSink([CountSink()])):
            populated = _fold(prototype, batch)
            expected = _fold(prototype, batch)
            assert populated.merge(prototype.fresh()) == expected

    def test_merging_populated_into_fresh_adopts_state(self):
        batch = [make_record(cs_host="a.com"), make_record(cs_host="b.com")]
        for prototype in (CountSink(), RecordListSink(),
                          StreamingAnalysisSink(), FrameSink(), ElffSink(),
                          GroupedElffSink(per_proxy=True),
                          TeeSink([CountSink()])):
            populated = _fold(prototype, batch)
            assert prototype.fresh().merge(populated) == populated


# -- sink monoid laws (hypothesis) ------------------------------------------


class TestSinkMergeLaws:
    """Every sink must be a merge monoid — ``fresh()`` identity,
    associative ``merge``, and merge-of-split equals single-pass — or
    ``run_sharded``'s reduce would depend on worker scheduling."""

    @settings(max_examples=40)
    @given(sink_prototypes(), record_batches())
    def test_fresh_is_identity(self, prototype, batch):
        folded = _fold(prototype, batch)
        assert prototype.fresh().merge(folded) == _fold(prototype, batch)
        assert folded.merge(prototype.fresh()) == _fold(prototype, batch)

    @settings(max_examples=40)
    @given(sink_prototypes(), record_batches(10), record_batches(10),
           record_batches(10))
    def test_merge_is_associative(self, prototype, a, b, c):
        left = _fold(prototype, a).merge(
            _fold(prototype, b).merge(_fold(prototype, c))
        )
        right = _fold(prototype, a).merge(_fold(prototype, b)).merge(
            _fold(prototype, c)
        )
        assert left == right

    @settings(max_examples=40)
    @given(sink_prototypes(), record_batches(40), st.integers(0, 40))
    def test_merge_agrees_with_single_pass(self, prototype, batch, cut):
        """Folding a split stream into fresh sinks and merging in split
        order equals folding the whole stream once — the exact shape of
        the engine's shard reduce."""
        cut = min(cut, len(batch))
        merged = _fold(prototype, batch[:cut]).merge(
            _fold(prototype, batch[cut:])
        )
        assert merged == _fold(prototype, batch)

    @settings(max_examples=25)
    @given(record_batches(30), st.integers(0, 30))
    def test_split_frames_materialize_identically(self, batch, cut):
        cut = min(cut, len(batch))
        merged = _fold(FrameSink(), batch[:cut]).merge(
            _fold(FrameSink(), batch[cut:])
        )
        reference = frame_from_records(batch)
        for name in reference.column_names:
            assert list(merged.frame().col(name)) == list(reference.col(name))

    @settings(max_examples=25)
    @given(record_batches(20), st.integers(0, 20))
    def test_pickled_shards_merge_like_local_ones(self, batch, cut):
        """A worker's sink crosses the process boundary via pickle; the
        round trip must not change what the parent reduces."""
        cut = min(cut, len(batch))
        for prototype in (FrameSink(), ElffSink(),
                          GroupedElffSink(per_proxy=True)):
            shipped = pickle.loads(pickle.dumps(_fold(prototype, batch[cut:])))
            merged = _fold(prototype, batch[:cut]).merge(shipped)
            assert merged == _fold(prototype, batch)

    @settings(max_examples=30)
    @given(record_batches(20))
    def test_streaming_sink_matches_bare_accumulator(self, batch):
        sink = _fold(StreamingAnalysisSink(), batch)
        assert sink.analysis == StreamingAnalysis().consume(batch)


# -- RecordBatch container laws (hypothesis) ---------------------------------


class TestRecordBatchLaws:
    """The columnar container must be a faithful, lossless view of the
    record list — round-trips, slicing and concatenation cannot change
    what the batch *means*, or the pipeline's equivalence to the
    per-record references falls apart silently."""

    @settings(max_examples=40)
    @given(record_batches())
    def test_records_round_trip(self, records):
        batch = RecordBatch.from_records(records)
        assert len(batch) == len(records)
        assert batch.to_records() == records

    @settings(max_examples=40)
    @given(record_batches())
    def test_rows_match_scalar_serialization(self, records):
        batch = RecordBatch.from_records(records)
        scalar_rows = [tuple(record.to_row()) for record in records]
        batched_rows = [
            tuple(str(cell) for cell in row) for row in batch.to_rows()
        ]
        assert batched_rows == scalar_rows

    @settings(max_examples=40)
    @given(record_batches(), st.integers(0, 25), st.integers(0, 25))
    def test_slice_concat_identity(self, records, start, stop):
        batch = RecordBatch.from_records(records)
        start, stop = sorted((min(start, len(batch)), min(stop, len(batch))))
        rejoined = concat_batches([
            batch.slice(0, start),
            batch.slice(start, stop),
            batch.slice(stop),
        ])
        assert rejoined == batch
        assert rejoined.to_records() == records

    @settings(max_examples=40)
    @given(record_batches(), st.integers(1, 30))
    def test_split_concat_identity(self, records, batch_size):
        batch = RecordBatch.from_records(records)
        chunks = list(batch.split(batch_size))
        assert all(1 <= len(chunk) <= batch_size for chunk in chunks)
        assert sum(len(chunk) for chunk in chunks) == len(batch)
        assert concat_batches(chunks) == batch

    def test_concat_nothing_is_the_empty_batch(self):
        assert concat_batches([]) == RecordBatch.empty()
        assert len(RecordBatch.empty()) == 0
        assert RecordBatch.empty().to_records() == []

    def test_empty_batch_round_trips(self):
        assert RecordBatch.from_records([]) == RecordBatch.empty()
        assert RecordBatch.empty().to_rows() == []


# -- batched sink laws (hypothesis) ------------------------------------------


class TestBatchedSinkLaws:
    """``consume_batches`` must land every sink in the same state as
    ``consume`` over the whole record list — at any batch size — and
    batched folds must obey the same merge monoid the shard reduce
    relies on."""

    @settings(max_examples=40)
    @given(sink_prototypes(), record_batches(),
           st.sampled_from([1, 3, 7, 64]))
    def test_batched_fold_equals_scalar_fold(
        self, prototype, records, batch_size
    ):
        assert _fold_batched(prototype, records, batch_size) == \
            _fold(prototype, records)

    @settings(max_examples=40)
    @given(sink_prototypes(), record_batches(40), st.integers(0, 40),
           st.sampled_from([1, 5, 64]))
    def test_merged_batched_folds_equal_single_scalar_pass(
        self, prototype, records, cut, batch_size
    ):
        cut = min(cut, len(records))
        merged = _fold_batched(prototype, records[:cut], batch_size).merge(
            _fold_batched(prototype, records[cut:], batch_size)
        )
        assert merged == _fold(prototype, records)

    @settings(max_examples=40)
    @given(sink_prototypes(), record_batches(30), st.integers(0, 30))
    def test_batched_and_scalar_folds_merge_together(
        self, prototype, records, cut
    ):
        """Shards folded at different batch sizes must still reduce
        to the single-pass state."""
        cut = min(cut, len(records))
        merged = _fold(prototype, records[:cut]).merge(
            _fold_batched(prototype, records[cut:], 7)
        )
        assert merged == _fold(prototype, records)


# -- ELFF sinks --------------------------------------------------------------


class TestElffSink:
    def test_buffered_body_matches_write_log(self, tmp_path):
        records = [make_record(cs_host=f"h{i}.com") for i in range(5)]
        legacy = tmp_path / "legacy.log"
        write_log(records, legacy)
        sink = ElffSink().consume(records)
        assert elff_header(sink.software) + sink.body_text() == \
            legacy.read_bytes().decode()

    def test_write_to_matches_write_log(self, tmp_path):
        records = [make_record(cs_host=f"h{i}.com") for i in range(5)]
        write_log(records, tmp_path / "legacy.log")
        ElffSink().consume(records).write_to(tmp_path / "sink.log")
        assert (tmp_path / "sink.log").read_bytes() == \
            (tmp_path / "legacy.log").read_bytes()

    def test_bound_sink_streams_to_disk(self, tmp_path):
        records = [make_record(cs_host=f"h{i}.com") for i in range(3)]
        write_log(records, tmp_path / "legacy.log")
        sink = ElffSink(tmp_path / "bound.log")
        sink.consume(records)
        sink.close()
        assert (tmp_path / "bound.log").read_bytes() == \
            (tmp_path / "legacy.log").read_bytes()

    def test_bound_sink_accepts_buffered_merge(self, tmp_path):
        records = [make_record(cs_host=f"h{i}.com") for i in range(4)]
        write_log(records, tmp_path / "legacy.log")
        part_a = ElffSink().consume(records[:2])
        part_b = ElffSink().consume(records[2:])
        bound = ElffSink(tmp_path / "merged.log")
        bound.merge(part_a).merge(part_b)
        bound.close()
        assert (tmp_path / "merged.log").read_bytes() == \
            (tmp_path / "legacy.log").read_bytes()

    def test_merge_from_bound_rejected(self, tmp_path):
        bound = ElffSink(tmp_path / "out.log")
        try:
            with pytest.raises(ValueError, match="buffered"):
                ElffSink().merge(bound)
        finally:
            bound.close()

    def test_bound_sink_is_not_picklable(self, tmp_path):
        bound = ElffSink(tmp_path / "out.log")
        try:
            with pytest.raises(TypeError, match="buffered"):
                pickle.dumps(bound)
        finally:
            bound.close()

    def test_bound_handle_mode(self):
        handle = io.StringIO()
        sink = ElffSink(handle)
        sink.add(make_record())
        assert not sink.buffered  # it streamed to the caller's handle
        assert handle.getvalue().startswith("#Software")


class TestGroupedElffSink:
    def test_combined_writes_proxies_even_when_empty(self, tmp_path):
        [(path, count)] = GroupedElffSink().write_dir(tmp_path)
        assert path.name == "proxies.log"
        assert count == 0
        assert path.read_bytes().decode() == elff_header(
            GroupedElffSink().software
        )

    def test_grouped_empty_writes_nothing(self, tmp_path):
        assert GroupedElffSink(per_proxy=True).write_dir(tmp_path) == []
        assert list(tmp_path.iterdir()) == []

    def test_per_proxy_per_day_stems(self, tmp_path):
        day1 = day_epoch("2011-08-03") + 60
        day2 = day_epoch("2011-08-04") + 60
        sink = GroupedElffSink(per_proxy=True, per_day=True)
        sink.consume([
            make_record(s_ip="82.137.200.42", epoch=day1),
            make_record(s_ip="82.137.200.49", epoch=day2),
        ])
        names = [path.name for path, _ in sink.write_dir(tmp_path)]
        assert names == ["sg-42_2011-08-03.log", "sg-49_2011-08-04.log"]

    def test_compressed_files_decompress_to_plain_bytes(self, tmp_path):
        records = [make_record(cs_host=f"h{i}.com") for i in range(6)]
        plain = GroupedElffSink().consume(records)
        packed = GroupedElffSink(compress=True).consume(records)
        [(plain_path, _)] = plain.write_dir(tmp_path / "plain")
        [(gz_path, _)] = packed.write_dir(tmp_path / "gz")
        assert gz_path.suffix == ".gz"
        assert gzip.decompress(gz_path.read_bytes()) == \
            plain_path.read_bytes()

    def test_compressed_output_is_deterministic(self, tmp_path):
        """Same records → same .log.gz bytes, run to run and dir to
        dir (no timestamp or filename leaks into the gzip header)."""
        records = [make_record(cs_host=f"h{i}.com") for i in range(6)]
        for attempt in ("one", "two"):
            sink = GroupedElffSink(compress=True).consume(records)
            sink.write_dir(tmp_path / attempt)
        assert (tmp_path / "one" / "proxies.log.gz").read_bytes() == \
            (tmp_path / "two" / "proxies.log.gz").read_bytes()
