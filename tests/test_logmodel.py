"""Tests for the log model: fields, classification, records, ELFF I/O,
anonymization."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.logmodel.anonymize import (
    ZEROED_CLIENT_IP,
    hash_client_ip,
    is_anonymized,
    zero_client_ip,
)
from repro.logmodel.classify import (
    CENSOR_EXCEPTIONS,
    ERROR_EXCEPTIONS,
    TrafficClass,
    classify,
    classify_exception,
    is_censored,
    is_denied,
)
from repro.logmodel.elff import (
    LogFormatError,
    ReadStats,
    read_log,
    write_log,
)
from repro.logmodel.fields import (
    FIELDS,
    PROXY_NAMES,
    proxy_ip,
    proxy_name_from_ip,
)
from repro.logmodel.record import (
    LogRecord,
    date_time_to_epoch,
    epoch_to_date_time,
)
from tests.helpers import make_record


class TestFields:
    def test_schema_has_26_fields(self):
        assert len(FIELDS) == 26

    def test_paper_fields_present(self):
        for name in (
            "cs-host", "cs-uri-path", "cs-uri-query", "sc-filter-result",
            "x-exception-id", "cs-categories", "s-ip", "c-ip",
        ):
            assert name in FIELDS

    def test_proxy_names(self):
        assert PROXY_NAMES == tuple(f"SG-{n}" for n in range(42, 49))

    def test_proxy_ip_roundtrip(self):
        for name in PROXY_NAMES:
            suffix = int(name.split("-")[1])
            assert proxy_name_from_ip(proxy_ip(suffix)) == name

    def test_proxy_ip_rejects_unknown(self):
        with pytest.raises(ValueError):
            proxy_ip(99)
        with pytest.raises(ValueError):
            proxy_name_from_ip("10.0.0.1")


class TestClassification:
    """The paper's Section 3.3 classification semantics."""

    def test_no_exception_is_allowed(self):
        assert classify_exception("-") is TrafficClass.ALLOWED

    @pytest.mark.parametrize("exc", sorted(CENSOR_EXCEPTIONS))
    def test_policy_exceptions_are_censored(self, exc):
        assert classify_exception(exc) is TrafficClass.CENSORED
        assert is_censored(exc)
        assert is_denied(exc)

    @pytest.mark.parametrize("exc", sorted(ERROR_EXCEPTIONS))
    def test_network_exceptions_are_errors(self, exc):
        assert classify_exception(exc) is TrafficClass.ERROR
        assert not is_censored(exc)
        assert is_denied(exc)

    def test_unknown_exception_counts_as_error(self):
        assert classify_exception("weird_new_thing") is TrafficClass.ERROR

    def test_proxied_separate_flag(self):
        assert (
            classify("PROXIED", "-", proxied_separate=True)
            is TrafficClass.PROXIED
        )
        # folded mode classifies by exception id, like the paper's
        # headline statistics
        assert classify("PROXIED", "-") is TrafficClass.ALLOWED
        assert (
            classify("PROXIED", "policy_denied") is TrafficClass.CENSORED
        )


class TestRecord:
    def test_row_roundtrip(self):
        record = make_record(
            cs_host="www.skype.com",
            cs_uri_path="/download",
            cs_uri_query="a=1",
            x_exception_id="policy_denied",
            sc_filter_result="DENIED",
            sc_status=403,
        )
        restored = LogRecord.from_row(record.to_row())
        assert restored == record

    def test_row_has_26_columns(self):
        assert len(make_record().to_row()) == 26

    def test_from_row_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            LogRecord.from_row(["x"] * 25)

    def test_traffic_class_property(self):
        assert make_record().traffic_class is TrafficClass.ALLOWED
        assert (
            make_record(x_exception_id="policy_denied").traffic_class
            is TrafficClass.CENSORED
        )

    def test_matchable_text(self):
        record = make_record(
            cs_host="h.com", cs_uri_path="/p", cs_uri_query="q=1"
        )
        assert record.matchable_text() == "h.com/p?q=1"

    def test_epoch_date_roundtrip(self):
        date, time = epoch_to_date_time(1312329600)
        assert date == "2011-08-03"
        assert time == "00:00:00"
        assert date_time_to_epoch(date, time) == 1312329600

    @given(st.integers(min_value=0, max_value=2**31))
    def test_epoch_roundtrip_property(self, epoch):
        date, time = epoch_to_date_time(epoch)
        assert date_time_to_epoch(date, time) == epoch


class TestElff:
    def test_write_read_roundtrip(self, tmp_path):
        records = [
            make_record(cs_host=f"host{i}.com", epoch=1312329600 + i)
            for i in range(20)
        ]
        path = tmp_path / "log.csv"
        written = write_log(records, path)
        assert written == 20
        restored = list(read_log(path))
        assert restored == records

    def test_directives_written(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log([make_record()], path)
        text = path.read_text()
        assert text.startswith("#Software:")
        assert "#Fields: " + " ".join(FIELDS) in text

    def test_read_rejects_wrong_schema(self):
        bad = io.StringIO("#Fields: date time\n")
        with pytest.raises(LogFormatError):
            list(read_log(bad))

    def test_record_with_commas_survives_csv(self, tmp_path):
        record = make_record(cs_categories="Blocked sites; unavailable",
                             cs_uri_query="a=1,2,3")
        path = tmp_path / "log.csv"
        write_log([record], path)
        assert list(read_log(path)) == [record]


class TestLenientEdgeCases:
    """Degenerate files the Telecomix leak actually contains.  The
    sharded engine reads every file with ``lenient=True``, so the
    lenient reader's behavior on these shapes is what keeps parallel
    analysis identical to serial."""

    def test_truncated_last_line_is_left_unread(self, tmp_path):
        """A torn final line (writer mid-flush) is not malformed data:
        it is left unread with its offset reported, so a tailer can
        resume from it and the last record is never dropped."""
        path = tmp_path / "truncated.log"
        records = [make_record(cs_host=f"host{i}.com") for i in range(3)]
        write_log(records, path)
        text = path.read_text()
        path.write_text(text[:-35])  # cut the final row short
        stats = ReadStats()
        kept = list(read_log(path, lenient=True, stats=stats))
        assert kept == records[:2]
        assert stats.records == 2
        assert stats.skipped == 0
        assert stats.first_error is None
        assert stats.incomplete_tail == 1
        torn_start = text[:-35].rfind("\n") + 1
        assert stats.incomplete_tail_offset == torn_start

    def test_truncated_line_raises_when_strict(self, tmp_path):
        path = tmp_path / "truncated.log"
        write_log([make_record()], path)
        path.write_text(path.read_text()[:-35])
        with pytest.raises(LogFormatError):
            list(read_log(path))

    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.log"
        path.write_text("")
        stats = ReadStats()
        assert list(read_log(path, lenient=True, stats=stats)) == []
        assert (stats.records, stats.skipped) == (0, 0)

    def test_header_only_file_yields_nothing(self, tmp_path):
        path = tmp_path / "header.log"
        write_log([], path)  # directives, zero data rows
        stats = ReadStats()
        assert list(read_log(path, lenient=True, stats=stats)) == []
        assert (stats.records, stats.skipped) == (0, 0)

    def test_mid_file_directives_are_skipped(self, tmp_path):
        """Concatenated logs re-declare their directives mid-file (the
        leak's files are per-day dumps glued together)."""
        first = [make_record(cs_host="a.com")]
        second = [make_record(cs_host="b.com")]
        path = tmp_path / "mixed.log"
        with open(path, "w", newline="") as handle:
            write_log(first, handle)
            write_log(second, handle)
        kept = list(read_log(path, lenient=True))
        assert kept == first + second

    def test_mid_file_schema_change_still_raises(self, tmp_path):
        path = tmp_path / "bad.log"
        with open(path, "w", newline="") as handle:
            write_log([make_record()], handle)
            handle.write("#Fields: date time\n")
        with pytest.raises(LogFormatError):
            list(read_log(path, lenient=True))

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "gaps.log"
        write_log([make_record()], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(list(read_log(path, lenient=True))) == 1

    def test_stats_merge(self):
        left = ReadStats(records=2, skipped=1, first_error="bad row 3")
        right = ReadStats(records=5, skipped=2, first_error="bad row 9")
        left += right
        assert left == ReadStats(records=7, skipped=3,
                                 first_error="bad row 3")
        # first_error fills from the right operand when absent
        empty = ReadStats()
        empty += ReadStats(first_error="only error")
        assert empty.first_error == "only error"


class TestAnonymize:
    def test_zeroing(self):
        assert zero_client_ip("31.9.1.2") == ZEROED_CLIENT_IP

    def test_hash_is_deterministic(self):
        assert hash_client_ip("31.9.1.2") == hash_client_ip("31.9.1.2")

    def test_hash_distinguishes_clients(self):
        assert hash_client_ip("31.9.1.2") != hash_client_ip("31.9.1.3")

    def test_hash_is_keyed(self):
        assert hash_client_ip("31.9.1.2", key=b"a") != hash_client_ip(
            "31.9.1.2", key=b"b"
        )

    def test_is_anonymized(self):
        assert is_anonymized(ZEROED_CLIENT_IP)
        assert is_anonymized(hash_client_ip("31.9.1.2"))
        assert not is_anonymized("31.9.1.2")
