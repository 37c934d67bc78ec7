"""Tests for the columnar engine (repro.frame)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.frame import (
    LogFrame,
    RecordBatch,
    concat,
    factorize,
    frame_from_records,
)
from repro.frame.io import empty_frame
from repro.traffic import Request, RequestBatch
from tests.helpers import make_record, rng


def small_frame() -> LogFrame:
    return LogFrame({
        "k": np.array(["a", "b", "a", "c", "b", "a"], dtype=object),
        "v": np.array([1, 2, 3, 4, 5, 6], dtype=np.int64),
    })


#: String alphabets for the chained frames: several values, the log's
#: empty and dash placeholders, and a single value.
ALPHABETS = (("a", "b", "c", "d"), ("", "-", "x"), ("only",))

ROW_STEPS = ("where", "take", "slice", "head", "sort_values", "sample")
COLUMN_STEPS = ("select", "drop", "with_column")


@st.composite
def chained_frames(draw):
    """Frames of string columns ``k`` and ``w`` (small alphabets) and an
    int column ``v``, through a random chain of row subsets, column
    selections and column replacements.  Before each step some columns
    are factorized, so a stale cache entry would show downstream.

    Returns every frame of the chain and the steps taken.
    """
    def strings(size):
        alphabet = draw(st.sampled_from(ALPHABETS))
        values = draw(st.lists(
            st.sampled_from(alphabet), min_size=size, max_size=size
        ))
        return np.array(values, dtype=object)

    n = draw(st.integers(0, 60))
    ints = draw(st.lists(st.integers(0, 100), min_size=n, max_size=n))
    frame = LogFrame({
        "k": strings(n), "w": strings(n), "v": np.array(ints, dtype=np.int64),
    })
    frames, steps = [frame], []
    for _ in range(draw(st.integers(0, 6))):
        for name in draw(st.lists(
            st.sampled_from(frame.column_names), unique=True
        )):
            frame.factorize(name)
        n = len(frame)
        step = draw(st.sampled_from(ROW_STEPS + COLUMN_STEPS))
        if step == "where":
            mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            frame = frame.where(np.array(mask, dtype=bool))
        elif step == "take":
            indices = draw(st.lists(
                st.integers(0, max(n - 1, 0)), max_size=2 * n
            ))
            frame = frame.take(np.array(indices, dtype=np.intp))
        elif step == "slice":
            bounds = st.none() | st.integers(-n - 1, n + 1)
            cut = slice(draw(bounds), draw(bounds),
                        draw(st.sampled_from([None, 1, 2, -1, -3])))
            frame = frame.take(cut)
            step = f"slice {cut}"
        elif step == "head":
            frame = frame.head(draw(st.integers(0, n + 2)))
        elif step == "sort_values":
            name = draw(st.sampled_from(frame.column_names))
            frame = frame.sort_values(name, descending=draw(st.booleans()))
            step = f"sort_values {name}"
        elif step == "sample":
            fraction = draw(st.floats(0.0, 1.0))
            frame = frame.sample(fraction, rng(draw(st.integers(0, 99))))
        elif step == "select":
            names = draw(st.permutations(frame.column_names))
            frame = frame.select(
                [name for name in names if name != "w" or draw(st.booleans())]
            )
        elif step == "drop" and "w" in frame:
            frame = frame.drop("w")
        elif step == "with_column":
            name = draw(st.sampled_from(["k", "w"]))
            if name in frame:
                frame.factorize(name)  # replace a factorized column
            frame = frame.with_column(name, strings(n))
            step = f"with_column {name}"
        frames.append(frame)
        steps.append(step)
    return frames, steps


class TestLogFrame:
    def test_length_and_columns(self):
        frame = small_frame()
        assert len(frame) == 6
        assert set(frame.column_names) == {"k", "v"}
        assert "k" in frame and "missing" not in frame

    def test_rejects_unequal_columns(self):
        with pytest.raises(ValueError):
            LogFrame({
                "a": np.array([1, 2]),
                "b": np.array([1]),
            })

    def test_rejects_empty_columns(self):
        with pytest.raises(ValueError):
            LogFrame({})

    def test_unknown_column_raises_keyerror(self):
        with pytest.raises(KeyError):
            small_frame().col("nope")

    def test_boolean_mask(self):
        frame = small_frame()
        sub = frame.where(frame["v"] > 3)
        assert len(sub) == 3
        assert sub["v"].tolist() == [4, 5, 6]

    def test_mask_length_mismatch(self):
        with pytest.raises(ValueError):
            small_frame().where(np.array([True]))

    def test_integer_indices(self):
        sub = small_frame().take(np.array([0, 5]))
        assert sub["k"].tolist() == ["a", "a"]

    def test_select_and_drop(self):
        frame = small_frame()
        assert frame.select(["v"]).column_names == ["v"]
        assert frame.drop("v").column_names == ["k"]

    def test_with_column(self):
        frame = small_frame().with_column("w", [0] * 6)
        assert frame["w"].tolist() == [0] * 6
        with pytest.raises(ValueError):
            small_frame().with_column("w", [1, 2])

    def test_head_and_sort(self):
        frame = small_frame().sort_values("v", descending=True)
        assert frame.head(2)["v"].tolist() == [6, 5]

    def test_value_counts_sorted_desc_then_by_value(self):
        assert small_frame().value_counts("k") == [("a", 3), ("b", 2), ("c", 1)]

    def test_nunique(self):
        assert small_frame().nunique("k") == 3

    @given(chained_frames())
    def test_factorize_matches_np_unique(self, chain):
        """Cached codes are exactly ``np.unique(..., return_inverse=True)``
        on every frame of a chain."""
        frames, steps = chain
        for frame in frames:
            for name in frame.column_names:
                uniques, codes = frame.factorize(name)
                want_uniques, want_codes = np.unique(
                    frame.col(name), return_inverse=True
                )
                assert uniques.dtype == want_uniques.dtype, steps
                assert codes.dtype == want_codes.dtype, steps
                assert uniques.tolist() == want_uniques.tolist(), steps
                assert codes.tolist() == want_codes.tolist(), steps
                assert not uniques.flags.writeable
                assert not codes.flags.writeable
                assert frame.factorize(name)[1] is codes  # cached

    def test_factorize_helper_on_zero_rows(self):
        uniques, codes = factorize(np.empty(0, dtype=object))
        assert uniques.dtype == object and uniques.shape == (0,)
        assert codes.dtype == np.intp and codes.shape == (0,)

    def test_cached_codes_are_read_only(self):
        uniques, codes = small_frame().factorize("k")
        with pytest.raises(ValueError):
            codes[0] = 1
        with pytest.raises(ValueError):
            uniques[0] = "z"

    def test_sample_fraction(self):
        frame = small_frame()
        assert len(frame.sample(0.5, rng())) == 3
        assert len(frame.sample(0.0, rng())) == 0
        with pytest.raises(ValueError):
            frame.sample(1.5, rng())

    def test_sample_without_replacement(self):
        frame = small_frame()
        sub = frame.sample(1.0, rng())
        assert sorted(sub["v"].tolist()) == [1, 2, 3, 4, 5, 6]

    def test_iter_rows_and_row(self):
        rows = list(small_frame().iter_rows())
        assert rows[0] == {"k": "a", "v": 1}
        assert small_frame().row(3) == {"k": "c", "v": 4}

    def test_repr(self):
        assert "6 rows" in repr(small_frame())


def _record_columns() -> dict[str, np.ndarray]:
    batch = RecordBatch.from_records(
        [make_record(cs_host=f"h{i}.com", sc_status=200 + i) for i in range(4)]
    )
    return {name: batch.col(name) for name in batch.column_names}


def _request_columns() -> dict[str, np.ndarray]:
    return dict(RequestBatch.from_requests(
        Request(epoch=i, c_ip="10.0.0.1", user_agent="UA", host=f"h{i}.com")
        for i in range(4)
    ).columns)


#: The one container and its two fixed-schema subclasses: four rows of
#: columns for each, and (for the subclasses) an int64 schema column.
CONTAINERS = {
    "LogFrame": (LogFrame, lambda: {
        "k": np.array(["a", "b", "a", "c"], dtype=object),
        "v": np.arange(4, dtype=np.int32),
    }, None),
    "RecordBatch": (RecordBatch, _record_columns, "sc_status"),
    "RequestBatch": (RequestBatch, _request_columns, "port"),
}


@pytest.mark.parametrize("name", CONTAINERS)
def test_one_container(name):
    """Every table is a :class:`LogFrame`: the schema check is
    LogFrame's, row selections and ``concat`` keep the caller's class,
    its column order and dtypes, ``select``/``drop`` give a plain
    frame, and ``with_column`` on a fixed-schema table keeps the schema
    dtype and refuses a new name."""
    cls, make_columns, int_column = CONTAINERS[name]
    columns = make_columns()
    frame = cls(columns)
    names = frame.column_names
    dtypes = [frame.col(column).dtype for column in names]
    if cls.SCHEMA is not None:
        assert names == list(cls.SCHEMA)
        assert dtypes == [np.dtype(dtype) for dtype in cls.SCHEMA.values()]

    first = names[0]
    bad = [dict(columns, **{first: columns[first][:2]})]  # unequal lengths
    if cls.SCHEMA is None:
        bad.append({})
    else:
        bad.append({k: v for k, v in columns.items() if k != first})
        bad.append(dict(columns, extra=columns[first]))
    for each in bad:
        with pytest.raises(ValueError):
            cls(each)

    def assert_same_kind(table, rows):
        assert type(table) is cls
        assert table.column_names == names
        assert [table.col(column).dtype for column in names] == dtypes
        assert len(table) == rows

    mask = np.array([True, False, True, True])
    assert_same_kind(frame.take(mask), 3)
    assert_same_kind(frame.take(np.array([3, 0])), 2)
    assert_same_kind(frame.take(slice(1, 3)), 2)
    assert_same_kind(frame.where(mask), 3)
    assert_same_kind(frame.head(1), 1)
    assert_same_kind(frame[mask], 3)
    assert_same_kind(frame[1:], 3)
    assert_same_kind(concat([frame, frame.head(2)]), 6)

    assert type(frame.select(names[:1])) is LogFrame
    assert type(frame.drop(first)) is LogFrame

    if cls.SCHEMA is None:
        added = frame.with_column("new", [0] * 4)
        assert added.column_names == [*names, "new"]
    else:
        replaced = frame.with_column(int_column, [7, 8, 9, 10])
        assert_same_kind(replaced, 4)
        assert replaced.col(int_column).tolist() == [7, 8, 9, 10]
        with pytest.raises(ValueError):
            frame.with_column("new", [0] * 4)


class TestConcat:
    def test_concat(self):
        combined = concat([small_frame(), small_frame()])
        assert len(combined) == 12

    def test_concat_rejects_mismatched_columns(self):
        other = LogFrame({"k": np.array(["x"], dtype=object)})
        with pytest.raises(ValueError):
            concat([small_frame(), other])

    def test_concat_rejects_empty_list(self):
        with pytest.raises(ValueError):
            concat([])


class TestGroupBy:
    def test_count(self):
        assert small_frame().groupby("k").count() == {"a": 3, "b": 2, "c": 1}

    def test_sum(self):
        assert small_frame().groupby("k").sum("v") == {
            "a": 10.0, "b": 7.0, "c": 4.0,
        }

    def test_count_where(self):
        frame = small_frame()
        mask = frame["v"] > 2
        assert frame.groupby("k").count_where(mask) == {"a": 2, "b": 1, "c": 1}
        with pytest.raises(ValueError):
            frame.groupby("k").count_where(np.array([True]))

    def test_nunique(self):
        frame = LogFrame({
            "k": np.array(["a", "a", "b", "b"], dtype=object),
            "v": np.array(["x", "x", "x", "y"], dtype=object),
        })
        assert frame.groupby("k").nunique("v") == {"a": 1, "b": 2}

    def test_top(self):
        assert small_frame().groupby("k").top(2) == [("a", 3), ("b", 2)]

    def test_indices_and_frames(self):
        groups = small_frame().groupby("k")
        indices = groups.indices()
        assert indices["a"].tolist() == [0, 2, 5]
        frames = groups.frames()
        assert frames["b"]["v"].tolist() == [2, 5]

    @given(chained_frames())
    def test_groupby_matches_bruteforce(self, chain):
        frames, steps = chain
        for frame in frames:
            keys = frame.col("k").tolist()
            grouped = frame.groupby("k")
            expected_counts = {}
            expected_sums = {}
            for k, v in zip(keys, frame.col("v").tolist()):
                expected_counts[k] = expected_counts.get(k, 0) + 1
                expected_sums[k] = expected_sums.get(k, 0) + v
            assert grouped.count() == expected_counts, steps
            assert grouped.sum("v") == {
                k: float(v) for k, v in expected_sums.items()
            }, steps
            assert grouped.top(2) == sorted(
                expected_counts.items(), key=lambda kv: (-kv[1], kv[0])
            )[:2], steps
            assert frame.value_counts("k") == sorted(
                expected_counts.items(), key=lambda kv: (-kv[1], kv[0])
            ), steps
            if "w" in frame:
                distinct: dict[str, set] = {}
                for k, w in zip(keys, frame.col("w").tolist()):
                    distinct.setdefault(k, set()).add(w)
                assert grouped.nunique("w") == {
                    k: len(ws) for k, ws in distinct.items()
                }, steps


class TestIO:
    def test_frame_from_records(self):
        records = [make_record(cs_host=f"h{i}.com") for i in range(5)]
        frame = frame_from_records(records)
        assert len(frame) == 5
        assert frame["cs_host"].tolist() == [f"h{i}.com" for i in range(5)]

    def test_frame_from_no_records(self):
        frame = frame_from_records([])
        assert len(frame) == 0
        assert "cs_host" in frame

    def test_empty_frame_has_standard_columns(self):
        frame = empty_frame()
        assert "x_exception_id" in frame and len(frame) == 0
