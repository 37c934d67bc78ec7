"""The :class:`LogFrame` columnar container."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TypeVar

import numpy as np

_T = TypeVar("_T")


def factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` of a 1-D column.

    The sorted distinct values and every row's ``intp`` code into them,
    equal to numpy's result in values, order and dtype, zero rows
    included.  An object column takes one hash pass over its rows and
    sorts only its distinct values, where ``np.unique`` sorts every row
    with a Python comparison per step; other dtypes go to ``np.unique``
    itself.
    """
    if values.dtype != object:
        return np.unique(values, return_inverse=True)
    items = values.tolist()
    distinct = sorted(dict.fromkeys(items))
    rank = dict(zip(distinct, range(len(distinct))))
    codes = np.fromiter(
        map(rank.__getitem__, items), dtype=np.intp, count=len(items)
    )
    return np.fromiter(distinct, dtype=object, count=len(distinct)), codes


def top_counts(
    values: np.ndarray, codes: np.ndarray, n: int | None = None
) -> list[tuple[object, int]]:
    """The *n* (default: all) most frequent of *values* among *codes*:
    ``(value, count)`` pairs, most frequent first, ties broken by value.

    *values* must be sorted and distinct (a factorization's uniques);
    values that no code selects are left out.
    """
    counts = np.bincount(codes, minlength=len(values))
    # The values are sorted, so a stable sort breaks ties by value.
    order = np.argsort(-counts, kind="stable")[:n]
    return [(values[i], int(counts[i])) for i in order if counts[i]]


class LogFrame:
    """An immutable table of equal-length numpy columns.

    String columns use ``object`` dtype (variable-length strings),
    numeric columns use native dtypes.  All transforming operations
    return new frames; columns are shared, never copied, unless an
    operation must materialize a subset.

    A subclass that sets :attr:`SCHEMA` is a fixed-schema table
    (:class:`~repro.frame.batch.RecordBatch`,
    :class:`~repro.traffic.RequestBatch`): it holds exactly the schema's
    columns, in schema order and at schema dtypes.  Row selections
    (:meth:`take` and everything built on it) and :func:`concat` keep
    the caller's class; :meth:`select` and :meth:`drop` return a plain
    frame.

    Each column is factorized at most once per frame
    (:meth:`factorize`), and each value derived from several columns
    is built at most once per frame (:meth:`derived`).
    """

    #: Column name -> dtype of a fixed-schema table; ``None`` for a
    #: free-form analysis frame.
    SCHEMA: dict[str, str] | None = None

    def __init__(self, columns: dict[str, np.ndarray]):
        schema = self.SCHEMA
        if schema is not None:
            if columns.keys() != schema.keys():
                raise ValueError(
                    f"{type(self).__name__} needs exactly its schema's "
                    f"columns (missing {sorted(schema.keys() - columns.keys())}"
                    f", extra {sorted(columns.keys() - schema.keys())})"
                )
            columns = {
                name: np.asarray(columns[name], dtype=dtype)
                for name, dtype in schema.items()
            }
        elif not columns:
            raise ValueError("a LogFrame needs at least one column")
        lengths = {name: len(array) for name, array in columns.items()}
        distinct = set(lengths.values())
        if len(distinct) != 1:
            raise ValueError(f"column lengths differ: {lengths}")
        self._columns: dict[str, np.ndarray] = dict(columns)
        self._length = distinct.pop()
        # Column name -> (uniques, codes), exactly np.unique's result;
        # a derived value's build function -> that value.
        self._cache: dict[object, object] = {}

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    @property
    def column_names(self) -> list[str]:
        """Names of the frame's columns."""
        return list(self._columns)

    def col(self, name: str) -> np.ndarray:
        """The raw numpy array behind column *name*."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; have {sorted(self._columns)}"
            ) from None

    def __getitem__(self, key):
        """``frame[str]`` -> column; ``frame[mask or indices]`` -> frame."""
        if isinstance(key, str):
            return self.col(key)
        return self.take(key)

    # -- construction / transformation ----------------------------------

    def take(self, selector: np.ndarray | slice) -> "LogFrame":
        """Row subset by boolean mask, integer indices, or slice."""
        if isinstance(selector, np.ndarray) and selector.dtype == bool:
            if len(selector) != self._length:
                raise ValueError("boolean mask length mismatch")
        return type(self)(
            {name: array[selector] for name, array in self._columns.items()}
        )

    def where(self, mask: np.ndarray) -> "LogFrame":
        """Alias of :meth:`take` for boolean masks (reads better)."""
        return self.take(mask)

    def select(self, names: Sequence[str]) -> "LogFrame":
        """Column subset, as a plain frame."""
        return LogFrame({name: self.col(name) for name in names})

    def with_column(self, name: str, values: np.ndarray | Sequence) -> "LogFrame":
        """Return a frame with column *name* added or replaced.

        A fixed-schema table stores the column at its schema dtype and
        refuses a name outside its schema (``ValueError``).
        """
        array = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
        if len(array) != self._length:
            raise ValueError("new column length mismatch")
        return type(self)({**self._columns, name: array})

    def drop(self, *names: str) -> "LogFrame":
        """Return a plain frame without the given columns."""
        remaining = {k: v for k, v in self._columns.items() if k not in names}
        return LogFrame(remaining)

    def head(self, n: int) -> "LogFrame":
        """The first *n* rows."""
        return self.take(slice(0, n))

    def sort_values(self, name: str, descending: bool = False) -> "LogFrame":
        """Rows sorted by one column (stable)."""
        order = np.argsort(self.col(name), kind="stable")
        if descending:
            order = order[::-1]
        return self.take(order)

    def sample(self, fraction: float, rng: np.random.Generator) -> "LogFrame":
        """Uniform random row sample without replacement.

        Mirrors the paper's D_sample construction (a 4 % random sample
        of D_full).
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        count = int(round(self._length * fraction))
        indices = rng.choice(self._length, size=count, replace=False)
        indices.sort()
        return self.take(indices)

    # -- aggregation -----------------------------------------------------

    def factorize(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``np.unique(frame.col(name), return_inverse=True)``, cached.

        Computed at most once per frame and column; every frame,
        row subsets included, factorizes its own columns.  Both arrays
        are read-only: they are shared by every later caller.
        """
        entry = self._cache.get(name)
        if entry is not None:
            return entry
        uniques, codes = factorize(self.col(name))
        uniques.flags.writeable = False
        codes.flags.writeable = False
        self._cache[name] = uniques, codes
        return uniques, codes

    def derived(self, build: Callable[["LogFrame"], _T]) -> _T:
        """``build(self)``, cached: computed at most once per frame.

        For values an analysis derives from several columns and reads
        many times (the registered-domain codes, the matchable texts).
        *build* itself is the cache key, so pass a module-level
        function.  Like :meth:`factorize`'s, the cache belongs to this
        frame: a row subset starts empty.  Every later caller shares the
        value, so no caller may modify it.
        """
        try:
            return self._cache[build]
        except KeyError:
            value = self._cache[build] = build(self)
            return value

    def value_counts(self, name: str) -> list[tuple[object, int]]:
        """Distinct values of a column with counts, most frequent first.

        Ties are broken by value so results are deterministic.
        """
        return top_counts(*self.factorize(name))

    def nunique(self, name: str) -> int:
        """Number of distinct values in a column."""
        return len(self.factorize(name)[0])

    def groupby(self, name: str) -> "GroupBy":
        """Group rows by one column (see :class:`GroupBy`)."""
        from repro.frame.groupby import GroupBy

        return GroupBy(self, name)

    # -- row access (small frames / tests) -------------------------------

    def iter_rows(self) -> Iterator[dict[str, object]]:
        """Iterate rows as dicts.  O(rows × columns): test-sized only."""
        names = list(self._columns)
        arrays = [self._columns[name] for name in names]
        for i in range(self._length):
            yield {name: array[i] for name, array in zip(names, arrays)}

    def row(self, index: int) -> dict[str, object]:
        """One row as a dict."""
        return {name: array[index] for name, array in self._columns.items()}

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self._length} rows × "
            f"{len(self._columns)} cols)"
        )


def concat(frames: Iterable[LogFrame]) -> LogFrame:
    """Concatenate frames with identical column sets, in order; the
    result has the first frame's class."""
    frames = list(frames)
    if not frames:
        raise ValueError("nothing to concatenate")
    first_names = set(frames[0].column_names)
    for frame in frames[1:]:
        if set(frame.column_names) != first_names:
            raise ValueError("frames have differing column sets")
    return type(frames[0])(
        {
            name: np.concatenate([frame.col(name) for frame in frames])
            for name in frames[0].column_names
        }
    )
