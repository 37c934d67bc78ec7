"""A small numpy-backed columnar engine.

pandas is the natural tool for the paper's analysis but is not
available in this environment, so this package provides the minimal
columnar engine the analyses need: typed columns, boolean-mask
filtering, value counts, group-bys with count/sum/nunique aggregates,
and CSV round-tripping of log files.  Group-bys and counts run on
codes: :func:`factorize` is ``np.unique(return_inverse=True)`` without
sorting every row, and :meth:`LogFrame.factorize` caches it per column.

The central type is :class:`LogFrame`; :func:`frame_from_records`
builds one from :class:`~repro.logmodel.record.LogRecord` batches.

:class:`RecordBatch` is the pipeline's column-batch currency: unlike
:class:`LogFrame` (the 16 analysis columns) it carries every wire
field, so batches round-trip to records and ELFF rows byte-identically.
"""

from repro.frame.batch import BATCH_COLUMNS, RecordBatch, concat_batches
from repro.frame.groupby import GroupBy
from repro.frame.io import (
    empty_frame,
    frame_from_records,
    read_frame_csv,
    write_frame_csv,
)
from repro.frame.logframe import LogFrame, concat, factorize, top_counts

__all__ = [
    "BATCH_COLUMNS",
    "LogFrame",
    "GroupBy",
    "RecordBatch",
    "concat",
    "concat_batches",
    "empty_frame",
    "factorize",
    "frame_from_records",
    "read_frame_csv",
    "top_counts",
    "write_frame_csv",
]
