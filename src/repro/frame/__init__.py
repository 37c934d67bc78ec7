"""A small numpy-backed columnar engine.

pandas is the natural tool for the paper's analysis but is not
available in this environment, so this package provides the minimal
columnar engine the analyses need: typed columns, boolean-mask
filtering, value counts, and group-bys with count/sum/nunique
aggregates.  Group-bys and counts run on codes: :func:`factorize` is
``np.unique(return_inverse=True)`` without sorting every row, and
:meth:`LogFrame.factorize` caches it per column.

:class:`LogFrame` is the one column container.  An analysis frame is
free-form; :func:`frame_from_records` builds one with the 16 analysis
columns from :class:`~repro.logmodel.record.LogRecord` batches.  The
fixed-schema tables are subclasses that set ``LogFrame.SCHEMA``:
:class:`RecordBatch`, the pipeline's column-batch currency, carries
every wire field, so batches round-trip to records and ELFF rows
byte-identically, and :class:`~repro.traffic.RequestBatch` carries the
pre-policy request columns.
"""

from repro.frame.batch import BATCH_COLUMNS, RecordBatch, concat_batches
from repro.frame.groupby import GroupBy
from repro.frame.io import empty_frame, frame_from_records
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
    "top_counts",
]
