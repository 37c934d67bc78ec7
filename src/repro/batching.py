"""The column-batch size, importable without numpy.

:mod:`repro.pipeline` re-exports :data:`BATCH_SIZE`; it lives here so
the CLI can build its parser (the ``--batch-size`` default) without
importing the pipeline and, with it, numpy.
"""

#: Rows per column batch unless the caller asks for another size
#: (``--batch-size``'s default).  Output never depends on it.
BATCH_SIZE = 1024
