"""Follow a growing ELFF log file across polls.

:class:`LogTailer` is the stateful wrapper around :func:`repro.
logmodel.elff.tail_batches`: it remembers the resume offset between
polls, skips polls when the file has not grown, and resets to the
start when the file shrinks (rotation / truncation).  Each poll
returns only the records that became complete since the last one, as
one batch read by the batch reader — a torn final line is left for the
next poll, so the record stream across polls is exactly the record
stream of the final file.
"""

from __future__ import annotations

from pathlib import Path

from repro.frame.batch import RecordBatch
from repro.logmodel.elff import LogFormatError, ReadStats, tail_batches


class LogTailer:
    """Incremental reader over one growing ELFF file.

    The tailer tracks two sizes: the *raw* on-disk size (to cheaply
    detect growth and rotation via ``stat``) and the resume *offset*
    into the decoded stream (uncompressed bytes for ``.gz``).  Read
    bookkeeping accumulates into :attr:`stats` across polls.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.offset = 0
        self.stats = ReadStats()
        self.polls = 0
        self.rotations = 0
        #: The error that ended the latest poll early, or None.
        self.refusal: LogFormatError | None = None
        self._raw_size = -1

    def poll(self) -> RecordBatch:
        """Read the records that became complete since the last poll.

        Returns an empty batch when the file is missing (not created
        yet, or mid-rotation) or has not changed size since the last
        poll.  A shrunk file is treated as rotated: the offset resets
        and the new content is read from the top.  A line the reader
        refuses (a foreign ``#Fields`` directive) ends the poll early:
        the rows before it are returned, :attr:`refusal` holds the
        error, and the next poll resumes past the line.
        """
        self.refusal = None
        try:
            raw_size = self.path.stat().st_size
        except FileNotFoundError:
            return RecordBatch.empty()
        if raw_size < self._raw_size:
            self.rotations += 1
            self.offset = 0
        elif raw_size == self._raw_size:
            return RecordBatch.empty()
        self._raw_size = raw_size
        self.polls += 1
        batch, self.offset, self.refusal = tail_batches(
            self.path, offset=self.offset, stats=self.stats
        )
        return batch
