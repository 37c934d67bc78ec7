"""Crash-safe file publication: tmp + ``os.replace`` + fsync.

Every durable artifact in the system — ELFF logs, checkpoint
artifacts, the run journal, metrics and markdown reports — goes
through this module, so an interrupted process never leaves a
truncated file at a final path.  The pattern is the classic one:

1. write the full content to ``<name>.tmp`` in the destination
   directory (same filesystem, so the rename is atomic);
2. flush and ``fsync`` the tmp file so the bytes are on disk, not in
   the page cache, before the name becomes visible;
3. ``os.replace`` the tmp over the final name — readers see either
   the old file or the complete new one, never a prefix.

:class:`AtomicTextFile` wraps an incrementally-written text handle
(plain or gzip) with the same contract: the final path appears only on
a successful :meth:`close`, and an exception inside the ``with`` block
discards the tmp file instead of publishing it.

A *part* is the content-addressed form of the same contract, for
bytes that are appended over time and published once:
:class:`PartWriter` stages them under a process-unique name, hashing
as it goes, and :meth:`~PartWriter.seal` fsyncs and renames the file
to ``<spool>/<sha256>.part``.  Two processes that write the same bytes
publish the same name, so a re-run shard can never corrupt a part a
sibling already published; :func:`read_part` streams a part back and
re-checks its name.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from collections.abc import Iterator
from pathlib import Path

#: Largest read when streaming a part back (hashing or copying it), so
#: a part of any size is copied in bounded memory.
READ_CHUNK = 1 << 20

#: Per-process counter that keeps concurrent staging names distinct.
_STAGING_IDS = itertools.count()


def _fsync_path(path: Path) -> None:
    """Force *path*'s bytes to stable storage (best effort on
    filesystems that do not support fsync)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def tmp_path_for(path: Path | str, *, unique: bool = False) -> Path:
    """The sibling tmp name a write stages through.

    The default ``<name>.tmp`` is deterministic (handy for tests and
    crash-leftover cleanup); ``unique=True`` suffixes the writer's pid
    so two *processes* staging the same final path never interleave
    writes into one tmp file — required by the distributed dispatcher,
    where a reclaimed shard may briefly be written by two workers.
    """
    path = Path(path)
    suffix = f".{os.getpid()}.tmp" if unique else ".tmp"
    return path.with_name(path.name + suffix)


def atomic_write_bytes(
    path: Path | str, data: bytes, *, unique_tmp: bool = False
) -> Path:
    """Write *data* to *path* atomically; returns the final path.

    ``unique_tmp=True`` stages through a pid-unique tmp name, making
    the write safe against a concurrent writer of the same final path
    (last ``os.replace`` wins, both leave complete bytes).
    """
    path = Path(path)
    staging = tmp_path_for(path, unique=unique_tmp)
    with open(staging, "wb") as handle:
        handle.write(data)
        handle.flush()
        try:
            os.fsync(handle.fileno())
        except OSError:
            pass
    os.replace(staging, path)
    return path


def atomic_write_text(path: Path | str, text: str) -> Path:
    """Write *text* (UTF-8) to *path* atomically; returns the path."""
    return atomic_write_bytes(path, text.encode("utf-8"))


class AtomicTextFile:
    """A text writer that publishes its file only on successful close.

    *opener* opens the staging path for writing (``open(p, "w")`` for
    plain text, a deterministic-gzip writer for ``.gz`` logs); writes
    stream to ``<name>.tmp``, and :meth:`close` fsyncs and renames the
    tmp over the final name.  Used as a context manager, an exception
    inside the block calls :meth:`discard` instead — the final path is
    never touched, and the tmp file is removed.
    """

    def __init__(self, path: Path | str, opener=None):
        self.path = Path(path)
        self._staging = tmp_path_for(self.path)
        self._handle = (opener or (lambda p: open(p, "w", newline="")))(
            self._staging
        )
        self._settled = False

    def write(self, text: str) -> int:
        return self._handle.write(text)

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        """Finish the write and publish the file at its final path."""
        if self._settled:
            return
        self._settled = True
        self._handle.close()
        _fsync_path(self._staging)
        os.replace(self._staging, self.path)

    def discard(self) -> None:
        """Abandon the write: close and remove the tmp, leaving the
        final path exactly as it was."""
        if self._settled:
            return
        self._settled = True
        try:
            self._handle.close()
        finally:
            self._staging.unlink(missing_ok=True)

    def __enter__(self) -> "AtomicTextFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.discard()
        else:
            self.close()


class PartDamaged(OSError):
    """A spooled part no longer hashes to its name."""


def _part_path(spool: Path | str, digest: str) -> Path:
    """Where the part with SHA-256 *digest* lives in *spool*."""
    return Path(spool) / f"{digest}.part"


class PartWriter:
    """Append bytes to one part in *spool*; :meth:`seal` publishes it.

    The staging file's name is unique to this process and writer, so
    writers never share a file; the published name is the SHA-256 of
    the bytes, so writers of equal bytes publish the same part.
    """

    def __init__(self, spool: Path | str):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self._staging = self.spool / (
            f".{os.getpid()}-{next(_STAGING_IDS)}.staging"
        )
        self._handle = open(self._staging, "wb")
        self._hash = hashlib.sha256()
        self.size = 0

    def write(self, data: bytes) -> None:
        self._handle.write(data)
        self._hash.update(data)
        self.size += len(data)

    def seal(self) -> str:
        """fsync the staged bytes and rename them to their content
        address; returns the SHA-256."""
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except OSError:
            pass
        self._handle.close()
        digest = self._hash.hexdigest()
        os.replace(self._staging, _part_path(self.spool, digest))
        return digest


def read_part(spool: Path | str, digest: str) -> Iterator[bytes]:
    """Yield part *digest* of *spool* in reads of at most
    :data:`READ_CHUNK` bytes, re-hashing as it goes.

    Raises :class:`PartDamaged` after the last chunk when the bytes no
    longer hash to the part's name (a missing part raises
    ``FileNotFoundError`` on the first read), so a consumer writing
    through an :class:`AtomicTextFile` never publishes damaged output.
    """
    path = _part_path(spool, digest)
    check = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(READ_CHUNK):
            check.update(chunk)
            yield chunk
    if check.hexdigest() != digest:
        raise PartDamaged(f"spooled part {path} no longer matches its hash")
