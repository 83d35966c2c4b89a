"""Crash-safe file replacement.

Artifacts are written to a temp file beside their target, flushed and fsynced,
then moved over the target with os.replace. A run interrupted mid-write leaves
the previous file intact and no temp file behind.
"""
from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temp file for writing; it replaces `path` only if the block succeeds."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
