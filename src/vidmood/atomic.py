"""All-or-nothing file writes."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from pathlib import Path

__all__ = ["atomic_write"]


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """Open a temp file in ``path``'s directory for writing; when the block
    ends normally it replaces ``path`` in one rename. If the block raises,
    the temp file is removed and ``path`` is left as it was, so a reader
    never sees a half-written file. An ``OSError`` that names no file, or
    names the temp file (a failed open, write or rename), is raised again
    as an ``OSError`` of the same errno naming ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # no temp file, or none that can go
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename in (None, tmp, str(tmp)):
            raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
        raise
