"""Atomic text-file writes: no output file is ever left half-written."""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager, suppress
from pathlib import Path


@contextmanager
def atomic_open(path):
    """A text file to write that replaces path only when the block completes.

    The temp file is created by open() in exclusive mode, so the output gets
    the permissions open() would give it under the umask. An OSError of that
    open() or of the rename names path, the file the caller asked for, not
    the temp file: a missing parent directory, or a path that is a directory.
    """
    path = Path(path)
    # what secrets.token_hex(8) returns, without importing secrets, which loads hashlib
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise _naming(exc, path) from exc
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise _naming(exc, path) from exc
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def check_destination(path) -> None:
    """Raise, before any work, the OSError a write to path by atomic_open
    would end in: its parent is missing or not a directory, or path is a
    directory. The write keeps its own check."""
    path = Path(path)
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


def _naming(exc: OSError, path: Path) -> OSError:
    """exc as the same kind of OSError (errno and message), naming path."""
    return OSError(exc.errno, exc.strerror, str(path))


def atomic_write_text(path, text: str) -> None:
    """Write text to a sibling temp file, then rename over the target."""
    with atomic_open(path) as fh:
        fh.write(text)
