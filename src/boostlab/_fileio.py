"""Atomic text-file writes: no output file is ever left half-written."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager, suppress
from pathlib import Path


@contextmanager
def atomic_open(path):
    """A text file to write that replaces path only when the block completes.

    The temp file is created by open() in exclusive mode, so the output gets
    the permissions open() would give it under the umask.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write text to a sibling temp file, then rename over the target."""
    with atomic_open(path) as fh:
        fh.write(text)
