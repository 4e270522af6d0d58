"""Atomic text-file writes: no output file is ever left half-written."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path


@contextmanager
def atomic_open(path):
    """A text file to write that replaces path only when the block completes."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
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
