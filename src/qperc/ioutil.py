"""Atomic file writes: temp file in the destination directory, then rename."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file whose contents appear at `path` only if the block succeeds.

    The temp file is deleted when the block raises, so a failed write never
    leaves a partial file at `path`.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent if str(path.parent) else ".",
        prefix=path.name + ".",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    with atomic_writer(path) as f:
        f.write(data)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
